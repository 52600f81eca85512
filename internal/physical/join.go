package physical

import (
	"fmt"

	"dqo/internal/govern"
	"dqo/internal/hashtable"
	"dqo/internal/props"
	"dqo/internal/sortx"
)

// JoinKind identifies one of the five join algorithm families — "the
// algorithmic counterparts of our grouping implementations" (Section 4.3,
// Table 2). A join is a co-group with two inputs (paper, footnote 1), so the
// same five index/order strategies apply.
type JoinKind uint8

// Join algorithm kinds.
const (
	// HJ: hash join. Build a chained hash multimap on the left, probe with
	// the right.
	HJ JoinKind = iota
	// SPHJ: static perfect hash join. The left keys index a dense array
	// directly; requires a known dense left key domain.
	SPHJ
	// OJ: order-based (merge) join. Requires both inputs sorted by key.
	OJ
	// SOJ: sort & order-based join. Sorts both inputs, then merges.
	SOJ
	// BSJ: binary-search join. The left side is sorted into a directory;
	// each right key binary-searches it.
	BSJ
	numJoinKinds
)

// String returns the paper's abbreviation.
func (k JoinKind) String() string {
	switch k {
	case HJ:
		return "HJ"
	case SPHJ:
		return "SPHJ"
	case OJ:
		return "OJ"
	case SOJ:
		return "SOJ"
	case BSJ:
		return "BSJ"
	default:
		return fmt.Sprintf("JoinKind(%d)", uint8(k))
	}
}

// JoinKinds lists all join algorithms.
func JoinKinds() []JoinKind { return []JoinKind{HJ, SPHJ, OJ, SOJ, BSJ} }

// Requirements returns the input properties the algorithm needs, for the
// left (build) key column and right (probe) key column.
func (k JoinKind) Requirements(leftCol, rightCol string) (left, right []props.Requirement) {
	switch k {
	case SPHJ:
		return []props.Requirement{{Kind: props.ReqDense, Column: leftCol}}, nil
	case OJ:
		return []props.Requirement{{Kind: props.ReqSorted, Column: leftCol}},
			[]props.Requirement{{Kind: props.ReqSorted, Column: rightCol}}
	default:
		return nil, nil
	}
}

// JoinOptions selects the molecule choices inside a join algorithm.
type JoinOptions struct {
	Hash     hashtable.Func // HJ: hash function
	Sort     sortx.Kind     // SOJ/BSJ: sort algorithm
	Parallel int            // HJ/SPHJ/SOJ worker goroutines; <=1 is serial
	Ctl      *govern.Ctl    // cancellation + memory budget; nil is ungoverned
}

// JoinResult holds matching row pairs: for every i, left row LeftIdx[i]
// joins right row RightIdx[i]. SortedByKey reports whether the pairs are
// emitted in ascending key order (true for the order-based family).
type JoinResult struct {
	LeftIdx     []int32
	RightIdx    []int32
	SortedByKey bool
}

// Len returns the number of result pairs.
func (r *JoinResult) Len() int { return len(r.LeftIdx) }

// Join computes the inner equi-join of two key columns using the chosen
// algorithm. leftDom describes the left (build) key domain.
func Join(kind JoinKind, left, right []uint32, leftDom props.Domain, opt JoinOptions) (*JoinResult, error) {
	switch kind {
	case HJ:
		var res *JoinResult
		var err error
		if opt.Parallel > 1 {
			res, err = joinHashParallel(left, right, opt)
		} else {
			res, err = joinHash(left, right, opt)
		}
		if err != nil {
			return nil, err
		}
		res.SortedByKey = sortx.IsSortedUint32(right) // probe-major emission
		return res, nil
	case SPHJ:
		res, err := joinSPH(left, right, leftDom, opt)
		if err != nil {
			return nil, err
		}
		res.SortedByKey = sortx.IsSortedUint32(right)
		return res, nil
	case OJ:
		return joinMerge(left, right, opt.Ctl)
	case SOJ:
		return joinSortMerge(left, right, opt)
	case BSJ:
		res, err := joinBinarySearch(left, right, opt)
		if err != nil {
			return nil, err
		}
		res.SortedByKey = sortx.IsSortedUint32(right)
		return res, nil
	default:
		return nil, fmt.Errorf("physical: unknown join kind %d", uint8(kind))
	}
}

// joinHash is HJ: chained multimap build on left, probe with right. The
// build table and the growing pair lists are charged against the budget.
func joinHash(left, right []uint32, opt JoinOptions) (*JoinResult, error) {
	rv := resv{ctl: opt.Ctl}
	defer rv.release()
	m := hashtable.NewMulti(opt.Hash, len(left))
	if err := rv.charge(m.MemBytes()); err != nil {
		return nil, err
	}
	for i, k := range left {
		if i%checkEvery == 0 {
			if err := opt.Ctl.Err(); err != nil {
				return nil, err
			}
			if err := rv.charge(m.MemBytes()); err != nil {
				return nil, err
			}
		}
		m.Insert(k, int32(i))
	}
	if err := rv.charge(m.MemBytes()); err != nil {
		return nil, err
	}
	build := rv.held
	res := &JoinResult{}
	for j, k := range right {
		if j%checkEvery == 0 {
			if err := opt.Ctl.Err(); err != nil {
				return nil, err
			}
			if err := rv.charge(build + int64(cap(res.LeftIdx)+cap(res.RightIdx))*4); err != nil {
				return nil, err
			}
		}
		m.Probe(k, func(li int32) {
			res.LeftIdx = append(res.LeftIdx, li)
			res.RightIdx = append(res.RightIdx, int32(j))
		})
	}
	return res, nil
}

// joinSPH is SPHJ: left keys index a dense array of chain heads, so a probe
// is a single array access. Duplicate left keys are chained through next.
// The build is always serial (chain insertion order is the output contract);
// with opt.Parallel > 1 the probe runs over contiguous right chunks whose
// pair lists concatenate in chunk order — the serial emission order exactly.
func joinSPH(left, right []uint32, leftDom props.Domain, opt JoinOptions) (*JoinResult, error) {
	lo64, hi64, ok := leftDom.DenseDomain()
	if !ok {
		return nil, fmt.Errorf("physical: SPHJ requires a known dense left key domain, have %+v", leftDom)
	}
	width := hi64 - lo64 + 1
	if width > maxSPHWidth {
		return nil, fmt.Errorf("physical: SPHJ domain width %d exceeds limit %d", width, maxSPHWidth)
	}
	lo := uint32(lo64)
	hi := uint32(hi64)
	rv := resv{ctl: opt.Ctl}
	defer rv.release()
	// Directory (heads) plus chain links (next): 4 bytes per slot and row.
	if err := rv.add(int64(width)*4 + int64(len(left))*4); err != nil {
		return nil, err
	}
	heads := make([]int32, width)
	for i := range heads {
		heads[i] = -1
	}
	next := make([]int32, len(left))
	for i, k := range left {
		if i%checkEvery == 0 {
			if err := opt.Ctl.Err(); err != nil {
				return nil, err
			}
		}
		if k < lo || k > hi {
			return nil, fmt.Errorf("physical: SPHJ left key %d outside declared domain [%d,%d]", k, lo, hi)
		}
		next[i] = heads[k-lo]
		heads[k-lo] = int32(i)
	}
	if opt.Parallel > 1 && len(right) >= minParallelChunk {
		return sphProbeParallel(heads, next, lo, hi, right, opt.Parallel, opt.Ctl)
	}
	build := rv.held
	res := &JoinResult{}
	for j, k := range right {
		if j%checkEvery == 0 {
			if err := opt.Ctl.Err(); err != nil {
				return nil, err
			}
			if err := rv.charge(build + int64(cap(res.LeftIdx)+cap(res.RightIdx))*4); err != nil {
				return nil, err
			}
		}
		if k < lo || k > hi {
			continue // no partner possible
		}
		for li := heads[k-lo]; li >= 0; li = next[li] {
			res.LeftIdx = append(res.LeftIdx, li)
			res.RightIdx = append(res.RightIdx, int32(j))
		}
	}
	return res, nil
}

// joinMerge is OJ: classic sort-merge join over two sorted inputs, with full
// duplicate-block handling. Fails fast if either input is unsorted.
func joinMerge(left, right []uint32, ctl *govern.Ctl) (*JoinResult, error) {
	if !sortx.IsSortedUint32(left) {
		return nil, fmt.Errorf("physical: OJ requires sorted left input")
	}
	if !sortx.IsSortedUint32(right) {
		return nil, fmt.Errorf("physical: OJ requires sorted right input")
	}
	rv := resv{ctl: ctl}
	defer rv.release()
	return mergeJoin(left, right, nil, nil, &rv, ctl)
}

// mergeJoin emits every (leftRow, rightRow) match of two sorted key arrays,
// mapping sorted positions back to rows through lperm/rperm when they are
// non-nil. It counts the matches first, charges them to rv, and fills
// exactly sized outputs, so a selective join leaves no growth garbage.
func mergeJoin(left, right []uint32, lperm, rperm []int32, rv *resv, ctl *govern.Ctl) (*JoinResult, error) {
	n := 0
	mergeRuns(left, right, func(i, iEnd, j, jEnd int) error {
		n += (iEnd - i) * (jEnd - j)
		return nil
	})
	if err := rv.add(int64(n) * 8); err != nil {
		return nil, err
	}
	res := &JoinResult{LeftIdx: make([]int32, n), RightIdx: make([]int32, n), SortedByKey: true}
	k, poll := 0, 0
	err := mergeRuns(left, right, func(i, iEnd, j, jEnd int) error {
		if k >= poll {
			if err := ctl.Err(); err != nil {
				return err
			}
			poll = k + checkEvery
		}
		for a := i; a < iEnd; a++ {
			for b := j; b < jEnd; b++ {
				li, ri := int32(a), int32(b)
				if lperm != nil {
					li, ri = lperm[a], rperm[b]
				}
				res.LeftIdx[k], res.RightIdx[k] = li, ri
				k++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// mergeRuns calls run for every key present in both sorted key arrays with
// the row ranges [i, iEnd) and [j, jEnd) holding it; a non-nil error from run
// aborts the merge.
func mergeRuns(left, right []uint32, run func(i, iEnd, j, jEnd int) error) error {
	i, j := 0, 0
	for i < len(left) && j < len(right) {
		switch {
		case left[i] < right[j]:
			i++
		case left[i] > right[j]:
			j++
		default:
			k := left[i]
			iEnd := i
			for iEnd < len(left) && left[iEnd] == k {
				iEnd++
			}
			jEnd := j
			for jEnd < len(right) && right[jEnd] == k {
				jEnd++
			}
			if err := run(i, iEnd, j, jEnd); err != nil {
				return err
			}
			i, j = iEnd, jEnd
		}
	}
	return nil
}

// joinSortMerge is SOJ: argsort both sides, merge the sorted views, and map
// row indexes back through the permutations. With opt.Parallel > 1 the two
// argsorts run as parallel stable runs + merges (identical permutations to
// the serial sorts); the merge itself stays serial.
func joinSortMerge(left, right []uint32, opt JoinOptions) (*JoinResult, error) {
	rv := resv{ctl: opt.Ctl}
	defer rv.release()
	// Permutations plus sorted copies: 8 bytes per row on each side (doubled
	// for the parallel merge-pass swap buffers).
	perRow := int64(8)
	if opt.Parallel > 1 {
		perRow += 4
	}
	if err := rv.add(perRow * int64(len(left)+len(right))); err != nil {
		return nil, err
	}
	var lperm, rperm []int32
	var err error
	if opt.Parallel > 1 {
		stop := opt.Ctl.Err
		if lperm, err = sortx.ParallelArgSortUint32Ctl(opt.Sort, left, opt.Parallel, stop); err != nil {
			return nil, err
		}
		if rperm, err = sortx.ParallelArgSortUint32Ctl(opt.Sort, right, opt.Parallel, stop); err != nil {
			return nil, err
		}
	} else {
		if err := opt.Ctl.Err(); err != nil {
			return nil, err
		}
		lperm = sortx.ArgSortUint32(opt.Sort, left)
		rperm = sortx.ArgSortUint32(opt.Sort, right)
	}
	if err := opt.Ctl.Err(); err != nil {
		return nil, err
	}
	lsorted := make([]uint32, len(left))
	for i, p := range lperm {
		lsorted[i] = left[p]
	}
	rsorted := make([]uint32, len(right))
	for i, p := range rperm {
		rsorted[i] = right[p]
	}
	return mergeJoin(lsorted, rsorted, lperm, rperm, &rv, opt.Ctl)
}

// joinBinarySearch is BSJ: sort a directory over the left side once, then
// binary-search it for every right key, scanning duplicate runs.
func joinBinarySearch(left, right []uint32, opt JoinOptions) (*JoinResult, error) {
	rv := resv{ctl: opt.Ctl}
	defer rv.release()
	// Directory: permutation (4 B/row) plus sorted key copy (4 B/row).
	if err := rv.add(int64(len(left)) * 8); err != nil {
		return nil, err
	}
	if err := opt.Ctl.Err(); err != nil {
		return nil, err
	}
	perm := sortx.ArgSortUint32(opt.Sort, left)
	sorted := make([]uint32, len(left))
	for i, p := range perm {
		sorted[i] = left[p]
	}
	base := rv.held
	res := &JoinResult{}
	for j, k := range right {
		if j%checkEvery == 0 {
			if err := opt.Ctl.Err(); err != nil {
				return nil, err
			}
			if err := rv.charge(base + int64(cap(res.LeftIdx)+cap(res.RightIdx))*4); err != nil {
				return nil, err
			}
		}
		pos, found := searchUint32(sorted, k)
		if !found {
			continue
		}
		for a := pos; a < len(sorted) && sorted[a] == k; a++ {
			res.LeftIdx = append(res.LeftIdx, perm[a])
			res.RightIdx = append(res.RightIdx, int32(j))
		}
	}
	return res, nil
}

// OutputProps returns the property set of the join output given both input
// property sets, with left key column lcol and right key column rcol.
//
// Order: the order-based family emits pairs in key order; the probe-major
// family (HJ/SPHJ/BSJ) inherits the probe side's order on the key. Whenever
// the output is in key order, every column correlated with the key (paper
// Section 2.2, "correlated") comes out sorted as well — this is what lets a
// downstream order-based grouping on R.A run after a merge join on R.ID.
//
// Domains: input domains remain valid value-range descriptions of an inner
// join's output (a join never widens a domain; Distinct becomes an upper
// bound, and a Dense flag keeps meaning "SPH-applicable bounded domain" —
// the SPH array tolerates unused slots, it is merely no longer minimal).
//
// Correlations are value-level monotone-function facts, so they survive.
func (k JoinKind) OutputProps(left, right props.Set, lcol, rcol string) props.Set {
	out := props.NewSet()
	keyOrder := false
	switch k {
	case OJ, SOJ:
		keyOrder = true
	case BSJ, SPHJ, HJ:
		// Probe-major emission: probe-side key order drives output order.
		if right.SortedOn(rcol) {
			keyOrder = true
		} else if right.GroupedOn(rcol) {
			out.GroupedBy = []string{lcol, rcol}
		}
	}
	if keyOrder {
		sorted := []string{lcol, rcol}
		sorted = append(sorted, left.Dependents(lcol)...)
		sorted = append(sorted, right.Dependents(rcol)...)
		out = out.WithSortedBy(sorted...)
	}
	for c, d := range left.Cols {
		if d.Known {
			out.Cols[c] = d
		}
	}
	for c, d := range right.Cols {
		if d.Known {
			if _, exists := out.Cols[c]; !exists {
				out.Cols[c] = d
			}
		}
	}
	out.Corrs = append(out.Corrs, left.Corrs...)
	out.Corrs = append(out.Corrs, right.Corrs...)
	return out
}
