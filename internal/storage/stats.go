package storage

import (
	"fmt"
	"math"
)

// Stats describes the data properties of a column that the optimiser reasons
// about. The paper (Section 2.2) lists sortedness and density explicitly and
// names further properties (clustered, partitioned, correlated, compressed,
// layout) as DQO plan properties; Stats carries the value-level ones.
//
// Min/Max/Distinct use the column's key space mapped to uint64 (for signed
// columns the values are offset-mapped so ordering is preserved).
type Stats struct {
	Rows     int    // number of rows covered
	Min      uint64 // minimum key (undefined if Rows == 0)
	Max      uint64 // maximum key (undefined if Rows == 0)
	Distinct int    // exact number of distinct keys
	Sorted   bool   // non-decreasing in storage order
	Dense    bool   // Distinct == Max-Min+1 (contiguous key domain)
	Exact    bool   // true if computed or declared from ground truth
}

// String renders the stats compactly for EXPLAIN output.
func (s Stats) String() string {
	sortedness := "unsorted"
	if s.Sorted {
		sortedness = "sorted"
	}
	density := "sparse"
	if s.Dense {
		density = "dense"
	}
	return fmt.Sprintf("rows=%d distinct=%d min=%d max=%d %s %s",
		s.Rows, s.Distinct, s.Min, s.Max, sortedness, density)
}

// DenseDomain reports whether the stats describe a dense domain and, if so,
// its bounds. A single-value column (Distinct == 1) is trivially dense.
func (s Stats) DenseDomain() (lo, hi uint64, ok bool) {
	if !s.Dense || s.Rows == 0 {
		return 0, 0, false
	}
	return s.Min, s.Max, true
}

// keyStats computes exact stats over keys already mapped to an unsigned,
// order-preserving key space.
func keyStats[T uint32 | uint64](keys []T) Stats {
	st := Stats{Rows: len(keys), Sorted: true, Exact: true}
	if len(keys) == 0 {
		st.Dense = true
		return st
	}
	mn, mx, prev := keys[0], keys[0], keys[0]
	for _, k := range keys {
		if k < prev {
			st.Sorted = false
		}
		prev = k
		mn = min(mn, k)
		mx = max(mx, k)
	}
	st.Min, st.Max = uint64(mn), uint64(mx)
	st.Distinct = distinctKeys(keys, st.Sorted, mn, mx)
	st.Dense = uint64(st.Distinct) == st.Max-st.Min+1
	return st
}

// distinctKeys counts the distinct keys in [mn, mx] exactly: by runs when
// sorted, over a bitmap (at most one word per row) when the key span is
// narrow, and with a hash set otherwise.
func distinctKeys[T uint32 | uint64](keys []T, sorted bool, mn, mx T) int {
	n := 0
	switch {
	case sorted:
		n = 1
		for i := 1; i < len(keys); i++ {
			if keys[i] != keys[i-1] {
				n++
			}
		}
	case uint64(mx-mn) < 64*uint64(len(keys)):
		bits := make([]uint64, uint64(mx-mn)/64+1)
		for _, k := range keys {
			d := uint64(k - mn)
			w, b := d/64, uint64(1)<<(d%64)
			if bits[w]&b == 0 {
				bits[w] |= b
				n++
			}
		}
	default:
		seen := make(map[T]struct{}, len(keys))
		for _, k := range keys {
			seen[k] = struct{}{}
		}
		n = len(seen)
	}
	return n
}

// statsForFloat64 computes stats for a float column: only Rows, Distinct
// and Sorted are meaningful.
func statsForFloat64(vals []float64) Stats {
	st := Stats{Rows: len(vals), Sorted: true, Exact: true}
	prev := math.Inf(-1)
	distinct := make(map[float64]struct{})
	for _, v := range vals {
		if v < prev {
			st.Sorted = false
		}
		prev = v
		distinct[v] = struct{}{}
	}
	st.Distinct = len(distinct)
	return st
}
