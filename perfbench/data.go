package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"dqo"
	"dqo/internal/datagen"
)

// pair is one generated R/S foreign-key table pair (datagen.FKPair): the
// columns the engine receives, kept so the oracle can recompute every
// expected result in plain Go.
type pair struct {
	r, s   string // table names
	cfg    datagen.FKConfig
	id, a  []uint32 // R
	rid    []uint32 // S
	m      []int64  // S
	oracle *oracle  // built after set-up, outside every timed region
}

func genPair(seed uint64, r, s string, cfg datagen.FKConfig) *pair {
	rr, ss := datagen.FKPair(seed, cfg)
	return &pair{
		r: r, s: s, cfg: cfg,
		id:  rr.MustColumn("ID").Uint32s(),
		a:   rr.MustColumn("A").Uint32s(),
		rid: ss.MustColumn("R_ID").Uint32s(),
		m:   ss.MustColumn("M").Int64s(),
	}
}

// register hands the pair to the engine and returns the time spent inside
// DB.Register.
func (p *pair) register(db *dqo.DB) (time.Duration, error) {
	rt, err := dqo.NewTableBuilder(p.r).Uint32("ID", p.id).Uint32("A", p.a).Build()
	if err != nil {
		return 0, err
	}
	rt.DeclareCorrelation("ID", "A")
	st, err := dqo.NewTableBuilder(p.s).Uint32("R_ID", p.rid).Int64("M", p.m).Build()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := db.Register(rt); err != nil {
		return 0, err
	}
	if err := db.Register(st); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// digest is an order-insensitive checksum of a result: its row count and
// the wrapping sum of a hash of each row.
type digest struct {
	Rows int
	Sum  uint64
}

func (d *digest) add(o digest) { d.Rows += o.Rows; d.Sum += o.Sum }

func mix(x uint64) uint64 { // splitmix64 finaliser
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func rowHash(cells ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, c := range cells {
		h = mix(h ^ c)
	}
	return h
}

func one(cells ...uint64) digest { return digest{Rows: 1, Sum: rowHash(cells...)} }

// groupIndex holds, for a sorted key domain, prefix sums of per-key result
// digests, so the digest of any key range is two lookups.
type groupIndex struct {
	keys   []uint32 // distinct keys, ascending
	prefix []digest // prefix[i] = Σ digests of keys[:i]
}

func newGroupIndex(perKey map[uint32]digest) groupIndex {
	g := groupIndex{keys: make([]uint32, 0, len(perKey))}
	for k := range perKey {
		g.keys = append(g.keys, k)
	}
	slices.Sort(g.keys)
	g.prefix = make([]digest, len(g.keys)+1)
	for i, k := range g.keys {
		g.prefix[i+1] = g.prefix[i]
		g.prefix[i+1].add(perKey[k])
	}
	return g
}

// between is the digest of every key in [lo, hi).
func (g groupIndex) between(lo, hi uint64) digest {
	i, _ := slices.BinarySearchFunc(g.keys, lo, func(k uint32, t uint64) int { return cmp.Compare(uint64(k), t) })
	j, _ := slices.BinarySearchFunc(g.keys, hi, func(k uint32, t uint64) int { return cmp.Compare(uint64(k), t) })
	return digest{Rows: g.prefix[j].Rows - g.prefix[i].Rows, Sum: g.prefix[j].Sum - g.prefix[i].Sum}
}

// oracle answers every query shape of the benchmark from the generated
// columns. It is built from sorted slices rather than maps, so its own
// memory stays small beside the engine's.
type oracle struct {
	byID   []int32    // R rows ordered by ID
	rByA   groupIndex // SELECT ID, A FROM R WHERE A in range
	joinA  groupIndex // SELECT R.A, COUNT(*) … GROUP BY R.A, keyed by A
	joinAM groupIndex // SELECT R.A, COUNT(*), SUM(S.M) … GROUP BY R.A
	groupS digest     // SELECT R_ID, COUNT(*) FROM S GROUP BY R_ID
	orderS digest     // SELECT R_ID, M FROM S ORDER BY R_ID
}

func (p *pair) buildOracle() {
	o := &oracle{byID: make([]int32, len(p.id))}
	rByA := make(map[uint32]digest)
	for i, id := range p.id {
		o.byID[i] = int32(i)
		d := rByA[p.a[i]]
		d.add(one(uint64(id), uint64(p.a[i])))
		rByA[p.a[i]] = d
	}
	slices.SortFunc(o.byID, func(x, y int32) int { return cmp.Compare(p.id[x], p.id[y]) })
	o.rByA = newGroupIndex(rByA)

	// COUNT(*) and SUM(M) of S per R row (every S.R_ID is some R.ID).
	cnt := make([]int64, len(p.id))
	sum := make([]int64, len(p.id))
	for i, k := range p.rid {
		r, ok := o.row(p, k)
		if !ok {
			panic(fmt.Sprintf("S.R_ID %d has no R row", k))
		}
		cnt[r]++
		sum[r] += p.m[i]
		o.orderS.add(one(uint64(k), uint64(p.m[i])))
	}
	aCnt := make(map[uint32]int64)
	aSum := make(map[uint32]int64)
	for r, c := range cnt {
		if c > 0 {
			o.groupS.add(one(uint64(p.id[r]), uint64(c)))
			aCnt[p.a[r]] += c
			aSum[p.a[r]] += sum[r]
		}
	}
	joinA := make(map[uint32]digest, len(aCnt))
	joinAM := make(map[uint32]digest, len(aCnt))
	for a, c := range aCnt {
		joinA[a] = one(uint64(a), uint64(c))
		joinAM[a] = one(uint64(a), uint64(c), uint64(aSum[a]))
	}
	o.joinA = newGroupIndex(joinA)
	o.joinAM = newGroupIndex(joinAM)
	p.oracle = o
}

// row finds the R row holding id.
func (o *oracle) row(p *pair, id uint32) (int, bool) {
	i, ok := slices.BinarySearchFunc(o.byID, id, func(r int32, t uint32) int { return cmp.Compare(p.id[r], t) })
	if !ok {
		return 0, false
	}
	return int(o.byID[i]), true
}

// point is the digest of SELECT ID, A FROM R WHERE ID = id.
func (o *oracle) point(p *pair, id uint32) digest {
	i, ok := o.row(p, id)
	if !ok {
		return digest{}
	}
	return one(uint64(id), uint64(p.a[i]))
}

const allKeys = math.MaxUint64

// check compares a result's digest with the expected one and, for an
// ordered request, that its first column never decreases.
func check(got, want digest, sortedOK bool) error {
	if got != want {
		return fmt.Errorf("result digest %+v, oracle %+v", got, want)
	}
	if !sortedOK {
		return fmt.Errorf("result not in ORDER BY order")
	}
	return nil
}

// localDigest digests an in-process result column by column, reading the
// result's own column slices.
func localDigest(res *dqo.Result) (digest, bool, error) {
	names := res.Columns()
	cols := make([]func(int) uint64, len(names))
	for j, name := range names {
		c, err := columnBits(res, name)
		if err != nil {
			return digest{}, false, err
		}
		cols[j] = c
	}
	var d digest
	sorted := true
	cells := make([]uint64, len(names))
	for i := 0; i < res.NumRows(); i++ {
		for j, c := range cols {
			cells[j] = c(i)
		}
		d.add(one(cells...))
		if i > 0 && len(cols) > 0 && cells[0] < cols[0](i-1) {
			sorted = false
		}
	}
	return d, sorted, nil
}

// columnBits reads one result column as uint64 cells: uint32 keys widen,
// int64 values keep their two's-complement bits.
func columnBits(res *dqo.Result, name string) (func(int) uint64, error) {
	if u, err := res.Uint32Column(name); err == nil {
		return func(i int) uint64 { return uint64(u[i]) }, nil
	}
	if v, err := res.Int64Column(name); err == nil {
		return func(i int) uint64 { return uint64(v[i]) }, nil
	}
	return nil, fmt.Errorf("result column %q is neither uint32 nor int64", name)
}

// wireDigest digests HTTP JSON rows (numbers arrive as json.Number).
func wireDigest(rows [][]any) (digest, bool, error) {
	var d digest
	sorted := true
	var prev uint64
	cells := make([]uint64, 0, 4)
	for i, row := range rows {
		cells = cells[:0]
		for _, c := range row {
			v, err := wireCell(c)
			if err != nil {
				return digest{}, false, err
			}
			cells = append(cells, v)
		}
		d.add(one(cells...))
		if len(cells) > 0 {
			if i > 0 && cells[0] < prev {
				sorted = false
			}
			prev = cells[0]
		}
	}
	return d, sorted, nil
}

func wireCell(c any) (uint64, error) {
	switch v := c.(type) {
	case json.Number:
		x, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("non-integer cell %q", v)
		}
		return uint64(x), nil
	case float64:
		return uint64(int64(v)), nil
	default:
		return 0, fmt.Errorf("unexpected cell %T", c)
	}
}
