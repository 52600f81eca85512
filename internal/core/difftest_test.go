package core

// Differential testing: random schemas, datasets, and query shapes are
// executed both by the full pipeline (optimise under every mode, run the
// winning plan) and by an independent naive evaluator (nested-loop join,
// map-based grouping, stable sort). Any divergence is a bug in the
// optimiser, the property propagation, or a kernel.

import (
	"fmt"
	"sort"
	"testing"

	"dqo/internal/datagen"
	"dqo/internal/expr"
	"dqo/internal/logical"
	"dqo/internal/storage"
	"dqo/internal/xrand"
)

// naiveExecute evaluates a logical plan with the dumbest correct algorithms.
func naiveExecute(n logical.Node) (*storage.Relation, error) {
	switch n := n.(type) {
	case *logical.Scan:
		return n.Rel, nil
	case *logical.Filter:
		in, err := naiveExecute(n.Input)
		if err != nil {
			return nil, err
		}
		keep, err := expr.EvalPredicate(n.Pred, in)
		if err != nil {
			return nil, err
		}
		var idx []int32
		for i, k := range keep {
			if k {
				idx = append(idx, int32(i))
			}
		}
		return in.Gather(idx), nil
	case *logical.Project:
		in, err := naiveExecute(n.Input)
		if err != nil {
			return nil, err
		}
		return in.Project(n.Cols...)
	case *logical.Sort:
		in, err := naiveExecute(n.Input)
		if err != nil {
			return nil, err
		}
		col, ok := in.Column(n.Key)
		if !ok {
			return nil, fmt.Errorf("naive: no sort column %q", n.Key)
		}
		idx := make([]int32, in.NumRows())
		for i := range idx {
			idx[i] = int32(i)
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return col.KeyAt(int(idx[a])) < col.KeyAt(int(idx[b]))
		})
		return in.Gather(idx), nil
	case *logical.Join:
		left, err := naiveExecute(n.Left)
		if err != nil {
			return nil, err
		}
		right, err := naiveExecute(n.Right)
		if err != nil {
			return nil, err
		}
		lc := left.MustColumn(n.LeftKey)
		rc := right.MustColumn(n.RightKey)
		var li, ri []int32
		for i := 0; i < left.NumRows(); i++ {
			for j := 0; j < right.NumRows(); j++ {
				if lc.KeyAt(i) == rc.KeyAt(j) {
					li = append(li, int32(i))
					ri = append(ri, int32(j))
				}
			}
		}
		lg := left.Gather(li)
		rg := right.Gather(ri)
		cols := append([]*storage.Column(nil), lg.Columns()...)
		used := map[string]bool{}
		for _, c := range cols {
			used[c.Name()] = true
		}
		for _, c := range rg.Columns() {
			name := c.Name()
			if used[name] {
				name += "_r"
			}
			used[name] = true
			cols = append(cols, c.Rename(name))
		}
		return storage.NewRelation("naive_join", cols...)
	case *logical.GroupBy:
		in, err := naiveExecute(n.Input)
		if err != nil {
			return nil, err
		}
		keyCol := in.MustColumn(n.Key)
		type agg struct {
			count, sum, min, max int64
		}
		groups := map[uint64]*agg{}
		var order []uint64
		argVals := map[string][]int64{}
		for _, a := range n.Aggs {
			if a.Col == "" {
				continue
			}
			c := in.MustColumn(a.Col)
			vals := make([]int64, in.NumRows())
			for i := range vals {
				switch {
				case c.Kind() == storage.KindInt64:
					vals[i] = c.Int64s()[i]
				default:
					vals[i] = int64(c.KeyAt(i)) // uint32/uint64 widened
				}
			}
			argVals[a.Col] = vals
		}
		rowAggOf := map[string]map[uint64]*agg{}
		for col := range argVals {
			rowAggOf[col] = map[uint64]*agg{}
		}
		for i := 0; i < in.NumRows(); i++ {
			k := keyCol.KeyAt(i)
			g, ok := groups[k]
			if !ok {
				g = &agg{}
				groups[k] = g
				order = append(order, k)
			}
			g.count++
			for col, vals := range argVals {
				ga, ok := rowAggOf[col][k]
				if !ok {
					ga = &agg{min: vals[i], max: vals[i]}
					rowAggOf[col][k] = ga
				}
				if ga.count == 0 {
					ga.min, ga.max = vals[i], vals[i]
				}
				ga.count++
				ga.sum += vals[i]
				if vals[i] < ga.min {
					ga.min = vals[i]
				}
				if vals[i] > ga.max {
					ga.max = vals[i]
				}
			}
		}
		sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })

		keys := make([]uint32, len(order))
		for i, k := range order {
			keys[i] = uint32(k)
		}
		cols := []*storage.Column{storage.NewUint32(n.Key, keys)}
		for _, a := range n.Aggs {
			if a.Integral() {
				vals := make([]int64, len(order))
				for i, k := range order {
					switch a.Func {
					case expr.AggCount:
						vals[i] = groups[k].count
					case expr.AggSum:
						vals[i] = rowAggOf[a.Col][k].sum
					case expr.AggMin:
						vals[i] = rowAggOf[a.Col][k].min
					case expr.AggMax:
						vals[i] = rowAggOf[a.Col][k].max
					}
				}
				cols = append(cols, storage.NewInt64(a.OutName(), vals))
			} else {
				vals := make([]float64, len(order))
				for i, k := range order {
					ga := rowAggOf[a.Col][k]
					if ga.count > 0 {
						vals[i] = float64(ga.sum) / float64(ga.count)
					}
				}
				cols = append(cols, storage.NewFloat64(a.OutName(), vals))
			}
		}
		return storage.NewRelation("naive_group", cols...)
	default:
		return nil, fmt.Errorf("naive: unknown node %T", n)
	}
}

// canonical renders a relation as sorted rows for order-insensitive
// comparison (grouping output order is implementation-defined unless the
// query sorts).
func canonical(r *storage.Relation) []string {
	rows := make([]string, r.NumRows())
	for i := 0; i < r.NumRows(); i++ {
		s := ""
		for _, v := range r.Row(i) {
			s += v.String() + "|"
		}
		rows[i] = s
	}
	sort.Strings(rows)
	return rows
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomQuery builds a random logical plan over freshly generated tables.
func randomQuery(r *xrand.Rand) logical.Node {
	rRows := int(r.Uint64n(400)) + 2
	aGroups := int(r.Uint64n(uint64(rRows))) + 1
	sRows := int(r.Uint64n(1200))
	cfg := datagen.FKConfig{
		RRows: rRows, SRows: sRows, AGroups: aGroups,
		RSorted: r.Uint64n(2) == 0, SSorted: r.Uint64n(2) == 0,
		Dense: r.Uint64n(2) == 0,
	}
	rt, st := datagen.FKPair(r.Uint64(), cfg)

	var node logical.Node
	shape := r.Uint64n(4)
	switch shape {
	case 0: // group over R only
		node = &logical.Scan{Table: "R", Rel: rt}
	case 1, 2: // join then group
		node = &logical.Join{
			Left:    &logical.Scan{Table: "R", Rel: rt},
			Right:   &logical.Scan{Table: "S", Rel: st},
			LeftKey: "ID", RightKey: "R_ID",
		}
	default: // swapped-side join (dense build on the right)
		node = &logical.Join{
			Left:    &logical.Scan{Table: "S", Rel: st},
			Right:   &logical.Scan{Table: "R", Rel: rt},
			LeftKey: "R_ID", RightKey: "ID",
		}
	}
	if r.Uint64n(2) == 0 {
		threshold := int64(r.Uint64n(uint64(aGroups) + 1))
		node = &logical.Filter{Input: node, Pred: expr.Bin{
			Op: expr.OpLt, L: expr.Col{Name: "A"}, R: expr.IntLit{V: threshold},
		}}
	}
	aggs := []expr.AggSpec{{Func: expr.AggCount}}
	if r.Uint64n(2) == 0 && shape != 0 {
		aggs = append(aggs, expr.AggSpec{Func: expr.AggSum, Col: "M"})
	}
	if r.Uint64n(3) == 0 {
		aggs = append(aggs, expr.AggSpec{Func: expr.AggMin, Col: "A"}, expr.AggSpec{Func: expr.AggMax, Col: "A"})
	}
	node = &logical.GroupBy{Input: node, Key: "A", Aggs: aggs}
	if r.Uint64n(2) == 0 {
		node = &logical.Sort{Input: node, Key: "A"}
	}
	return node
}

func TestDifferentialRandomQueries(t *testing.T) {
	const trials = 120
	r := xrand.New(20260706)
	modes := []Mode{SQO(), DQO(), DQOCalibrated()}
	for trial := 0; trial < trials; trial++ {
		q := randomQuery(r)
		want, err := naiveExecute(q)
		if err != nil {
			t.Fatalf("trial %d: naive: %v\n%s", trial, err, logical.Format(q))
		}
		wantRows := canonical(want)
		for _, m := range modes {
			res, err := Optimize(q, m)
			if err != nil {
				t.Fatalf("trial %d %s: optimise: %v\n%s", trial, m.Name, err, logical.Format(q))
			}
			got, err := Execute(res.Best)
			if err != nil {
				t.Fatalf("trial %d %s: execute: %v\n%s", trial, m.Name, err, res.Best.Explain())
			}
			if !sameRows(canonical(got), wantRows) {
				t.Fatalf("trial %d %s: result mismatch (%d vs %d rows)\nplan:\n%s\nquery:\n%s",
					trial, m.Name, got.NumRows(), want.NumRows(), res.Best.Explain(), logical.Format(q))
			}
		}
	}
}

func TestDifferentialSortedOutputs(t *testing.T) {
	// When the query sorts, row order itself must match the reference.
	r := xrand.New(7)
	for trial := 0; trial < 40; trial++ {
		q := &logical.Sort{Input: randomQuery(r), Key: "A"}
		// randomQuery may already end in Sort(A); double sorting is a no-op.
		want, err := naiveExecute(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Optimize(q, DQO())
		if err != nil {
			t.Fatal(err)
		}
		got, err := Execute(res.Best)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != want.NumRows() {
			t.Fatalf("trial %d: %d vs %d rows", trial, got.NumRows(), want.NumRows())
		}
		gk := got.MustColumn("A").Uint32s()
		wk := want.MustColumn("A").Uint32s()
		for i := range wk {
			if gk[i] != wk[i] {
				t.Fatalf("trial %d: sorted key order differs at %d", trial, i)
			}
		}
	}
}
