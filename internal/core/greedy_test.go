package core

import (
	"testing"

	"dqo/internal/cost"
	"dqo/internal/datagen"
	"dqo/internal/expr"
	"dqo/internal/logical"
	"dqo/internal/physical"
	"dqo/internal/props"
	"dqo/internal/storage"
)

// greedyQuery builds the paper's join+group query over a small FK pair.
func greedyQuery(t testing.TB, rSorted, sSorted, dense bool) logical.Node {
	t.Helper()
	cfg := datagen.FKConfig{RRows: 2000, SRows: 9000, AGroups: 200,
		RSorted: rSorted, SSorted: sSorted, Dense: dense}
	r, s := datagen.FKPair(7, cfg)
	return &logical.GroupBy{
		Input: &logical.Join{
			Left:    &logical.Scan{Table: "R", Rel: r},
			Right:   &logical.Scan{Table: "S", Rel: s},
			LeftKey: "ID", RightKey: "R_ID",
		},
		Key:  "A",
		Aggs: []expr.AggSpec{{Func: expr.AggCount}},
	}
}

// TestGreedyMatchesDeepResults: the greedy tier must produce plans whose
// executed results equal full Deep enumeration's, across the property
// quadrants that steer its heuristics (sortedness, density).
func TestGreedyMatchesDeepResults(t *testing.T) {
	for _, c := range []struct{ rSorted, sSorted, dense bool }{
		{true, true, true}, {true, false, true}, {false, false, true}, {false, false, false},
	} {
		q := greedyQuery(t, c.rSorted, c.sSorted, c.dense)
		deep, err := Optimize(q, DQOCalibrated())
		if err != nil {
			t.Fatal(err)
		}
		fast, err := Optimize(q, Greedy())
		if err != nil {
			t.Fatal(err)
		}
		want, err := Execute(deep.Best)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Execute(fast.Best)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != want.NumRows() {
			t.Errorf("%+v: greedy %d rows, deep %d", c, got.NumRows(), want.NumRows())
		}
		// Greedy prices a constant number of candidates per operator; deep
		// enumerates the molecule space. The planning-work gap is the tier's
		// whole point.
		if fast.Stats.Alternatives*10 > deep.Stats.Alternatives {
			t.Errorf("%+v: greedy costed %d alternatives vs deep %d; not a fast tier",
				c, fast.Stats.Alternatives, deep.Stats.Alternatives)
		}
	}
}

// TestGreedyExploitsProperties: on the sorted/sorted dense quadrant the
// greedy pick must land on the order-based join family without enumeration,
// and on the unsorted dense quadrant on the SPH family — the properties pay
// for the granule, one probe confirms it.
func TestGreedyExploitsProperties(t *testing.T) {
	q := greedyQuery(t, true, true, true)
	res, err := Optimize(q, Greedy())
	if err != nil {
		t.Fatal(err)
	}
	join := res.Best.Children[0]
	if join.Op != OpJoin || join.Join.Kind != physical.OJ {
		t.Errorf("sorted/sorted: greedy join = %s, want OJ", join.Join.Label())
	}

	q = greedyQuery(t, false, false, true)
	res, err = Optimize(q, Greedy())
	if err != nil {
		t.Fatal(err)
	}
	join = res.Best.Children[0]
	if join.Op != OpJoin || join.Join.Kind != physical.SPHJ {
		t.Errorf("unsorted dense: greedy join = %s, want SPHJ", join.Join.Label())
	}
}

// TestGreedyProvablyEmpty: a predicate range disjoint from the column's
// exact domain must zero the estimated cardinality without any probing —
// the visible-selectivity early exit.
func TestGreedyProvablyEmpty(t *testing.T) {
	cfg := datagen.FKConfig{RRows: 2000, SRows: 9000, AGroups: 200, Dense: true}
	r, _ := datagen.FKPair(7, cfg)
	// A ranges over [0, 200); A >= 5000 is provably empty.
	q := &logical.Filter{
		Input: &logical.Scan{Table: "R", Rel: r},
		Pred: expr.Bin{Op: expr.OpGe, L: expr.Col{Name: "A"},
			R: expr.IntLit{V: 5000}},
	}
	res, err := Optimize(q, Greedy())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Rows != 0 {
		t.Fatalf("provably-empty filter estimated %g rows, want 0", res.Best.Rows)
	}
	out, err := Execute(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Fatalf("executed %d rows", out.NumRows())
	}
}

// fixedCrack is a cracked-index AV on every (table, column) for planning
// tests; it is never probed.
type fixedCrack struct{}

func (fixedCrack) Cracked(table, col string) (RangeIndex, bool) { return fixedCrack{}, true }
func (fixedCrack) Range64(lo, hi uint64) []int32                { return nil }
func (fixedCrack) Label() string                                { return "av:crack" }

// flatEncScan prices the compressed-scan twin exactly like the plain scan,
// as the Paper model does and as feedback may tune the calibrated one to.
type flatEncScan struct{ cost.Model }

func (m flatEncScan) ScanCompressed(rows float64, _ props.Compression) float64 { return m.Scan(rows) }

// TestGreedySubsumedScanEncoding: the cracked-index and direct-on-compressed
// filters replace their child scan at compile time, so the child only sets
// the price and the EXPLAIN text, and it must show the storage the kernel
// reads — the plain relation the crack's positions index, the encoded
// payload the compressed filter compares in — whichever standalone scan
// twin is cheaper.
func TestGreedySubsumedScanEncoding(t *testing.T) {
	k := make([]uint32, 20000)
	for i := range k {
		k[i] = uint32(i / 100)
	}
	rel := storage.MustNewRelation("t", storage.NewUint32("k", k)).Compress()
	if !rel.HasEncoded() {
		t.Fatal("test relation did not compress")
	}
	q := &logical.Filter{
		Input: &logical.Scan{Table: "t", Rel: rel},
		Pred:  expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "k"}, R: expr.IntLit{V: 5}},
	}
	crack := Greedy().WithCracked(fixedCrack{})
	enc := Greedy()
	enc.Model = flatEncScan{enc.Model}
	for _, c := range []struct {
		name    string
		mode    Mode
		crack   bool
		wantEnc bool
	}{
		{"cracked", crack, true, false},
		{"compressed", enc, false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.mode.DOP = 1
			res, err := Optimize(q, c.mode)
			if err != nil {
				t.Fatal(err)
			}
			f := res.Best
			if f.Op != OpFilter || (f.Crack != nil) != c.crack || (f.Enc != props.NoCompression) == c.crack {
				t.Fatalf("greedy picked %s, want the %s filter", f.Label(), c.name)
			}
			if got := f.Children[0].Enc != props.NoCompression; got != c.wantEnc {
				t.Fatalf("%s filter over %s, want compressed child = %v", c.name, f.Children[0].Label(), c.wantEnc)
			}
		})
	}
}

// TestBeamPrunesAndMatches: a beam-capped Deep run must keep at most the
// beam width of property-distinct partial plans per site, cost fewer
// alternatives than exact enumeration the narrower the beam, and still
// return correct results.
func TestBeamPrunesAndMatches(t *testing.T) {
	q := greedyQuery(t, true, false, true)
	exact, err := Optimize(q, DQOCalibrated())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(exact.Best)
	if err != nil {
		t.Fatal(err)
	}
	prevAlts := exact.Stats.Alternatives + 1
	for _, k := range []int{8, 2, 1} {
		res, err := Optimize(q, DQOCalibrated().WithBeam(k))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Alternatives > prevAlts {
			t.Errorf("beam=%d costed %d alternatives, more than the wider beam's %d", k, res.Stats.Alternatives, prevAlts)
		}
		prevAlts = res.Stats.Alternatives
		got, err := Execute(res.Best)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != want.NumRows() {
			t.Errorf("beam=%d: %d rows, want %d", k, got.NumRows(), want.NumRows())
		}
	}
}

// TestBeamZeroExactPlans: Beam=0 must leave enumeration untouched — the
// chosen plan renders byte-identically to the un-beamed mode's.
func TestBeamZeroExactPlans(t *testing.T) {
	for _, c := range []struct{ rSorted, sSorted, dense bool }{
		{true, true, true}, {false, false, true}, {false, false, false},
	} {
		q := greedyQuery(t, c.rSorted, c.sSorted, c.dense)
		plain, err := Optimize(q, DQOCalibrated())
		if err != nil {
			t.Fatal(err)
		}
		beamed, err := Optimize(q, DQOCalibrated().WithBeam(0))
		if err != nil {
			t.Fatal(err)
		}
		if plain.Best.Explain() != beamed.Best.Explain() {
			t.Errorf("%+v: Beam=0 changed the plan:\nplain:\n%s\nbeamed:\n%s",
				c, plain.Best.Explain(), beamed.Best.Explain())
		}
		if plain.Stats.Alternatives != beamed.Stats.Alternatives {
			t.Errorf("%+v: Beam=0 changed enumeration: %d vs %d alternatives",
				c, plain.Stats.Alternatives, beamed.Stats.Alternatives)
		}
	}
}

// TestRebindSplicesLiterals: Rebind must reuse the template's physical
// structure while the new tree's literals take effect.
func TestRebindSplicesLiterals(t *testing.T) {
	cfg := datagen.FKConfig{RRows: 2000, SRows: 9000, AGroups: 200, Dense: true}
	r, _ := datagen.FKPair(7, cfg)
	filter := func(limit int64) logical.Node {
		return &logical.Filter{
			Input: &logical.Scan{Table: "R", Rel: r},
			Pred: expr.Bin{Op: expr.OpLt, L: expr.Col{Name: "A"},
				R: expr.IntLit{V: limit}},
		}
	}
	cached, err := Optimize(filter(100), DQOCalibrated())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Rebind(cached, filter(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Alternatives != 0 {
		t.Fatalf("rebind enumerated %d alternatives", res.Stats.Alternatives)
	}
	out, err := Execute(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	// A < 10 keeps 10 of the 200 dense A values: 10 × (2000/200) rows.
	if out.NumRows() != 100 {
		t.Fatalf("rebound plan returned %d rows, want 100", out.NumRows())
	}
	// The original template must be untouched (structural clone).
	outOld, err := Execute(cached.Best)
	if err != nil {
		t.Fatal(err)
	}
	if outOld.NumRows() != 1000 {
		t.Fatalf("template mutated by rebind: %d rows, want 1000", outOld.NumRows())
	}
}
