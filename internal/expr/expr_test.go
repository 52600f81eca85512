package expr

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"dqo/internal/hashtable"
	"dqo/internal/storage"
)

func testRel(t *testing.T) *storage.Relation {
	t.Helper()
	return storage.MustNewRelation("t",
		storage.NewUint32("id", []uint32{1, 2, 3, 4}),
		storage.NewInt64("v", []int64{-10, 0, 10, 20}),
		storage.NewFloat64("f", []float64{0.5, 1.5, 2.5, 3.5}),
		storage.NewString("s", []string{"a", "b", "a", "c"}),
	)
}

func TestEvalPredicateComparisons(t *testing.T) {
	rel := testRel(t)
	cases := []struct {
		e    Expr
		want []bool
	}{
		{Bin{OpEq, Col{"id"}, IntLit{2}}, []bool{false, true, false, false}},
		{Bin{OpNe, Col{"id"}, IntLit{2}}, []bool{true, false, true, true}},
		{Bin{OpLt, Col{"v"}, IntLit{0}}, []bool{true, false, false, false}},
		{Bin{OpLe, Col{"v"}, IntLit{0}}, []bool{true, true, false, false}},
		{Bin{OpGt, Col{"f"}, FloatLit{1.5}}, []bool{false, false, true, true}},
		{Bin{OpGe, Col{"f"}, FloatLit{1.5}}, []bool{false, true, true, true}},
		{Bin{OpEq, Col{"s"}, StrLit{"a"}}, []bool{true, false, true, false}},
	}
	for _, c := range cases {
		got, err := EvalPredicate(c.e, rel)
		if err != nil {
			t.Fatalf("%s: %v", c.e, err)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("%s: row %d = %v, want %v", c.e, i, got[i], c.want[i])
			}
		}
	}
}

func TestEvalLogical(t *testing.T) {
	rel := testRel(t)
	e := Bin{OpAnd,
		Bin{OpGt, Col{"v"}, IntLit{-5}},
		Bin{OpLt, Col{"id"}, IntLit{4}},
	}
	got, err := EvalPredicate(e, rel)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
	or := Bin{OpOr,
		Bin{OpEq, Col{"id"}, IntLit{1}},
		Bin{OpEq, Col{"id"}, IntLit{4}},
	}
	got, err = EvalPredicate(or, rel)
	if err != nil {
		t.Fatal(err)
	}
	want = []bool{true, false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OR row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEvalArithmeticAndPromotion(t *testing.T) {
	rel := testRel(t)
	// (v + 10) * 2 > 25  — int arithmetic
	e := Bin{OpGt, Bin{OpMul, Bin{OpAdd, Col{"v"}, IntLit{10}}, IntLit{2}}, IntLit{25}}
	got, err := EvalPredicate(e, rel)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, false, true, true} // (v+10)*2 = 0, 20, 40, 60
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
	// int column compared against float literal: promotion.
	p := Bin{OpGt, Col{"v"}, FloatLit{-0.5}}
	got, err = EvalPredicate(p, rel)
	if err != nil {
		t.Fatal(err)
	}
	want = []bool{false, true, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("promotion row %d = %v, want %v", i, got[i], want[i])
		}
	}
	// float - int subtraction promotes too.
	q := Bin{OpGe, Bin{OpSub, Col{"f"}, IntLit{1}}, FloatLit{1.5}}
	got, err = EvalPredicate(q, rel)
	if err != nil {
		t.Fatal(err)
	}
	want = []bool{false, false, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("float-int row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEvalErrors(t *testing.T) {
	rel := testRel(t)
	cases := []Expr{
		Col{"missing"},                  // unknown column (as predicate: non-bool too, but eval fails first)
		Bin{OpAnd, Col{"v"}, IntLit{1}}, // AND over non-booleans
		Bin{OpAdd, Col{"s"}, IntLit{1}}, // arithmetic on strings
		Bin{OpEq, Col{"s"}, IntLit{1}},  // type mismatch
		Bin{OpEq, Bin{OpEq, Col{"id"}, IntLit{1}}, Bin{OpEq, Col{"id"}, IntLit{1}}}, // comparing booleans
	}
	for _, e := range cases {
		if _, err := EvalPredicate(e, rel); err == nil {
			t.Errorf("%s: expected error", e)
		}
	}
	// A non-boolean expression is rejected as a predicate.
	if _, err := EvalPredicate(Bin{OpAdd, Col{"v"}, IntLit{1}}, rel); err == nil {
		t.Error("arithmetic accepted as predicate")
	}
}

func TestSelectivity(t *testing.T) {
	rel := testRel(t)
	idx, err := Selectivity(Bin{OpGe, Col{"v"}, IntLit{0}}, rel)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 2, 3}
	if len(idx) != len(want) {
		t.Fatalf("idx = %v, want %v", idx, want)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("idx = %v, want %v", idx, want)
		}
	}
}

func TestSelectivityMatchesBruteForce(t *testing.T) {
	f := func(vals []int64, threshold int64) bool {
		rel := storage.MustNewRelation("t", storage.NewInt64("v", vals))
		idx, err := Selectivity(Bin{OpLt, Col{"v"}, IntLit{threshold}}, rel)
		if err != nil {
			return false
		}
		var want []int32
		for i, v := range vals {
			if v < threshold {
				want = append(want, int32(i))
			}
		}
		if len(idx) != len(want) {
			return false
		}
		for i := range want {
			if idx[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExprString(t *testing.T) {
	e := Bin{OpAnd, Bin{OpEq, Col{"a"}, IntLit{1}}, Bin{OpLt, Col{"b"}, FloatLit{2.5}}}
	got := e.String()
	if got != "((a = 1) AND (b < 2.5))" {
		t.Fatalf("String = %q", got)
	}
	if (StrLit{"x"}).String() != "'x'" {
		t.Fatal("string literal rendering wrong")
	}
}

func TestExprColumns(t *testing.T) {
	e := Bin{OpAnd, Bin{OpEq, Col{"a"}, IntLit{1}}, Bin{OpLt, Col{"b"}, Col{"c"}}}
	cols := e.Columns(nil)
	want := "a,b,c"
	if strings.Join(cols, ",") != want {
		t.Fatalf("Columns = %v, want %s", cols, want)
	}
}

func TestAggSpecBasics(t *testing.T) {
	st := hashtable.AggState{Count: 4, Sum: 20, Min: -1, Max: 9}
	cases := []struct {
		spec AggSpec
		i    int64
		f    float64
		intg bool
	}{
		{AggSpec{Func: AggCount}, 4, 0, true},
		{AggSpec{Func: AggSum, Col: "v"}, 20, 0, true},
		{AggSpec{Func: AggMin, Col: "v"}, -1, 0, true},
		{AggSpec{Func: AggMax, Col: "v"}, 9, 0, true},
		{AggSpec{Func: AggAvg, Col: "v"}, 0, 5.0, false},
	}
	for _, c := range cases {
		i, f, intg := c.spec.FromState(st)
		if i != c.i || f != c.f || intg != c.intg {
			t.Errorf("%s: got (%d,%g,%v), want (%d,%g,%v)", c.spec, i, f, intg, c.i, c.f, c.intg)
		}
		if c.spec.Integral() != c.intg {
			t.Errorf("%s: Integral mismatch", c.spec)
		}
	}
}

func TestAggSpecNames(t *testing.T) {
	if (AggSpec{Func: AggCount}).OutName() != "count_star" {
		t.Fatal("COUNT(*) default name wrong")
	}
	if (AggSpec{Func: AggSum, Col: "v"}).OutName() != "sum_v" {
		t.Fatal("SUM default name wrong")
	}
	if (AggSpec{Func: AggSum, Col: "v", As: "total"}).OutName() != "total" {
		t.Fatal("alias ignored")
	}
	s := AggSpec{Func: AggAvg, Col: "v", As: "m"}.String()
	if s != "AVG(v) AS m" {
		t.Fatalf("String = %q", s)
	}
}

func TestAggSpecValidate(t *testing.T) {
	if err := (AggSpec{Func: AggSum}).Validate(); err == nil {
		t.Fatal("SUM without column accepted")
	}
	if err := (AggSpec{Func: AggCount}).Validate(); err != nil {
		t.Fatalf("COUNT(*) rejected: %v", err)
	}
	if err := (AggSpec{Func: AggFunc(99), Col: "v"}).Validate(); err == nil {
		t.Fatal("invalid function accepted")
	}
}

func TestAvgOfEmptyState(t *testing.T) {
	_, f, intg := (AggSpec{Func: AggAvg, Col: "v"}).FromState(hashtable.AggState{})
	if intg || f != 0 {
		t.Fatal("AVG of empty state should be float 0")
	}
}

// refVal is one row's value under the reference semantics: every integer
// column widened to int64, every literal a per-row constant.
type refVal struct {
	kind resultKind
	b    bool
	i    int64
	f    float64
	s    string
}

// refEval evaluates e on row i one value at a time — the semantics the
// vectorised evaluator must reproduce, literals and all.
func refEval(t *testing.T, e Expr, rel *storage.Relation, i int) refVal {
	t.Helper()
	switch e := e.(type) {
	case IntLit:
		return refVal{kind: rkInt, i: e.V}
	case FloatLit:
		return refVal{kind: rkFloat, f: e.V}
	case StrLit:
		return refVal{kind: rkString, s: e.V}
	case Col:
		v := rel.MustColumn(e.Name).ValueAt(i)
		switch v.Kind {
		case storage.KindFloat64:
			return refVal{kind: rkFloat, f: v.F}
		case storage.KindString:
			return refVal{kind: rkString, s: v.S}
		default:
			return refVal{kind: rkInt, i: int64(v.U)}
		}
	case Bin:
		l, r := refEval(t, e.L, rel, i), refEval(t, e.R, rel, i)
		if l.kind == rkInt && r.kind == rkFloat {
			l = refVal{kind: rkFloat, f: float64(l.i)}
		}
		if l.kind == rkFloat && r.kind == rkInt {
			r = refVal{kind: rkFloat, f: float64(r.i)}
		}
		if e.Op.comparison() {
			switch l.kind {
			case rkInt:
				return refVal{kind: rkBool, b: refCmp(e.Op, l.i, r.i)}
			case rkFloat:
				return refVal{kind: rkBool, b: refCmp(e.Op, l.f, r.f)}
			default:
				return refVal{kind: rkBool, b: refCmp(e.Op, l.s, r.s)}
			}
		}
		if l.kind == rkFloat {
			return refVal{kind: rkFloat, f: map[Op]float64{OpAdd: l.f + r.f, OpSub: l.f - r.f, OpMul: l.f * r.f}[e.Op]}
		}
		return refVal{kind: rkInt, i: map[Op]int64{OpAdd: l.i + r.i, OpSub: l.i - r.i, OpMul: l.i * r.i}[e.Op]}
	}
	t.Fatalf("refEval: unexpected %T", e)
	return refVal{}
}

func refCmp[T cmp.Ordered](op Op, a, b T) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	default:
		return a >= b
	}
}

// TestScalarLiteralEquivalence checks the scalar-literal kernels against
// the row-at-a-time reference: literals on either side, all six comparisons
// directly and over + - *, every column kind, int<->float promotion, and
// literals outside a uint32 column's range.
func TestScalarLiteralEquivalence(t *testing.T) {
	rel := storage.MustNewRelation("t",
		storage.NewUint32("u", []uint32{0, 1, 7, 4_000_000_000, math.MaxUint32, 7}),
		storage.NewUint64("w", []uint64{0, 1, 7, 1 << 40, 3, 7}),
		storage.NewInt64("i", []int64{-9, 0, 7, math.MinInt32, 12, -1}),
		storage.NewFloat64("f", []float64{-1.5, 0, 7, 7.25, math.Inf(1), -0.0}),
		storage.NewString("s", []string{"", "b", "bb", "a", "c", "b"}),
	)
	cmps := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	numLits := []Expr{IntLit{7}, IntLit{0}, IntLit{-1}, IntLit{-5_000_000_000},
		IntLit{math.MaxUint32}, IntLit{math.MaxUint32 + 1}, FloatLit{7}, FloatLit{-0.5}, FloatLit{4e9}}
	var exprs []Expr
	for _, op := range cmps {
		for _, c := range []string{"u", "w", "i", "f"} {
			for _, lit := range numLits {
				exprs = append(exprs, Bin{op, Col{c}, lit}, Bin{op, lit, Col{c}})
				for _, ar := range []Op{OpAdd, OpSub, OpMul} {
					exprs = append(exprs,
						Bin{op, Bin{ar, Col{c}, lit}, IntLit{7}},
						Bin{op, FloatLit{3.5}, Bin{ar, lit, Col{c}}})
				}
			}
			exprs = append(exprs, Bin{op, Col{c}, Col{"u"}}, Bin{op, Bin{OpSub, Col{"i"}, Col{c}}, IntLit{0}})
		}
		for _, lit := range []string{"b", "", "bz"} {
			exprs = append(exprs, Bin{op, Col{"s"}, StrLit{lit}}, Bin{op, StrLit{lit}, Col{"s"}})
		}
		exprs = append(exprs, Bin{op, IntLit{3}, FloatLit{3}}, Bin{op, Bin{OpSub, IntLit{1}, IntLit{4}}, IntLit{-3}})
	}
	for _, e := range exprs {
		got, err := EvalPredicate(e, rel)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if len(got) != rel.NumRows() {
			t.Fatalf("%s: %d results for %d rows", e, len(got), rel.NumRows())
		}
		for i := range got {
			if want := refEval(t, e, rel, i).b; got[i] != want {
				t.Errorf("%s row %d = %v, want %v", e, i, got[i], want)
			}
		}
	}
}

// TestScalarBooleanOperands: literal-only predicates still yield one result
// per row, and combine with per-row predicates through AND/OR.
func TestScalarBooleanOperands(t *testing.T) {
	rel := testRel(t)
	always, never := Bin{OpEq, IntLit{1}, IntLit{1}}, Bin{OpLt, IntLit{2}, IntLit{1}}
	row := Bin{OpLt, Col{"id"}, IntLit{3}} // true, true, false, false
	cases := []struct {
		e    Expr
		want []bool
	}{
		{always, []bool{true, true, true, true}},
		{never, []bool{false, false, false, false}},
		{Bin{OpAnd, always, row}, []bool{true, true, false, false}},
		{Bin{OpAnd, row, never}, []bool{false, false, false, false}},
		{Bin{OpOr, never, row}, []bool{true, true, false, false}},
		{Bin{OpOr, row, always}, []bool{true, true, true, true}},
		{Bin{OpOr, never, always}, []bool{true, true, true, true}},
	}
	for _, c := range cases {
		got, err := EvalPredicate(c.e, rel)
		if err != nil {
			t.Fatalf("%s: %v", c.e, err)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
	empty := storage.MustNewRelation("e", storage.NewUint32("id", nil))
	if got, err := EvalPredicate(always, empty); err != nil || len(got) != 0 {
		t.Fatalf("constant predicate over no rows = %v, %v", got, err)
	}
}
