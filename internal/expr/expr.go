// Package expr implements scalar expressions (predicates, arithmetic) and
// aggregate specifications evaluated over columnar relations.
//
// Expression evaluation is vectorised: an expression evaluates over a whole
// relation into a typed result vector. The hot aggregation loops in
// internal/physical do not go through this interpreter — they read raw
// columns — so the interpreter favours clarity over micro-optimisation.
package expr

import (
	"fmt"
	"math"
	"strings"

	"dqo/internal/storage"
)

// Op is a binary operator.
type Op uint8

// Binary operators.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpAnd
	OpOr
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	default:
		return "?"
	}
}

// comparison reports whether the operator yields booleans from scalars.
func (o Op) comparison() bool { return o <= OpGe }

// logical reports whether the operator combines booleans.
func (o Op) logical() bool { return o == OpAnd || o == OpOr }

// Expr is a scalar expression tree.
type Expr interface {
	// String renders the expression in SQL-ish syntax.
	String() string
	// Columns appends the column names referenced to dst.
	Columns(dst []string) []string
}

// Col references a column by name.
type Col struct{ Name string }

// String implements Expr.
func (c Col) String() string { return c.Name }

// Columns implements Expr.
func (c Col) Columns(dst []string) []string { return append(dst, c.Name) }

// IntLit is an integer literal.
type IntLit struct{ V int64 }

// String implements Expr.
func (l IntLit) String() string { return fmt.Sprintf("%d", l.V) }

// Columns implements Expr.
func (l IntLit) Columns(dst []string) []string { return dst }

// FloatLit is a float literal.
type FloatLit struct{ V float64 }

// String implements Expr.
func (l FloatLit) String() string { return fmt.Sprintf("%g", l.V) }

// Columns implements Expr.
func (l FloatLit) Columns(dst []string) []string { return dst }

// StrLit is a string literal.
type StrLit struct{ V string }

// String implements Expr, escaping embedded quotes SQL-style.
func (l StrLit) String() string {
	return "'" + strings.ReplaceAll(l.V, "'", "''") + "'"
}

// Columns implements Expr.
func (l StrLit) Columns(dst []string) []string { return dst }

// Param is a positional statement parameter ("?"); Idx is its 0-based
// position in the statement text. Parameters carry no value — they are
// slots a prepared statement substitutes typed literals into before the
// binder runs; evaluating one is an error.
type Param struct{ Idx int }

// String implements Expr.
func (p Param) String() string { return "?" }

// Columns implements Expr.
func (p Param) Columns(dst []string) []string { return dst }

// Bin is a binary expression.
type Bin struct {
	Op   Op
	L, R Expr
}

// String implements Expr.
func (b Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Columns implements Expr.
func (b Bin) Columns(dst []string) []string {
	return b.R.Columns(b.L.Columns(dst))
}

// resultKind is the evaluated type of an expression.
type resultKind uint8

const (
	rkBool resultKind = iota
	rkInt
	rkFloat
	rkString
)

// result is a vectorised evaluation result: one value per row, or — for a
// literal, and anything computed from literals alone — a scalar held as the
// single element of its slice, which the kernels read once instead of per
// row. Exactly one slice is populated; an rkInt straight off a uint32
// column keeps the column's own []uint32 rather than a widened copy.
type result struct {
	kind   resultKind
	scalar bool
	bools  []bool
	ints   []int64
	u32s   []uint32
	floats []float64
	strs   []string
}

// EvalPredicate evaluates e over rel and returns one bool per row. The
// expression must be boolean-typed.
func EvalPredicate(e Expr, rel *storage.Relation) ([]bool, error) {
	r, err := eval(e, rel)
	if err != nil {
		return nil, err
	}
	if r.kind != rkBool {
		return nil, fmt.Errorf("expr: %s is not a predicate", e)
	}
	if r.scalar {
		out := make([]bool, rel.NumRows())
		fill(out, r.bools[0])
		return out, nil
	}
	return r.bools, nil
}

// Selectivity runs the predicate and returns the selected row indexes. The
// returned slice is drawn from the storage buffer pool; callers that consume
// it immediately (e.g. via Gather) may release it with storage.PutInt32s.
func Selectivity(e Expr, rel *storage.Relation) ([]int32, error) {
	bools, err := EvalPredicate(e, rel)
	if err != nil {
		return nil, err
	}
	idx := storage.GetInt32s(len(bools))
	for i, b := range bools {
		if b {
			idx = append(idx, int32(i))
		}
	}
	return idx, nil
}

func eval(e Expr, rel *storage.Relation) (result, error) {
	switch e := e.(type) {
	case Col:
		return evalCol(e, rel)
	case IntLit:
		return result{kind: rkInt, scalar: true, ints: []int64{e.V}}, nil
	case FloatLit:
		return result{kind: rkFloat, scalar: true, floats: []float64{e.V}}, nil
	case StrLit:
		return result{kind: rkString, scalar: true, strs: []string{e.V}}, nil
	case Bin:
		return evalBin(e, rel)
	default:
		return result{}, fmt.Errorf("expr: unknown expression type %T", e)
	}
}

func evalCol(c Col, rel *storage.Relation) (result, error) {
	col, ok := rel.Column(c.Name)
	if !ok {
		return result{}, fmt.Errorf("expr: unknown column %q", c.Name)
	}
	switch col.Kind() {
	case storage.KindUint32:
		return result{kind: rkInt, u32s: col.Uint32s()}, nil
	case storage.KindUint64:
		out := make([]int64, col.Len())
		for i, v := range col.Uint64s() {
			out[i] = int64(v)
		}
		return result{kind: rkInt, ints: out}, nil
	case storage.KindInt64:
		return result{kind: rkInt, ints: col.Int64s()}, nil
	case storage.KindFloat64:
		return result{kind: rkFloat, floats: col.Float64s()}, nil
	case storage.KindString:
		out := make([]string, col.Len())
		d := col.Dict()
		for i, code := range col.Uint32s() {
			out[i] = d.Lookup(code)
		}
		return result{kind: rkString, strs: out}, nil
	default:
		return result{}, fmt.Errorf("expr: column %q has invalid kind", c.Name)
	}
}

func evalBin(b Bin, rel *storage.Relation) (result, error) {
	l, err := eval(b.L, rel)
	if err != nil {
		return result{}, err
	}
	r, err := eval(b.R, rel)
	if err != nil {
		return result{}, err
	}
	if b.Op.logical() {
		return evalLogical(b.Op, l, r)
	}

	// Promote int to float when mixed.
	if l.kind == rkInt && r.kind == rkFloat {
		l = toFloat(l)
	}
	if l.kind == rkFloat && r.kind == rkInt {
		r = toFloat(r)
	}
	if l.kind != r.kind {
		return result{}, fmt.Errorf("expr: type mismatch %s: %v vs %v", b.Op, l.kind, r.kind)
	}
	if b.Op.comparison() && l.kind == rkBool {
		return result{}, fmt.Errorf("expr: cannot compare booleans with %s", b.Op)
	}
	if !b.Op.comparison() && (l.kind == rkBool || l.kind == rkString) {
		return result{}, fmt.Errorf("expr: arithmetic %s on non-numeric operands", b.Op)
	}

	// A literal on the left moves to the right: comparisons mirror their
	// operator, arithmetic remembers the side for subtraction.
	op, litLeft := b.Op, l.scalar && !r.scalar
	if litLeft {
		l, r = r, l
		op = op.mirror()
	}
	if !r.scalar {
		l, r = widen(l), widen(r)
	}
	n := lenOf(l)

	if op.comparison() {
		out := make([]bool, n)
		switch {
		case l.kind == rkInt && !r.scalar:
			cmpSlice(out, op, l.ints, r.ints)
		case l.kind == rkInt && l.u32s != nil:
			cmpUint32(out, op, l.u32s, r.ints[0])
		case l.kind == rkInt:
			cmpScalar(out, op, l.ints, r.ints[0])
		case l.kind == rkFloat && !r.scalar:
			cmpSlice(out, op, l.floats, r.floats)
		case l.kind == rkFloat:
			cmpScalar(out, op, l.floats, r.floats[0])
		case !r.scalar:
			cmpSlice(out, op, l.strs, r.strs)
		default:
			cmpScalar(out, op, l.strs, r.strs[0])
		}
		return result{kind: rkBool, scalar: l.scalar, bools: out}, nil
	}

	// Arithmetic.
	if l.kind == rkFloat {
		out := make([]float64, n)
		if r.scalar {
			arithScalar(out, op, l.floats, r.floats[0], litLeft)
		} else {
			arith(out, op, l.floats, r.floats)
		}
		return result{kind: rkFloat, scalar: l.scalar, floats: out}, nil
	}
	out := make([]int64, n)
	switch {
	case !r.scalar:
		arith(out, op, l.ints, r.ints)
	case l.u32s != nil:
		arithScalar(out, op, l.u32s, r.ints[0], litLeft)
	default:
		arithScalar(out, op, l.ints, r.ints[0], litLeft)
	}
	return result{kind: rkInt, scalar: l.scalar, ints: out}, nil
}

// evalLogical combines two boolean operands. A scalar operand either decides
// every row (false for AND, true for OR) or leaves the other operand as is.
func evalLogical(op Op, l, r result) (result, error) {
	if l.kind != rkBool || r.kind != rkBool {
		return result{}, fmt.Errorf("expr: %s requires boolean operands", op)
	}
	if l.scalar {
		l, r = r, l
	}
	if r.scalar {
		if r.bools[0] != (op == OpOr) {
			return l, nil
		}
		out := make([]bool, len(l.bools))
		fill(out, r.bools[0])
		return result{kind: rkBool, scalar: l.scalar, bools: out}, nil
	}
	out := make([]bool, len(l.bools))
	if op == OpAnd {
		for i := range out {
			out[i] = l.bools[i] && r.bools[i]
		}
	} else {
		for i := range out {
			out[i] = l.bools[i] || r.bools[i]
		}
	}
	return result{kind: rkBool, bools: out}, nil
}

// mirror returns the comparison that holds with the operands swapped
// (a < b  iff  b > a); other operators are returned unchanged.
func (o Op) mirror() Op {
	switch o {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return o
	}
}

// widen replaces a uint32 column operand by its int64 values, for the
// column-against-column kernels.
func widen(r result) result {
	if r.u32s == nil {
		return r
	}
	out := make([]int64, len(r.u32s))
	for i, v := range r.u32s {
		out[i] = int64(v)
	}
	return result{kind: rkInt, ints: out}
}

func toFloat(r result) result {
	out := make([]float64, lenOf(r))
	if r.u32s != nil {
		for i, v := range r.u32s {
			out[i] = float64(v)
		}
	} else {
		for i, v := range r.ints {
			out[i] = float64(v)
		}
	}
	return result{kind: rkFloat, scalar: r.scalar, floats: out}
}

func lenOf(r result) int {
	switch {
	case r.kind == rkBool:
		return len(r.bools)
	case r.u32s != nil:
		return len(r.u32s)
	case r.kind == rkInt:
		return len(r.ints)
	case r.kind == rkFloat:
		return len(r.floats)
	default:
		return len(r.strs)
	}
}

func fill(out []bool, v bool) {
	for i := range out {
		out[i] = v
	}
}

// cmpUint32 compares a uint32 column against an integer literal without
// widening the column: a literal outside the uint32 range decides every row
// alike, and any other is compared in the column's own type.
func cmpUint32(out []bool, op Op, l []uint32, v int64) {
	switch {
	case v < 0:
		fill(out, op == OpNe || op == OpGt || op == OpGe)
	case v > math.MaxUint32:
		fill(out, op == OpNe || op == OpLt || op == OpLe)
	default:
		cmpScalar(out, op, l, uint32(v))
	}
}

func cmpScalar[T uint32 | int64 | float64 | string](out []bool, op Op, l []T, v T) {
	switch op {
	case OpEq:
		for i := range out {
			out[i] = l[i] == v
		}
	case OpNe:
		for i := range out {
			out[i] = l[i] != v
		}
	case OpLt:
		for i := range out {
			out[i] = l[i] < v
		}
	case OpLe:
		for i := range out {
			out[i] = l[i] <= v
		}
	case OpGt:
		for i := range out {
			out[i] = l[i] > v
		}
	case OpGe:
		for i := range out {
			out[i] = l[i] >= v
		}
	}
}

func cmpSlice[T int64 | float64 | string](out []bool, op Op, l, r []T) {
	switch op {
	case OpEq:
		for i := range out {
			out[i] = l[i] == r[i]
		}
	case OpNe:
		for i := range out {
			out[i] = l[i] != r[i]
		}
	case OpLt:
		for i := range out {
			out[i] = l[i] < r[i]
		}
	case OpLe:
		for i := range out {
			out[i] = l[i] <= r[i]
		}
	case OpGt:
		for i := range out {
			out[i] = l[i] > r[i]
		}
	case OpGe:
		for i := range out {
			out[i] = l[i] >= r[i]
		}
	}
}

// arithScalar applies op between each element of l (converted to the result
// type) and the literal v; litLeft puts the literal first, which only
// subtraction can tell apart.
func arithScalar[S uint32 | int64 | float64, T int64 | float64](out []T, op Op, l []S, v T, litLeft bool) {
	switch {
	case op == OpAdd:
		for i := range out {
			out[i] = T(l[i]) + v
		}
	case op == OpSub && litLeft:
		for i := range out {
			out[i] = v - T(l[i])
		}
	case op == OpSub:
		for i := range out {
			out[i] = T(l[i]) - v
		}
	case op == OpMul:
		for i := range out {
			out[i] = T(l[i]) * v
		}
	}
}

func arith[T int64 | float64](out []T, op Op, l, r []T) {
	switch op {
	case OpAdd:
		for i := range out {
			out[i] = l[i] + r[i]
		}
	case OpSub:
		for i := range out {
			out[i] = l[i] - r[i]
		}
	case OpMul:
		for i := range out {
			out[i] = l[i] * r[i]
		}
	}
}
