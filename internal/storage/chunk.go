package storage

import (
	"fmt"

	"dqo/internal/faultinject"
)

// This file supports the morsel-driven execution layer (internal/exec):
// zero-copy row-range views of relations, and re-assembly of a stream of
// such batches into one relation.

// Slice returns a relation viewing rows [lo, hi) of r without copying any
// column data. Declared order correlations carry over (a contiguous row
// subset of a correlated relation stays correlated). A full-range view
// shares each column's statistics; a narrower one computes its own lazily.
func (r *Relation) Slice(lo, hi int) *Relation {
	out := MustNewRelation(r.name, r.sliceCols(lo, hi)...)
	out.corrs = append([][2]string(nil), r.corrs...)
	return out
}

// sliceCols returns zero-copy views of rows [lo, hi) of every column.
func (r *Relation) sliceCols(lo, hi int) []*Column {
	cols := make([]*Column, len(r.cols))
	for i, c := range r.cols {
		cols[i] = c.Slice(lo, hi)
	}
	return cols
}

// Concat concatenates batches with identical schemas (column names and
// kinds, in order) into a single relation named after the first batch. A
// single-batch input is returned as-is, without copying, and so is a column
// whose batches are plain, in-order, back-to-back windows of one backing
// array (the morsels a scan cut from it): the result views that array.
// String columns sharing one dictionary keep it; batches with differing
// dictionaries are re-interned into a fresh one.
func Concat(parts []*Relation) (*Relation, error) {
	if err := faultinject.Fire(faultinject.PointStorageConcat); err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("storage: Concat of no batches")
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	first := parts[0]
	for _, p := range parts[1:] {
		if p.NumCols() != first.NumCols() {
			return nil, fmt.Errorf("storage: Concat: schema mismatch (%d vs %d columns)", p.NumCols(), first.NumCols())
		}
	}
	cols := make([]*Column, first.NumCols())
	parts_j := getColScratch(len(parts))
	defer putColScratch(parts_j)
	for j := range cols {
		for i, p := range parts {
			parts_j[i] = p.cols[j]
		}
		c, err := concatColumns(parts_j)
		if err != nil {
			return nil, err
		}
		cols[j] = c
	}
	return NewRelation(first.name, cols...)
}

// concatColumns concatenates same-name, same-kind columns in order.
func concatColumns(cols []*Column) (*Column, error) {
	first := cols[0]
	total := 0
	for _, c := range cols {
		if c.name != first.name || c.kind != first.kind {
			return nil, fmt.Errorf("storage: Concat: column mismatch (%s %q vs %s %q)",
				first.kind, first.name, c.kind, c.name)
		}
		total += c.Len()
	}
	if v, ok := adjacentView(cols); ok {
		return v, nil
	}
	switch first.kind {
	case KindUint32:
		out := make([]uint32, 0, total)
		for _, c := range cols {
			out = append(out, c.data32()...)
		}
		return &Column{name: first.name, kind: first.kind, u32: out, stats: new(statsCell)}, nil
	case KindUint64:
		out := make([]uint64, 0, total)
		for _, c := range cols {
			out = append(out, c.u64...)
		}
		return &Column{name: first.name, kind: first.kind, u64: out, stats: new(statsCell)}, nil
	case KindInt64:
		out := make([]int64, 0, total)
		for _, c := range cols {
			out = append(out, c.i64...)
		}
		return &Column{name: first.name, kind: first.kind, i64: out, stats: new(statsCell)}, nil
	case KindFloat64:
		out := make([]float64, 0, total)
		for _, c := range cols {
			out = append(out, c.f64...)
		}
		return &Column{name: first.name, kind: first.kind, f64: out, stats: new(statsCell)}, nil
	case KindString:
		shared := first.dict
		for _, c := range cols {
			if c.dict != shared {
				shared = nil
				break
			}
		}
		out := make([]uint32, 0, total)
		if shared != nil {
			for _, c := range cols {
				out = append(out, c.data32()...)
			}
			return &Column{name: first.name, kind: KindString, u32: out, dict: shared, stats: new(statsCell)}, nil
		}
		// Differing dictionaries: re-intern by decoded value.
		d := NewDict()
		for _, c := range cols {
			for _, code := range c.data32() {
				out = append(out, d.Intern(c.dict.Lookup(code)))
			}
		}
		return &Column{name: first.name, kind: KindString, u32: out, dict: d, stats: new(statsCell)}, nil
	default:
		return nil, fmt.Errorf("storage: Concat on invalid column %q", first.name)
	}
}

// adjacentView returns one column viewing the rows of cols when they are
// plain windows of a single backing array, each starting where the previous
// one ends. Encoded columns, differing dictionaries and windows that are not
// back to back report false and are copied instead.
func adjacentView(cols []*Column) (*Column, bool) {
	first := cols[0]
	for _, c := range cols {
		if c.enc != nil || c.dict != first.dict {
			return nil, false
		}
	}
	view := Column{name: first.name, kind: first.kind, dict: first.dict}
	ok := false
	switch first.kind {
	case KindUint32, KindString:
		view.u32, ok = joinWindows(cols, func(c *Column) []uint32 { return c.u32 })
	case KindUint64:
		view.u64, ok = joinWindows(cols, func(c *Column) []uint64 { return c.u64 })
	case KindInt64:
		view.i64, ok = joinWindows(cols, func(c *Column) []int64 { return c.i64 })
	case KindFloat64:
		view.f64, ok = joinWindows(cols, func(c *Column) []float64 { return c.f64 })
	}
	if !ok {
		return nil, false
	}
	out := view
	out.stats = new(statsCell)
	return &out, true
}

// joinWindows extends the first window over each following one when that
// one begins at the element just past it in the same backing array.
func joinWindows[T any](cols []*Column, data func(*Column) []T) ([]T, bool) {
	s := data(cols[0])
	for _, c := range cols[1:] {
		next := data(c)
		switch {
		case len(next) == 0:
		case len(s) == 0:
			s = next
		case cap(s) >= len(s)+len(next) && &s[:len(s)+1][len(s)] == &next[0]:
			s = s[:len(s)+len(next)]
		default:
			return nil, false
		}
	}
	return s[:len(s):len(s)], true
}

// elemBytes is the per-row storage footprint of a column kind; dictionary
// payloads are shared and therefore not attributed to views.
func elemBytes(k Kind) int64 {
	switch k {
	case KindUint32, KindString:
		return 4
	case KindUint64, KindInt64, KindFloat64:
		return 8
	default:
		return 0
	}
}

// MemBytes estimates the resident column-data bytes of the column. Encoded
// columns are charged their segments' encoded bytes — plus the decode
// buffer once the lazy fallback has materialised it — rather than the
// logical 4 bytes per row.
func (c *Column) MemBytes() int64 {
	if c.enc != nil {
		return c.enc.memBytes()
	}
	return int64(c.Len()) * elemBytes(c.kind)
}

// MemBytes estimates the resident column-data bytes of the relation, used
// by the executor's per-operator peak-allocation counters.
func (r *Relation) MemBytes() int64 {
	var total int64
	for _, c := range r.cols {
		total += c.MemBytes()
	}
	return total
}
