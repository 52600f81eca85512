package storage

import "testing"

func chunkTestRel(t *testing.T) *Relation {
	t.Helper()
	return MustNewRelation("t",
		NewUint32("k", []uint32{5, 3, 8, 1, 9, 2}),
		NewInt64("v", []int64{-1, 0, 7, 3, 2, 8}),
		NewFloat64("f", []float64{0.5, 1.5, 2.5, 3.5, 4.5, 5.5}),
		NewString("s", []string{"a", "b", "a", "c", "b", "a"}),
	)
}

func TestRelationSlice(t *testing.T) {
	r := chunkTestRel(t)
	r.DeclareCorr("k", "v")
	s := r.Slice(2, 5)
	if s.NumRows() != 3 || s.NumCols() != 4 {
		t.Fatalf("slice shape %dx%d", s.NumRows(), s.NumCols())
	}
	if got := s.MustColumn("k").Uint32s(); got[0] != 8 || got[2] != 9 {
		t.Fatalf("slice rows wrong: %v", got)
	}
	if s.Row(0)[3].S != "a" {
		t.Fatalf("string slice lost dictionary: %v", s.Row(0))
	}
	if len(s.Corrs()) != 1 {
		t.Fatal("slice dropped declared correlations")
	}
	if empty := r.Slice(0, 0); empty.NumRows() != 0 || empty.NumCols() != 4 {
		t.Fatal("empty slice lost schema")
	}
}

func TestConcatRoundTrip(t *testing.T) {
	r := chunkTestRel(t)
	parts := []*Relation{r.Slice(0, 2), r.Slice(2, 3), r.Slice(3, 6)}
	got, err := Concat(parts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) || got.Name() != "t" {
		t.Fatalf("concat of slices differs from original:\n%s", got)
	}
}

func TestConcatSinglePartIsIdentity(t *testing.T) {
	r := chunkTestRel(t)
	got, err := Concat([]*Relation{r})
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatal("single-part concat copied")
	}
	if _, err := Concat(nil); err == nil {
		t.Fatal("empty concat accepted")
	}
}

func TestConcatMergesForeignDictionaries(t *testing.T) {
	a := MustNewRelation("x", NewString("s", []string{"red", "blue"}))
	b := MustNewRelation("x", NewString("s", []string{"blue", "green"}))
	got, err := Concat([]*Relation{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"red", "blue", "blue", "green"}
	for i, w := range want {
		if got.Row(i)[0].S != w {
			t.Fatalf("row %d = %q, want %q", i, got.Row(i)[0].S, w)
		}
	}
}

func TestConcatRejectsSchemaMismatch(t *testing.T) {
	a := MustNewRelation("x", NewUint32("k", []uint32{1}))
	b := MustNewRelation("x", NewInt64("k", []int64{1}))
	if _, err := Concat([]*Relation{a, b}); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	c := MustNewRelation("x", NewUint32("other", []uint32{1}))
	if _, err := Concat([]*Relation{a, c}); err == nil {
		t.Fatal("name mismatch accepted")
	}
}

func TestMemBytes(t *testing.T) {
	r := chunkTestRel(t)
	// 6 rows × (4 + 8 + 8 + 4) bytes.
	if got := r.MemBytes(); got != 6*24 {
		t.Fatalf("MemBytes = %d, want %d", got, 6*24)
	}
}

func TestConcatAdjacentWindowsIsZeroCopy(t *testing.T) {
	r := chunkTestRel(t)
	parts := []*Relation{r.Slice(0, 2), r.Slice(2, 2), r.Slice(2, 3), r.Slice(3, 6)}
	got, err := Concat(parts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Fatalf("zero-copy concat differs from original:\n%s", got)
	}
	for _, name := range []string{"k", "s"} {
		if &got.MustColumn(name).Uint32s()[0] != &r.MustColumn(name).Uint32s()[0] {
			t.Errorf("%s: back-to-back windows were copied", name)
		}
	}
	if &got.MustColumn("v").Int64s()[0] != &r.MustColumn("v").Int64s()[0] ||
		&got.MustColumn("f").Float64s()[0] != &r.MustColumn("f").Float64s()[0] {
		t.Error("back-to-back 8-byte windows were copied")
	}
	// The view must not let an append reach past its last row.
	k := got.MustColumn("k").Uint32s()
	if cap(k) != len(k) {
		t.Fatalf("view cap %d exceeds its %d rows", cap(k), len(k))
	}
}

func TestConcatCopiesWhenNotAdjacent(t *testing.T) {
	r := chunkTestRel(t)
	cases := map[string][]*Relation{
		"gap":          {r.Slice(0, 2), r.Slice(3, 6)},
		"out of order": {r.Slice(3, 6), r.Slice(0, 3)},
		"overlap":      {r.Slice(0, 3), r.Slice(2, 4)},
		"two arrays":   {r.Slice(0, 3), chunkTestRel(t).Slice(3, 6)},
	}
	for name, parts := range cases {
		got, err := Concat(parts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := 0
		for _, p := range parts {
			want += p.NumRows()
		}
		if got.NumRows() != want {
			t.Fatalf("%s: %d rows, want %d", name, got.NumRows(), want)
		}
		k := got.MustColumn("k").Uint32s()
		if &k[0] == &r.MustColumn("k").Uint32s()[0] {
			t.Errorf("%s: concat aliased the source array", name)
		}
		i := 0
		for _, p := range parts {
			for _, v := range p.MustColumn("k").Uint32s() {
				if k[i] != v {
					t.Fatalf("%s: row %d = %d, want %d", name, i, k[i], v)
				}
				i++
			}
		}
	}
}

func TestConcatCopiesEncodedAndForeignDictWindows(t *testing.T) {
	vals := make([]uint32, 3*DefaultSegmentRows)
	for i := range vals {
		vals[i] = uint32(i / 100) // long runs: encodes
	}
	enc := CompressColumn(NewUint32("k", vals), EncNone)
	if enc.Encoding() == EncNone {
		t.Fatal("test column did not encode")
	}
	n := len(vals)
	got, err := Concat([]*Relation{
		MustNewRelation("t", enc.Slice(0, n/2)), MustNewRelation("t", enc.Slice(n/2, n)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := got.MustColumn("k"); c.Encoding() != EncNone || !c.Equal(NewUint32("k", vals)) {
		t.Fatal("encoded windows did not concatenate into a plain copy")
	}

	// Windows of one code array under two dictionaries are not one view.
	codes := []uint32{0, 1, 0, 1}
	d1, d2 := NewDict(), NewDict()
	for _, s := range []string{"x", "y"} {
		d1.Intern(s)
	}
	for _, s := range []string{"y", "x"} {
		d2.Intern(s)
	}
	got, err = Concat([]*Relation{
		MustNewRelation("t", NewStringCodes("s", codes, d1).Slice(0, 2)),
		MustNewRelation("t", NewStringCodes("s", codes, d2).Slice(2, 4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"x", "y", "y", "x"}
	for i, w := range want {
		if s := got.Row(i)[0].S; s != w {
			t.Fatalf("row %d = %q, want %q", i, s, w)
		}
	}
}

func TestGatherRunIsZeroCopyView(t *testing.T) {
	r := chunkTestRel(t)
	r.DeclareCorr("k", "v")
	for _, workers := range []int{1, 4} {
		got := r.GatherPar([]int32{2, 3, 4}, workers)
		if !got.Equal(r.Slice(2, 5)) {
			t.Fatalf("workers=%d: run gather differs from the rows:\n%s", workers, got)
		}
		if &got.MustColumn("v").Int64s()[0] != &r.MustColumn("v").Int64s()[2] {
			t.Fatalf("workers=%d: a consecutive run was copied", workers)
		}
		if len(got.Corrs()) != 0 {
			t.Fatalf("workers=%d: gather carried correlations over", workers)
		}
	}
	for _, idx := range [][]int32{{2, 4}, {3, 2}, {1, 1}, {}} {
		got := r.Gather(idx)
		if got.NumRows() != len(idx) {
			t.Fatalf("%v: %d rows", idx, got.NumRows())
		}
		if len(idx) > 0 && &got.MustColumn("k").Uint32s()[0] == &r.MustColumn("k").Uint32s()[idx[0]] {
			t.Fatalf("%v: not a run, but the gather aliases the source", idx)
		}
		for i, j := range idx {
			if got.MustColumn("k").Uint32s()[i] != r.MustColumn("k").Uint32s()[j] {
				t.Fatalf("%v: row %d wrong", idx, i)
			}
		}
	}
}
