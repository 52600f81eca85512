package dqo

import (
	"context"
	"strings"
	"testing"

	"dqo/internal/core"
	"dqo/internal/exec"
	"dqo/internal/storage"
)

// compressedCorpusDB is corpusDB with every table re-encoded into compressed
// column segments. The logical contents are identical, so the full corpus
// must return byte-identical results — the decode-fallback guarantee that
// makes compression a pure cost dimension.
func compressedCorpusDB(t testing.TB) *DB {
	t.Helper()
	db := corpusDB(t)
	for _, name := range db.Tables() {
		if err := db.CompressTable(name); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// diffQuery compiles and runs one query through the morsel executor at an
// explicit (morsel, workers, beam) point, mirroring morselQuery plus the
// beam dimension.
func diffQuery(t *testing.T, db *DB, mode Mode, query string, morsel, workers, beam int) *storage.Relation {
	t.Helper()
	res, stmt, err := db.compile(mode, query, queryConfig{workers: workers, beam: beam}, nil)
	if err != nil {
		t.Fatalf("%s/%s: compile: %v", mode, query, err)
	}
	root, err := core.Compile(res.Best, nil)
	if err != nil {
		t.Fatalf("%s/%s: plan compile: %v", mode, query, err)
	}
	if stmt.Limit >= 0 {
		root = exec.NewLimit(root, stmt.Limit)
	}
	ec := exec.NewExecContext(context.Background(), morsel, workers)
	rel, err := exec.Run(ec, root)
	if err != nil {
		t.Fatalf("%s/%s/morsel=%d/workers=%d: run: %v", mode, query, morsel, workers, err)
	}
	out, err := applyAliases(rel, stmt)
	if err != nil {
		t.Fatalf("%s/%s: aliases: %v", mode, query, err)
	}
	return out
}

// TestCompressedDifferential is the acceptance differential for compressed
// execution: every corpus query must return a byte-identical relation from
// the compressed database and the plain one, for every mode (SQO, DQO,
// calibrated, greedy, and the beam-capped deep tier), across worker counts
// from serial to every core and morsel sizes from degenerate to
// whole-relation — morsel boundaries landing mid-run and mid-segment
// included. The plain serial result is the single reference; the bulk
// interpreter over compressed tables is differenced too.
func TestCompressedDifferential(t *testing.T) {
	plain := corpusDB(t)
	comp := compressedCorpusDB(t)

	// Sanity: compression must actually have kicked in, or the test is
	// vacuous.
	desc, err := comp.DescribeStorage("")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "bitpack") && !strings.Contains(desc, "rle") && !strings.Contains(desc, "for") {
		t.Fatalf("no table compressed; storage:\n%s", desc)
	}

	for _, query := range corpusQueries {
		for _, mode := range declaredModes {
			beams := []int{0}
			if mode == ModeDQOCalibrated {
				beams = []int{0, 4}
			}
			for _, beam := range beams {
				want := diffQuery(t, plain, mode, query, 1024, 1, beam)
				if bulk := bulkQuery(t, comp, mode, query, 1); !bulk.Equal(want) {
					t.Errorf("%s / %q / bulk: compressed diverges from plain\nplain:\n%s\ncompressed:\n%s",
						mode, query, want, bulk)
				}
				for _, workers := range workerCounts() {
					for _, morsel := range []int{1, 7, 1024} {
						got := diffQuery(t, comp, mode, query, morsel, workers, beam)
						if !got.Equal(want) {
							t.Errorf("%s / %q / beam=%d / morsel=%d / workers=%d: compressed diverges from plain\nplain:\n%s\ncompressed:\n%s",
								mode, query, beam, morsel, workers, want, got)
						}
					}
				}
			}
		}
	}
}

// planText renders the chosen physical plan without the timing header, so
// plans are comparable across runs.
func planText(t *testing.T, db *DB, mode Mode, query string) string {
	t.Helper()
	res, _, err := db.compile(mode, query, queryConfig{}, nil)
	if err != nil {
		t.Fatalf("%s/%s: %v", mode, query, err)
	}
	return res.Best.Explain()
}

// TestCompressedPlanChange is the headline acceptance check: compression is
// a plan property that changes which physical plan wins. Under the
// calibrated model, at least one corpus query's chosen plan must differ
// between the plain and compressed databases, with a direct-on-compressed
// granule (CompressedScan/CompressedFilter) in the winning plan — while
// under the paper's Table 2 model (exact cost ties, decoded granule
// enumerated first) plans must be unchanged.
func TestCompressedPlanChange(t *testing.T) {
	plain := corpusDB(t)
	comp := compressedCorpusDB(t)
	changed, sawKernel := 0, false
	for _, q := range corpusQueries {
		pp := planText(t, plain, ModeDQOCalibrated, q)
		cp := planText(t, comp, ModeDQOCalibrated, q)
		if strings.Contains(pp, "Compressed") {
			t.Fatalf("plain database chose a compressed granule for %q:\n%s", q, pp)
		}
		if strings.Contains(cp, "Compressed") {
			sawKernel = true
		}
		if pp != cp {
			changed++
		}
	}
	if !sawKernel {
		t.Fatal("no corpus query chose a compressed granule under the calibrated model")
	}
	if changed == 0 {
		t.Fatal("compression changed no plan under the calibrated model")
	}
	// Paper model: compressed granules are exact cost ties and the decoded
	// twin is enumerated first, so SQO and DQO plans are byte-identical.
	for _, mode := range []Mode{ModeSQO, ModeDQO} {
		for _, q := range corpusQueries {
			pp := planText(t, plain, mode, q)
			cp := planText(t, comp, mode, q)
			if pp != cp {
				t.Errorf("%s: compression changed the paper-model plan for %q\nplain:\n%s\ncompressed:\n%s",
					mode, q, pp, cp)
			}
		}
	}
}

// TestCompressedExplainAnalyze checks the observability satellite: EXPLAIN
// renders compressed scan/filter nodes with their encoding and zone-map
// census, and EXPLAIN ANALYZE lines its measured rows up against them.
func TestCompressedExplainAnalyze(t *testing.T) {
	comp := compressedCorpusDB(t)
	const q = "SELECT key, val FROM runs WHERE key = 5"
	out, err := comp.Explain(ModeDQOCalibrated, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CompressedFilter") {
		t.Fatalf("EXPLAIN shows no compressed filter granule:\n%s", out)
	}
	if !strings.Contains(out, "segs=") {
		t.Fatalf("compressed filter not annotated with its segment census:\n%s", out)
	}
	an, err := comp.Explain(ModeDQOCalibrated, q, ExplainAnalyze())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(an, "CompressedFilter") {
		t.Fatalf("EXPLAIN ANALYZE lost the compressed annotation:\n%s", an)
	}
}

// TestCompressedPlanCacheRebind checks that a cached compressed-filter
// template rebinds its encoded bounds and zone census from the new
// statement's literals: the second query must hit the cache and still
// return the rows its own literal selects, not the template's.
func TestCompressedPlanCacheRebind(t *testing.T) {
	db := compressedCorpusDB(t)
	db.EnablePlanCache(true)
	countKey := func(q string, key uint32) int {
		res, err := db.Query(context.Background(), ModeDQOCalibrated, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		keys, err := res.Uint32Column("runs.key")
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if k != key {
				t.Fatalf("%s: returned key %d", q, k)
			}
		}
		return len(keys)
	}
	n5 := countKey("SELECT key, val FROM runs WHERE key = 5", 5)
	hitsBefore, _ := db.PlanCacheStats()
	n2 := countKey("SELECT key, val FROM runs WHERE key = 2", 2)
	hitsAfter, _ := db.PlanCacheStats()
	if hitsAfter <= hitsBefore {
		t.Fatal("second query missed the plan cache; rebind untested")
	}
	if n5 == 0 || n2 == 0 || n5 == n2 {
		// The Zipf multiset makes every key's frequency distinct with
		// overwhelming likelihood; equal counts mean the rebound plan
		// replayed the old bounds.
		t.Fatalf("suspicious counts: key=5 -> %d rows, key=2 -> %d rows", n5, n2)
	}
}

// TestCompressDecompressRoundTrip checks the storage toggles through the
// public API: compress, query, decompress, query — identical results, and
// DescribeStorage reflects each state.
func TestCompressDecompressRoundTrip(t *testing.T) {
	db := corpusDB(t)
	want, err := db.Query(context.Background(), ModeDQOCalibrated, paperSQL+" ORDER BY R.A")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CompressTable("R"); err != nil {
		t.Fatal(err)
	}
	desc, err := db.DescribeStorage("R")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "bitpack") && !strings.Contains(desc, "rle") && !strings.Contains(desc, "for") {
		t.Fatalf("R not compressed:\n%s", desc)
	}
	got, err := db.Query(context.Background(), ModeDQOCalibrated, paperSQL+" ORDER BY R.A")
	if err != nil {
		t.Fatal(err)
	}
	if !got.rel.Equal(want.rel) {
		t.Fatalf("compressed query differs:\nplain:\n%s\ncompressed:\n%s", want.rel, got.rel)
	}
	if err := db.DecompressTable("R"); err != nil {
		t.Fatal(err)
	}
	desc, err = db.DescribeStorage("R")
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []string{"bitpack", "rle", "for"} {
		if strings.Contains(desc, enc) {
			t.Fatalf("R still %s after DecompressTable:\n%s", enc, desc)
		}
	}
	got, err = db.Query(context.Background(), ModeDQOCalibrated, paperSQL+" ORDER BY R.A")
	if err != nil {
		t.Fatal(err)
	}
	if !got.rel.Equal(want.rel) {
		t.Fatalf("decompressed query differs from original")
	}
	if _, err := db.DescribeStorage("nope"); err == nil {
		t.Fatal("DescribeStorage of unknown table did not error")
	}
	if err := db.CompressTable("nope"); err == nil {
		t.Fatal("CompressTable of unknown table did not error")
	}
}
