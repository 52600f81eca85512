package dqo

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"dqo/internal/core"
	"dqo/internal/cost"
	"dqo/internal/datagen"
	"dqo/internal/exec"
	"dqo/internal/physio"
	"dqo/internal/sql"
	"dqo/internal/storage"
)

// corpusDB assembles every table the dqo_test.go corpus queries touch into
// one database: the paper's R/S pair, a builder table, a string-keyed
// table, and a CSV import, plus the AV kinds the planner can exploit.
func corpusDB(t testing.TB) *DB {
	t.Helper()
	db := testDB(t, false, false, true)
	tab := NewTableBuilder("t").
		Uint32("k", []uint32{2, 1, 2}).
		Int64("v", []int64{10, 20, 30}).
		MustBuild()
	if err := db.Register(tab); err != nil {
		t.Fatal(err)
	}
	orders := NewTableBuilder("orders").
		String("city", []string{"ber", "par", "ber", "rom", "par", "ber"}).
		Int64("amount", []int64{10, 20, 30, 40, 50, 60}).
		MustBuild()
	if err := db.Register(orders); err != nil {
		t.Fatal(err)
	}
	people, err := LoadCSV("people", strings.NewReader("id,name,score\n1,ada,9.5\n2,bob,7.25\n3,cyd,8.0\n"), []CSVColumn{
		{"id", Uint32Col}, {"name", StringCol}, {"score", Float64Col},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(people); err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeAV(AVSPH, "R", "ID"); err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeAV(AVHashIndex, "S", "R_ID"); err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeAV(AVCracked, "R", "A"); err != nil {
		t.Fatal(err)
	}
	// A clustered low-cardinality table: long equal-value runs spanning
	// multiple segments, so the compressed twin of the corpus exercises the
	// RLE run-aware kernels and zone-map segment skipping (and morsel
	// boundaries land mid-run).
	runs := datagen.CompressRelation("runs", 7, 10_000, 8, 1.2, true)
	if err := db.Register(&Table{rel: runs}); err != nil {
		t.Fatal(err)
	}
	return db
}

// corpusQueries is the query corpus from dqo_test.go: joins, groupings,
// sorts, filters, limits, string keys, floats, and AV-answered plans.
var corpusQueries = []string{
	paperSQL,
	paperSQL + " ORDER BY R.A",
	"SELECT ID, A FROM R WHERE A < 10 ORDER BY ID LIMIT 7",
	"SELECT ID FROM R LIMIT 5",
	"SELECT ID FROM R ORDER BY ID LIMIT 2",
	"SELECT k, SUM(v) AS total FROM t GROUP BY k ORDER BY k",
	"SELECT city, SUM(amount) AS total FROM orders GROUP BY city",
	"SELECT name, score FROM people WHERE id = 2",
	"SELECT A, COUNT(*) FROM R WHERE A >= 10 AND A < 30 GROUP BY A ORDER BY A",
	"SELECT R_ID, M FROM S WHERE R_ID < 100 ORDER BY R_ID",
	"SELECT key, SUM(val) AS s FROM runs WHERE key < 3 GROUP BY key ORDER BY key",
	"SELECT key, val FROM runs WHERE key = 5",
}

// bulkQuery runs a query through the retained pre-morsel interpreter
// (core.ExecuteBulk) with the facade's old LIMIT truncation semantics.
// workers is the DOP offered to the optimiser (1 = serial plans only).
func bulkQuery(t *testing.T, db *DB, mode Mode, query string, workers int) *storage.Relation {
	t.Helper()
	res, stmt, err := db.compile(mode, query, queryConfig{workers: workers}, nil)
	if err != nil {
		t.Fatalf("%s/%s: compile: %v", mode, query, err)
	}
	rel, err := core.ExecuteBulk(res.Best)
	if err != nil {
		t.Fatalf("%s/%s: bulk execute: %v", mode, query, err)
	}
	if stmt.Limit >= 0 && rel.NumRows() > stmt.Limit {
		rel = rel.Slice(0, stmt.Limit)
	}
	out, err := applyAliases(rel, stmt)
	if err != nil {
		t.Fatalf("%s/%s: aliases: %v", mode, query, err)
	}
	return out
}

// morselQuery runs the same query through the morsel executor at an
// explicit morsel size and worker-pool size (the optimiser also plans at
// that DOP, matching Query with WithWorkers/WithMorselSize).
func morselQuery(t *testing.T, db *DB, mode Mode, query string, morsel, workers int) *storage.Relation {
	t.Helper()
	res, stmt, err := db.compile(mode, query, queryConfig{workers: workers}, nil)
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

// workerCounts is the DOP sweep used by the differentials: serial, two
// workers, and every core.
func workerCounts() []int {
	out := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		out = append(out, n)
	}
	return out
}

// TestMorselDifferential checks that every corpus query returns an
// identical relation through the old bulk interpreter and the morsel
// executor, for every mode, across morsel sizes from degenerate (1 row) to
// whole-relation and worker counts from serial to every core. The serial
// bulk interpreter is the single reference: parallelism must never change
// a result, only its latency.
func TestMorselDifferential(t *testing.T) {
	db := corpusDB(t)
	morselSizes := []int{1, 7, 1024, 1 << 30}
	for _, query := range corpusQueries {
		for _, mode := range declaredModes {
			want := bulkQuery(t, db, mode, query, 1)
			for _, workers := range workerCounts() {
				for _, morsel := range morselSizes {
					got := morselQuery(t, db, mode, query, morsel, workers)
					if !got.Equal(want) {
						t.Errorf("%s / %q / morsel=%d / workers=%d: relations differ\nbulk:\n%s\nmorsel:\n%s",
							mode, query, morsel, workers, want, got)
					}
				}
			}
		}
	}
}

// forcedParallelMode returns a deep optimisation mode whose cost model makes
// parallel variants strictly cheaper than serial ones (no fixed fork/merge
// overhead), so even the tiny differential corpus plans parallel granules.
func forcedParallelMode(dop int) core.Mode {
	m := cost.NewCalibrated()
	m.ParallelFixedNS = 0
	return core.Mode{
		Name: "forced-parallel", Depth: physio.Deep,
		TrackDensity: true, TrackProbeOrder: true,
		DOP: dop, Model: m,
	}
}

// parallelNodes counts plan nodes carrying a parallel granule choice.
func parallelNodes(p *core.Plan) int {
	n := 0
	if p.DOP > 1 {
		n++
	}
	for _, c := range p.Children {
		n += parallelNodes(c)
	}
	return n
}

// TestParallelPlanDifferential forces parallel plans over the full corpus
// and checks byte-identical results against the serial reference at every
// (workers, morsel) combination — the acceptance criterion that makes DOP a
// pure cost dimension. The corpus is tiny, so the calibrated model would
// never naturally parallelise it; the forced mode removes the fixed
// overhead so parallel granules win wherever they are enumerated.
func TestParallelPlanDifferential(t *testing.T) {
	db := corpusDB(t)
	sawParallel := 0
	for _, query := range corpusQueries {
		stmt, err := sql.Parse(query)
		if err != nil {
			t.Fatal(err)
		}
		node, err := sql.Bind(stmt, catalogView{db})
		if err != nil {
			t.Fatal(err)
		}
		serial, err := core.Optimize(node, forcedParallelMode(1))
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.ExecuteBulk(serial.Best)
		if err != nil {
			t.Fatal(err)
		}
		if stmt.Limit >= 0 && want.NumRows() > stmt.Limit {
			want = want.Slice(0, stmt.Limit)
		}
		for _, workers := range []int{2, runtime.NumCPU()} {
			res, err := core.Optimize(node, forcedParallelMode(workers))
			if err != nil {
				t.Fatal(err)
			}
			sawParallel += parallelNodes(res.Best)
			for _, morsel := range []int{1, 7, 1024} {
				root, err := core.Compile(res.Best, nil)
				if err != nil {
					t.Fatal(err)
				}
				if stmt.Limit >= 0 {
					root = exec.NewLimit(root, stmt.Limit)
				}
				ec := exec.NewExecContext(context.Background(), morsel, workers)
				got, err := exec.Run(ec, root)
				if err != nil {
					t.Fatalf("%q workers=%d morsel=%d: %v", query, workers, morsel, err)
				}
				if !got.Equal(want) {
					t.Errorf("%q workers=%d morsel=%d: parallel plan diverges from serial\nserial:\n%s\nparallel:\n%s",
						query, workers, morsel, want, got)
				}
			}
		}
	}
	if sawParallel == 0 {
		t.Fatal("forced-parallel mode never produced a parallel plan node; differential is vacuous")
	}
}

// bigSeqDB registers a table large enough that the calibrated model picks a
// parallel filter pipe through the public facade.
func bigSeqDB(t testing.TB, n int) *DB {
	t.Helper()
	ids := make([]uint32, n)
	vals := make([]int64, n)
	for i := range ids {
		ids[i] = uint32(i)
		vals[i] = int64(i % 97)
	}
	db := Open()
	tab := NewTableBuilder("big").Uint32("id", ids).Int64("v", vals).MustBuild()
	if err := db.Register(tab); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestLimitUnderParallelPipeline is the LIMIT regression through the full
// query path: an early-exit LIMIT over a parallel filter pipe must return
// the exact order-preserved prefix the serial plan returns, at degenerate
// and regular morsel sizes, and must cancel the in-flight sibling morsels
// rather than scanning the table to the end.
func TestLimitUnderParallelPipeline(t *testing.T) {
	const n = 200_000
	db := bigSeqDB(t, n)
	query := "SELECT id FROM big WHERE v >= 0 LIMIT 10"
	for _, morsel := range []int{1, 7, 1024} {
		for _, workers := range []int{2, 8} {
			res, err := db.Query(context.Background(), ModeDQOCalibrated, query,
				WithWorkers(workers), WithMorselSize(morsel))
			if err != nil {
				t.Fatalf("morsel=%d workers=%d: %v", morsel, workers, err)
			}
			ids, err := res.Uint32Column("big.id")
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 10 {
				t.Fatalf("morsel=%d workers=%d: %d rows, want 10", morsel, workers, len(ids))
			}
			for i, id := range ids {
				if id != uint32(i) {
					t.Fatalf("morsel=%d workers=%d: row %d = id %d; prefix not order-preserved", morsel, workers, i, id)
				}
			}
			// Early exit: the scan must have stopped within the pipe's
			// claim window of the limit, nowhere near all n rows.
			for _, s := range res.Stats() {
				if strings.HasPrefix(s.Label, "Scan") && s.RowsOut > int64(n/2) {
					t.Fatalf("morsel=%d workers=%d: scanned %d of %d rows after LIMIT 10:\n%s",
						morsel, workers, s.RowsOut, n, res.StatsString())
				}
			}
		}
	}
}

// TestParallelQueryCancellation cancels a parallel query mid-flight and
// checks the workers unwind without leaking goroutines.
func TestParallelQueryCancellation(t *testing.T) {
	db := bigSeqDB(t, 500_000)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Microsecond)
		_, err := db.Query(ctx, ModeDQOCalibrated,
			"SELECT v, COUNT(*) FROM big WHERE v >= 1 GROUP BY v",
			WithWorkers(8), WithMorselSize(512))
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: got %v, want nil or deadline/cancel", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked under parallel cancellation: %d -> %d", before, g)
	}
}

func TestQueryContextCancellation(t *testing.T) {
	db := corpusDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Query(ctx, ModeDQO, paperSQL); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// A live context behaves exactly like a background one.
	res, err := db.Query(context.Background(), ModeDQO, paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 100 {
		t.Fatalf("%d rows", res.NumRows())
	}
}

// TestStatsCoverFigure5Plan is the acceptance check for the execution
// profile: every operator in the paper's Figure 5 query plan must report
// rows produced and nonzero wall time.
func TestStatsCoverFigure5Plan(t *testing.T) {
	db := testDB(t, false, false, true)
	res, err := db.Query(context.Background(), ModeDQO, paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Stats()
	if len(stats) < 4 {
		t.Fatalf("profile has %d operators, want scan+scan+join+group at least:\n%s", len(stats), res.StatsString())
	}
	if stats[0].Depth != 0 {
		t.Fatalf("profile not in pre-order: %+v", stats[0])
	}
	for _, s := range stats {
		if s.RowsOut == 0 {
			t.Errorf("operator %q reports zero rows out", s.Label)
		}
		if s.Wall == 0 {
			t.Errorf("operator %q reports zero wall time", s.Label)
		}
		if s.Batches == 0 {
			t.Errorf("operator %q reports zero batches", s.Label)
		}
		if s.Self < 0 || s.Self > s.Wall {
			t.Errorf("operator %q: self %v outside [0, wall=%v]", s.Label, s.Self, s.Wall)
		}
	}
	text := res.StatsString()
	for _, want := range []string{"operator", "rows_out", "wall"} {
		if !strings.Contains(text, want) {
			t.Fatalf("StatsString missing %q:\n%s", want, text)
		}
	}
}

func TestQueryContextTimeout(t *testing.T) {
	db := testDB(t, false, false, true)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass
	if _, err := db.Query(ctx, ModeDQO, paperSQL); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}
