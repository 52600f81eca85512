package dqo

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dqo/internal/core"
	"dqo/internal/physical"
)

// groupDB builds a DB with one table whose grouping key is half-distinct:
// large enough that plan footprints dwarf fixed overheads, distinct enough
// that hash aggregation's table dominates the footprint.
func groupDB(t testing.TB, n int) *DB {
	t.Helper()
	keys := make([]uint32, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = uint32((i * 2654435761) % (n / 2))
		vals[i] = int64(i)
	}
	tab := NewTableBuilder("T").Uint32("KEY", keys).Int64("VAL", vals).MustBuild()
	db := Open()
	if err := db.Register(tab); err != nil {
		t.Fatal(err)
	}
	return db
}

const groupSQL = "SELECT T.KEY, COUNT(*) FROM T GROUP BY T.KEY"

// TestMemoryLimitTyped starves a query far below any plan's footprint: it
// must fail with the typed budget error — never allocate past the limit —
// and still return a partial Result carrying the plan and profile.
func TestMemoryLimitTyped(t *testing.T) {
	db := groupDB(t, 30000)
	res, err := db.Query(context.Background(), ModeDQO, groupSQL,
		WithMemoryLimit(4096))
	if !errors.Is(err, ErrMemoryBudgetExceeded) {
		t.Fatalf("err = %v, want ErrMemoryBudgetExceeded", err)
	}
	if res == nil {
		t.Fatal("failed query returned no partial result")
	}
	if res.Err() == nil || !errors.Is(res.Err(), ErrMemoryBudgetExceeded) {
		t.Fatalf("partial result Err() = %v", res.Err())
	}
	if res.NumRows() != 0 || res.Columns() != nil {
		t.Fatalf("partial result leaked data: %d rows, cols %v", res.NumRows(), res.Columns())
	}
	if len(res.Stats()) == 0 {
		t.Fatal("partial result carries no execution profile")
	}
	if _, cerr := res.Int64Column("count_star"); cerr == nil {
		t.Fatal("column accessor on failed result did not error")
	}
	if !strings.Contains(res.String(), "query failed") {
		t.Fatalf("String() on failed result: %q", res.String())
	}
}

// TestTimeoutTyped bounds a query with a deadline it cannot meet.
func TestTimeoutTyped(t *testing.T) {
	db := groupDB(t, 100000)
	res, err := db.Query(context.Background(), ModeDQO, groupSQL,
		WithTimeout(50*time.Microsecond))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("underlying deadline cause lost: %v", err)
	}
	// Whether the deadline fired before or during execution, any partial
	// result must carry the same typed error.
	if res != nil && !errors.Is(res.Err(), ErrTimeout) {
		t.Fatalf("partial result Err() = %v", res.Err())
	}
}

// TestCancelledTyped checks a pre-cancelled context surfaces as the typed
// cancellation error with the context sentinel still reachable.
func TestCancelledTyped(t *testing.T) {
	db := groupDB(t, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.Query(ctx, ModeDQO, groupSQL)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
}

// TestAdmissionGate exercises the DB-level concurrent-query gate: with the
// single slot occupied and no queue, a query is rejected with the typed
// error; with a queue it waits for the slot instead.
func TestAdmissionGate(t *testing.T) {
	db := groupDB(t, 1000)
	db.SetAdmission(1, 0)
	release, err := db.gate().Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, qerr := db.Query(context.Background(), ModeDQO, groupSQL); !errors.Is(qerr, ErrQueueFull) {
		release()
		t.Fatalf("err = %v, want ErrQueueFull", qerr)
	}
	release()
	if _, qerr := db.Query(context.Background(), ModeDQO, groupSQL); qerr != nil {
		t.Fatalf("query after release failed: %v", qerr)
	}

	// With a queue position, the second query waits for the slot.
	db.SetAdmission(1, 1)
	release, err = db.gate().Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, qerr := db.Query(context.Background(), ModeDQO, groupSQL)
		done <- qerr
	}()
	select {
	case qerr := <-done:
		release()
		t.Fatalf("queued query did not wait: %v", qerr)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if qerr := <-done; qerr != nil {
		t.Fatalf("queued query failed after slot freed: %v", qerr)
	}
}

// groupKind walks a plan for its top grouping operator's algorithm.
func groupKind(p *core.Plan) (physical.GroupKind, bool) {
	if p.Op == core.OpGroup {
		return p.Group.Kind, true
	}
	for _, c := range p.Children {
		if k, ok := groupKind(c); ok {
			return k, true
		}
	}
	return 0, false
}

// TestBudgetSwitchesPlan pins the acceptance criterion: a budget just below
// the unconstrained plan's footprint makes the optimiser pick a different
// grouping algorithm, and the degraded plan still computes the same result.
func TestBudgetSwitchesPlan(t *testing.T) {
	db := groupDB(t, 30000)
	q := groupSQL + " ORDER BY T.KEY"

	free, _, err := db.compile(ModeDQO, q, queryConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	freeKind, ok := groupKind(free.Best)
	if !ok {
		t.Fatal("unconstrained plan has no grouping operator")
	}

	limit := int64(free.Best.Mem) - 1
	tight, _, err := db.compile(ModeDQO, q, queryConfig{memLimit: limit}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tightKind, ok := groupKind(tight.Best)
	if !ok || tightKind == freeKind {
		t.Fatalf("budget %d did not move the plan off %v", limit, freeKind)
	}

	want, err := db.Query(context.Background(), ModeDQO, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Query(context.Background(), ModeDQO, q,
		WithMemoryLimit(limit))
	if err != nil {
		t.Fatalf("degraded plan failed: %v", err)
	}
	if want.String() != got.String() {
		t.Fatal("degraded plan computes a different result")
	}
}

// TestNoBudgetPlanIdentity pins the other half of the criterion: without a
// budget the governance machinery must not perturb planning or results.
func TestNoBudgetPlanIdentity(t *testing.T) {
	db := groupDB(t, 10000)
	q := groupSQL + " ORDER BY T.KEY"
	plain, err := db.Query(context.Background(), ModeDQO, q)
	if err != nil {
		t.Fatal(err)
	}
	opted, err := db.Query(context.Background(), ModeDQO, q, WithMemoryLimit(0))
	if err != nil {
		t.Fatal(err)
	}
	if plain.PlanExplain() != opted.PlanExplain() {
		t.Fatal("MemoryLimit=0 changed the chosen plan")
	}
	if plain.String() != opted.String() {
		t.Fatal("MemoryLimit=0 changed the result")
	}
}

// TestConcurrentFirstQueries registers fresh tables and lets several
// goroutines run their first queries on them at once, across every
// planning mode: statistics are read concurrently through each query's own
// binder views (run with -race), and every answer matches the data.
func TestConcurrentFirstQueries(t *testing.T) {
	const workers, n = 8, 4000
	modes := []Mode{ModeSQO, ModeDQO, ModeDQOCalibrated, ModeGreedy}
	db := Open()
	for round := 0; round < 3; round++ {
		ids, as := make([]uint32, n), make([]uint32, n)
		rids := make([]uint32, 3*n)
		for i := range ids {
			ids[i] = uint32(i)
			as[i] = uint32((i*7 + round) % 50)
		}
		for i := range rids {
			rids[i] = uint32((i*13 + round) % n)
		}
		wantJoin := 0
		for _, r := range rids {
			if as[r] < 10 {
				wantJoin++
			}
		}
		if err := db.Register(NewTableBuilder("R").Uint32("ID", ids).Uint32("A", as).MustBuild()); err != nil {
			t.Fatal(err)
		}
		if err := db.Register(NewTableBuilder("S").Uint32("R_ID", rids).MustBuild()); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		errc := make(chan error, workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				<-start
				mode := modes[w%len(modes)]
				q := "SELECT R.A, S.R_ID FROM R JOIN S ON R.ID = S.R_ID WHERE R.A < 10"
				want := wantJoin
				if w%2 == 1 {
					q, want = "SELECT R.ID FROM R WHERE R.A = 3", n/50
				}
				res, err := db.Query(context.Background(), mode, q)
				if err == nil && res.NumRows() != want {
					err = fmt.Errorf("%d rows, want %d", res.NumRows(), want)
				}
				if err != nil {
					err = fmt.Errorf("round %d worker %d (%s): %w", round, w, mode, err)
				}
				errc <- err
			}(w)
		}
		close(start)
		for w := 0; w < workers; w++ {
			if err := <-errc; err != nil {
				t.Error(err)
			}
		}
	}
}
