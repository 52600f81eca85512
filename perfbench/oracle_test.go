package main

import (
	"context"
	"fmt"
	"testing"

	"dqo"
	"dqo/internal/datagen"
)

// tinyPair registers a small quadrant pair and builds its oracle.
func tinyPair(t *testing.T, db *dqo.DB, q datagen.Quadrant) *pair {
	t.Helper()
	tag := fmt.Sprintf("%v%v", q.Sorted, q.Dense)
	p := genPair(7, "R"+tag, "S"+tag, datagen.FKConfig{RRows: 300, SRows: 1400, AGroups: 30,
		RSorted: q.Sorted, SSorted: q.Sorted, Dense: q.Dense})
	if _, err := p.register(db); err != nil {
		t.Fatal(err)
	}
	p.buildOracle()
	return p
}

// TestOracleMatchesEngine runs every query shape of the benchmark on a tiny
// seed in every quadrant and mode, and checks the engine's result against
// the oracle.
func TestOracleMatchesEngine(t *testing.T) {
	db := newDB()
	ctx := context.Background()
	for _, q := range datagen.Quadrants() {
		p := tinyPair(t, db, q)
		dom := distinct(p.a)
		lo, hi := dom[3], dom[9]
		demo := map[string]struct {
			sql  string
			want digest
		}{
			"point": {fmt.Sprintf("SELECT ID, A FROM %s WHERE ID = %d", p.r, p.id[17]), p.oracle.point(p, p.id[17])},
			"range": {fmt.Sprintf("SELECT ID, A FROM %s WHERE A >= %d AND A < %d", p.r, lo, hi),
				p.oracle.rByA.between(uint64(lo), uint64(hi))},
			"sjoin": {fmt.Sprintf("SELECT %[1]s.A, COUNT(*), SUM(%[2]s.M) FROM %[1]s JOIN %[2]s ON %[1]s.ID = %[2]s.R_ID WHERE %[1]s.A >= %[3]d AND %[1]s.A < %[4]d GROUP BY %[1]s.A",
				p.r, p.s, lo, hi), p.oracle.joinAM.between(uint64(lo), uint64(hi))},
		}
		for _, sh := range analyticShapes {
			var args []any
			if sh.name == "sjoin" {
				args = []any{int64(dom[12])}
			}
			stmt, err := db.Prepare(dqo.ModeDQOCalibrated, fmt.Sprintf(sh.sql, p.r, p.s))
			if err != nil {
				t.Fatal(err)
			}
			res, err := stmt.QueryWith(ctx, args, dqo.WithWorkers(dop))
			if err != nil {
				t.Fatal(err)
			}
			rq := request{ordered: sh.ordered, expect: shapeWant(p, sh.name, args)()}
			if err := verifyLocal(&rq, res, &sample{}); err != nil {
				t.Errorf("%s %s: %v", q, sh.name, err)
			}
		}
		for name, c := range demo {
			for _, mode := range []dqo.Mode{dqo.ModeGreedy, dqo.ModeDQOCalibrated} {
				res, err := db.Query(ctx, mode, c.sql, dqo.WithWorkers(dop))
				if err != nil {
					t.Fatal(err)
				}
				rq := request{expect: c.want}
				if err := verifyLocal(&rq, res, &sample{}); err != nil {
					t.Errorf("%s %s %s: %v", q, name, mode, err)
				}
				if c.want.Rows == 0 {
					t.Errorf("%s %s: the oracle expects no rows; the check would be vacuous", q, name)
				}
			}
		}
	}
}

// TestOracleRejectsWrongResults checks that a wrong row, a missing row and
// a broken ORDER BY each fail verification.
func TestOracleRejectsWrongResults(t *testing.T) {
	rows := [][]any{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}}
	want, sorted, err := wireDigest(rows)
	if err != nil || !sorted {
		t.Fatalf("digest: %v sorted=%v", err, sorted)
	}
	if err := check(want, want, true); err != nil {
		t.Fatalf("identical results rejected: %v", err)
	}
	wrong, _, _ := wireDigest([][]any{{1.0, 2.0}, {3.0, 5.0}, {5.0, 6.0}})
	missing, _, _ := wireDigest(rows[:2])
	shuffled, inOrder, _ := wireDigest([][]any{rows[2], rows[0], rows[1]})
	if check(wrong, want, true) == nil {
		t.Error("a wrong cell passed")
	}
	if check(missing, want, true) == nil {
		t.Error("a missing row passed")
	}
	if shuffled != want {
		t.Error("the digest depends on row order")
	}
	if inOrder || check(shuffled, want, inOrder) == nil {
		t.Error("a broken ORDER BY passed")
	}
}

func TestInlineLiterals(t *testing.T) {
	got := inline(rangeSQL, []any{int64(3), int64(9)})
	if want := "SELECT ID, A FROM R WHERE A >= 3 AND A < 9"; got != want {
		t.Fatalf("inline = %q, want %q", got, want)
	}
}
