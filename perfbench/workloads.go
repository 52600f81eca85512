package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"time"

	"dqo"
	"dqo/internal/datagen"
)

// workload is one seeded traffic mix. setup builds its engine state — data
// generation, Register, CompressTable, Prepare, server start and warm-up —
// and is what setup_s times; drive measures it for a while.
type workload struct {
	name, why string
	setup     func(b *bench) (*state, error)
	drive     func(b *bench, st *state, d time.Duration) *phase
}

var workloads = []*workload{
	{name: "adhoc", setup: setupAdhoc, drive: driveLocal,
		why: "plan-bound: one closed-loop client, plan cache off, seeded-literal point, range and selective join queries under greedy and DQO-calibrated planning"},
	{name: "analytic", setup: setupAnalytic, drive: driveLocal,
		why: "execute-bound: one closed-loop client, prepared statements (template-cache hits), four quadrant FK pairs past L2, one compressed, DQO-calibrated at DOP 2"},
	{name: "serve", setup: setupServe, drive: driveServe,
		why: "wire and admission path: in-process serve handler, 2 keep-alive connections, open loop at a fixed rate plus a closed-loop saturation phase"},
	{name: "spill", setup: setupSpill, drive: driveLocal,
		why: "breaker kernels on disk: GROUP BY under a memory limit of half its unlimited peak, with a spill directory"},
}

// rng is the seeded source of every literal a workload sends.
func rng(seed uint64, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// poolSize is how many seeded requests a workload pre-generates; the load loop
// cycles through them.
const poolSize = 1024

// demoConfig is the serve/demo schema: R 20k rows sorted and dense with A a
// monotone function of ID (declared ID~A correlation), S 90k rows.
var demoConfig = datagen.FKConfig{RRows: 20000, SRows: 90000, AGroups: 2000,
	RSorted: true, SSorted: true, Dense: true}

// demo query shapes (the adhoc and serve workloads). Each returns its SQL
// with "?" parameters; adhoc inlines the literals.
const (
	pointSQL = "SELECT ID, A FROM R WHERE ID = ?"
	rangeSQL = "SELECT ID, A FROM R WHERE A >= ? AND A < ?"
	sjoinSQL = "SELECT R.A, COUNT(*), SUM(S.M) FROM R JOIN S ON R.ID = S.R_ID WHERE R.A >= ? AND R.A < ? GROUP BY R.A"

	rangeGroups = 10 // A values per range query (~100 R rows)
	sjoinGroups = 20 // A values per selective join (~900 S rows)
)

// demoArgs draws the literals of one demo-schema request.
func demoArgs(r *rand.Rand, p *pair, dom []uint32, shape string) []any {
	switch shape {
	case "point":
		return []any{int64(p.id[r.IntN(len(p.id))])}
	case "range":
		i := r.IntN(len(dom) - rangeGroups)
		return []any{int64(dom[i]), int64(dom[i+rangeGroups])}
	default:
		i := r.IntN(len(dom) - sjoinGroups)
		return []any{int64(dom[i]), int64(dom[i+sjoinGroups])}
	}
}

// demoWant is the oracle of one demo-schema request.
func demoWant(p *pair, shape string, args []any) func() digest {
	lo := uint64(args[0].(int64))
	return func() digest {
		switch shape {
		case "point":
			return p.oracle.point(p, uint32(lo))
		case "range":
			return p.oracle.rByA.between(lo, uint64(args[1].(int64)))
		default:
			return p.oracle.joinAM.between(lo, uint64(args[1].(int64)))
		}
	}
}

// inline substitutes literals for the "?" parameters of a demo shape.
func inline(sql string, args []any) string {
	out := make([]byte, 0, len(sql)+16)
	for i := 0; i < len(sql); i++ {
		if sql[i] == '?' {
			out = fmt.Appendf(out, "%d", args[0])
			args = args[1:]
			continue
		}
		out = append(out, sql[i])
	}
	return string(out)
}

func shapeSQL(shape string) string {
	switch shape {
	case "point":
		return pointSQL
	case "range":
		return rangeSQL
	}
	return sjoinSQL
}

// adhocMix is the adhoc request cycle: ten point lookups, four ranges and
// two selective joins, each shape split evenly between greedy and
// DQO-calibrated planning. The median lands among the point and range
// lookups; the joins, one request in eight, hold the tail.
var adhocMix = []adhocReq{
	{"point", greedy}, {"point", cal}, {"range", greedy}, {"point", greedy},
	{"point", cal}, {"sjoin", greedy}, {"point", greedy}, {"range", cal},
	{"point", cal}, {"point", greedy}, {"range", greedy}, {"point", cal},
	{"sjoin", cal}, {"point", greedy}, {"range", cal}, {"point", cal},
}

const (
	greedy = dqo.ModeGreedy
	cal    = dqo.ModeDQOCalibrated
)

type adhocReq struct {
	shape string
	mode  dqo.Mode
}

func newDB() *dqo.DB {
	db := dqo.Open()
	db.SetTracer(nil) // timed runs trace nothing; a traced run installs its collector
	return db
}

func setupAdhoc(b *bench) (*state, error) {
	p := genPair(b.seed, "R", "S", demoConfig)
	db := newDB()
	d, err := p.register(db)
	if err != nil {
		return nil, err
	}
	b.register += d
	dom := distinct(p.a)
	r := rng(b.seed, 1)
	st := &state{db: db, pairs: []*pair{p}}
	for i := 0; i < poolSize; i++ {
		m := adhocMix[i%len(adhocMix)]
		args := demoArgs(r, p, dom, m.shape)
		sql := inline(shapeSQL(m.shape), args)
		mode := m.mode
		st.pool = append(st.pool, request{
			class: m.shape + "/" + mode.String(), name: "Query", want: demoWant(p, m.shape, args),
			local: func(ctx context.Context) (*dqo.Result, error) {
				return db.Query(ctx, mode, sql, dqo.WithWorkers(dop))
			},
		})
	}
	st.info = map[string]any{"tables": map[string]int{"R": len(p.id), "S": len(p.rid)}, "plan_cache": false}
	return st, warm(st, len(adhocMix))
}

// warm runs the first n pool entries once each, unverified: every class is
// planned and executed before timing starts.
func warm(st *state, n int) error {
	for i := 0; i < n && i < len(st.pool); i++ {
		if _, err := st.pool[i].local(context.Background()); err != nil {
			return fmt.Errorf("warm-up %s: %w", st.pool[i].class, err)
		}
	}
	return nil
}

func distinct(xs []uint32) []uint32 {
	seen := make(map[uint32]struct{}, len(xs))
	var out []uint32
	for _, x := range xs {
		if _, ok := seen[x]; !ok {
			seen[x] = struct{}{}
			out = append(out, x)
		}
	}
	slices.Sort(out)
	return out
}

// quadrant pairs of the analytic and spill workloads: R 100k rows, S 450k,
// so their hash tables exceed L2.
const (
	bigR      = 100000
	bigS      = 450000
	bigGroups = 10000
)

func quadrantPair(seed uint64, q datagen.Quadrant) *pair {
	tag := map[bool]string{true: "s", false: "u"}[q.Sorted] + map[bool]string{true: "d", false: "s"}[q.Dense]
	cfg := datagen.FKConfig{RRows: bigR, SRows: bigS, AGroups: bigGroups,
		RSorted: q.Sorted, SSorted: q.Sorted, Dense: q.Dense}
	return genPair(seed, "R"+tag, "S"+tag, cfg)
}

// analytic shapes over one pair; %[1]s is R's name, %[2]s S's.
var analyticShapes = []struct {
	name, sql string
	ordered   bool
}{
	{"join", "SELECT %[1]s.A, COUNT(*) FROM %[1]s JOIN %[2]s ON %[1]s.ID = %[2]s.R_ID GROUP BY %[1]s.A", false},
	{"sjoin", "SELECT %[1]s.A, COUNT(*), SUM(%[2]s.M) FROM %[1]s JOIN %[2]s ON %[1]s.ID = %[2]s.R_ID WHERE %[1]s.A < ? GROUP BY %[1]s.A", false},
	{"group", "SELECT R_ID, COUNT(*) FROM %[2]s GROUP BY R_ID", false},
	{"order", "SELECT R_ID, M FROM %[2]s ORDER BY R_ID", true},
}

// shapeWant is the oracle of an analytic shape; sjoin's argument is an A
// upper bound.
func shapeWant(p *pair, shape string, args []any) func() digest {
	return func() digest {
		o := p.oracle
		switch shape {
		case "join":
			return o.joinA.between(0, allKeys)
		case "sjoin":
			return o.joinAM.between(0, uint64(args[0].(int64)))
		case "group":
			return o.groupS
		}
		return o.orderS
	}
}

// prepare wraps DB.Prepare in a bench span.
func prepare(b *bench, db *dqo.DB, sql string) (*dqo.Stmt, error) {
	var stmt *dqo.Stmt
	_, err := b.call("Prepare", 0, func() (err error) {
		stmt, err = db.Prepare(dqo.ModeDQOCalibrated, sql)
		return err
	})
	return stmt, err
}

func setupAnalytic(b *bench) (*state, error) {
	db := newDB()
	st := &state{db: db}
	tables := map[string]int{}
	for _, q := range datagen.Quadrants() {
		p := quadrantPair(b.seed, q)
		d, err := p.register(db)
		if err != nil {
			return nil, err
		}
		b.register += d
		st.pairs = append(st.pairs, p)
		tables[p.r], tables[p.s] = len(p.id), len(p.rid)
	}
	// The sorted-dense pair is stored compressed.
	var compressed *pair
	for _, p := range st.pairs {
		if p.cfg.RSorted && p.cfg.Dense {
			compressed = p
		}
	}
	for _, t := range []string{compressed.r, compressed.s} {
		d, err := b.call("CompressTable", 0, func() error { return db.CompressTable(t) })
		if err != nil {
			return nil, err
		}
		b.compress += d
	}
	r := rng(b.seed, 2)
	type prepared struct {
		p     *pair
		shape int
		stmt  *dqo.Stmt
		dom   []uint32
	}
	var stmts []prepared
	for _, p := range st.pairs {
		dom := distinct(p.a)
		for i, sh := range analyticShapes {
			stmt, err := prepare(b, db, fmt.Sprintf(sh.sql, p.r, p.s))
			if err != nil {
				return nil, err
			}
			stmts = append(stmts, prepared{p, i, stmt, dom})
		}
	}
	for i := 0; i < poolSize; i++ {
		ps := stmts[i%len(stmts)]
		sh := analyticShapes[ps.shape]
		var args []any
		if sh.name == "sjoin" {
			// A bound at 5–20% of the pair's A domain: a selective join.
			lo, hi := len(ps.dom)/20, len(ps.dom)/5
			args = []any{int64(ps.dom[lo+r.IntN(hi-lo)])}
		}
		stmt := ps.stmt
		st.pool = append(st.pool, request{
			class: sh.name + "/" + ps.p.r[1:], ordered: sh.ordered, name: "Stmt.Query",
			want: shapeWant(ps.p, sh.name, args),
			local: func(ctx context.Context) (*dqo.Result, error) {
				return stmt.QueryWith(ctx, args, dqo.WithWorkers(dop))
			},
		})
	}
	st.info = map[string]any{"tables": tables, "compressed": []string{compressed.r, compressed.s}}
	return st, warm(st, len(stmts))
}

// The spill workload runs the analytic shapes under a memory limit of half
// their unlimited peak. At the commit that added the benchmark only GROUP BY
// completes under that rule; the join+group-by and ORDER BY abort with
// ErrMemoryBudgetExceeded in their spill twins. The timed mix holds the
// shape that completes; the others are attempted once per run after set-up
// and counted as spill.aborted_shapes, so a fix to either twin shows there.
const spillTimed = "group"

var spillProbe = []string{"join", "order"}

func setupSpill(b *bench) (*state, error) {
	dir := b.scratch("spill")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db := newDB()
	st := &state{db: db}
	// Sorted-dense and unsorted-sparse: the two ends of the paper's grid.
	for _, q := range []datagen.Quadrant{{Sorted: true, Dense: true}, {Sorted: false, Dense: false}} {
		p := quadrantPair(b.seed, q)
		d, err := p.register(db)
		if err != nil {
			return nil, err
		}
		b.register += d
		st.pairs = append(st.pairs, p)
	}
	limited := func(p *pair, shape string) (*request, error) {
		i := shapeIndex(shape)
		stmt, err := prepare(b, db, fmt.Sprintf(analyticShapes[i].sql, p.r, p.s))
		if err != nil {
			return nil, err
		}
		// The limit is half the shape's unlimited peak, measured here.
		res, err := stmt.QueryWith(context.Background(), nil, dqo.WithWorkers(dop))
		if err != nil {
			return nil, fmt.Errorf("unlimited %s on %s: %w", shape, p.r, err)
		}
		limit := res.PeakBytes() / 2
		return &request{
			class: shape + "/" + p.r[1:], ordered: analyticShapes[i].ordered, name: "Stmt.Query",
			want: shapeWant(p, shape, nil),
			local: func(ctx context.Context) (*dqo.Result, error) {
				return stmt.QueryWith(ctx, nil, dqo.WithWorkers(dop),
					dqo.WithMemoryLimit(limit), dqo.WithSpillDir(dir))
			},
		}, nil
	}
	var timed []request
	for _, p := range st.pairs {
		rq, err := limited(p, spillTimed)
		if err != nil {
			return nil, err
		}
		timed = append(timed, *rq)
	}
	// Two sorted-dense executions per unsorted-sparse one keep the median
	// inside one class.
	for i := 0; i < poolSize; i++ {
		st.pool = append(st.pool, timed[[]int{0, 0, 1}[i%3]])
	}
	var probes []*request
	for _, p := range st.pairs {
		for _, shape := range spillProbe {
			rq, err := limited(p, shape)
			if err != nil {
				return nil, err
			}
			probes = append(probes, rq)
		}
	}
	st.probe = func() error {
		st.aborted = 0
		for _, rq := range probes {
			rq.expect = rq.want()
			res, err := rq.local(context.Background())
			switch {
			case errors.Is(err, dqo.ErrMemoryBudgetExceeded):
				st.aborted++
			case err != nil:
				return fmt.Errorf("spill probe %s: %w", rq.class, err)
			default:
				var s sample
				if err := verifyLocal(rq, res, &s); err != nil {
					return fmt.Errorf("spill probe %s: %w", rq.class, err)
				}
			}
		}
		return nil
	}
	st.info = map[string]any{
		"tables": map[string]int{st.pairs[0].r: bigR, st.pairs[0].s: bigS, st.pairs[1].r: bigR, st.pairs[1].s: bigS},
		"timed":  spillTimed, "probed": spillProbe, "limit": "half of each shape's unlimited PeakBytes",
	}
	return st, warm(st, 3)
}

func shapeIndex(name string) int {
	for i, s := range analyticShapes {
		if s.name == name {
			return i
		}
	}
	panic("unknown shape " + name)
}
