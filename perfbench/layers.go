package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// traced runs the per-layer measurement: the first half of d untraced
// (allocation and optimiser-alternative counts, and the baseline median for
// the tracing overhead), the second half with the collecting tracer on the
// DB and bench spans around every call. Spans are written out at the end.
func traced(w *workload, b *bench, st *state, d time.Duration, out *outcome) (*phase, error) {
	col := b.col
	b.col = nil
	var ms0, ms1 runtime.MemStats
	m0 := st.db.Metrics()
	runtime.ReadMemStats(&ms0)
	plain := w.drive(b, st, d/2)
	runtime.ReadMemStats(&ms1)
	m1 := st.db.Metrics()

	b.col = col
	st.db.SetTracer(col)
	if st.rig != nil {
		st.rig.col.Store(col)
	}
	p := w.drive(b, st, d/2)
	st.db.SetTracer(nil)
	if st.rig != nil {
		st.rig.col.Store(nil)
	}
	m2 := st.db.Metrics()
	host := st.pool[0].name
	if st.rig != nil {
		host = "serve.handler"
	}
	owner := col.attach(host)
	t := col.tree()

	set := func(name string, v float64, unit string) { setLayer(out, name, v, unit) }
	attempted, _ := plain.attempts()
	nPlain := float64(attempted)

	// Phase spans of every traced query.
	var parse, bind, optMiss, optHit, compile, admit, execute []float64
	selfFam := map[string]time.Duration{}
	var queries int
	for _, q := range owner {
		if q == 0 {
			continue
		}
		queries++
		add := func(dst *[]float64, name string, unit func(time.Duration) float64) *span {
			s := t.phase(q, name)
			if s != nil {
				*dst = append(*dst, unit(s.dur()))
			}
			return s
		}
		add(&parse, "parse", us)
		add(&bind, "bind", us)
		add(&compile, "compile", us)
		add(&admit, "admission-wait", ms)
		if o := t.phase(q, "optimise"); o != nil {
			if o.Attr == "hit" {
				optHit = append(optHit, us(o.dur()))
			} else {
				optMiss = append(optMiss, ms(o.dur()))
			}
		}
		if e := add(&execute, "execute", ms); e != nil {
			var walk func(id int64)
			walk = func(id int64) {
				for _, k := range t.children[id] {
					selfFam[family(k.Name)] += t.self(k)
					walk(k.ID)
				}
			}
			walk(e.ID)
		}
	}
	set("sql.parse_us_p50", medianOf(parse), "us")
	set("sql.bind_us_p50", medianOf(bind), "us")
	set("core.optimise_ms_p50", medianOf(optMiss), "ms")
	set("core.compile_us_p50", medianOf(compile), "us")
	set("core.alternatives_per_query", float64(m1.OptimizerAlternatives-m0.OptimizerAlternatives)/nPlain, "count")
	set("av.rebind_us_p50", medianOf(optHit), "us")
	lookups := (m2.PlanCacheHits - m0.PlanCacheHits) + (m2.PlanCacheMisses - m0.PlanCacheMisses)
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(m2.PlanCacheHits-m0.PlanCacheHits) / float64(lookups)
	}
	set("av.plan_cache_hit_ratio", hitRatio, "ratio")
	set("av.plan_cache_misses", float64(m2.PlanCacheMisses), "count")
	set("exec.execute_ms_p50", medianOf(execute), "ms")
	for _, f := range families {
		v := 0.0
		if queries > 0 {
			v = ms(selfFam[f]) / float64(queries)
		}
		set("exec.self_ms."+f, v, "ms")
	}

	// In-process engine measurements, and the serve handler's spans.
	var peaks, handler, overhead []float64
	var rowsIn, rowsOut, spillB, spillP, spillPas float64
	for _, s := range p.samples {
		peaks = append(peaks, float64(s.peak))
		rowsIn += float64(s.rowsIn)
		rowsOut += float64(s.rowsOut)
		spillB += float64(s.spillBytes)
		spillP += float64(s.spillParts)
		spillPas += float64(s.spillPasses)
	}
	if st.rig != nil {
		peaks, admit = peaks[:0], admit[:0]
		rowsIn, rowsOut = 0, 0
		for _, s := range t.byID {
			if s.Name != "serve.handler" {
				continue
			}
			handler = append(handler, ms(s.dur()))
			q := t.byID[owner[s.ID]]
			if q == nil {
				continue
			}
			overhead = append(overhead, ms(s.dur()-q.dur()))
			// The serve gate has no span of its own: what precedes the
			// engine inside the handler — decode, session lookup, the
			// tenant and global gates — stands for its wait.
			admit = append(admit, ms(time.Duration(q.Start-s.Start)))
			in, outRows, peak := opRows(t, q)
			rowsIn += in
			rowsOut += outRows
			peaks = append(peaks, peak)
		}
	}
	set("govern.admission_wait_ms_p99", pct(admit, 0.99), "ms")
	set("govern.peak_bytes_p50", medianOf(peaks), "bytes")
	ratio := 0.0
	if rowsOut > 0 {
		ratio = rowsIn / rowsOut
	}
	set("exec.rows_in_per_row_out", ratio, "ratio")
	n := float64(p.lat.n())
	set("spill.bytes_per_query", spillB/n, "bytes")
	set("spill.parts_per_query", spillP/n, "count")
	set("spill.passes_per_query", spillPas/n, "count")
	set("spill.aborted_shapes", float64(st.aborted), "count")
	set("serve.handler_ms_p50", medianOf(handler), "ms")
	set("serve.overhead_ms_p50", medianOf(overhead), "ms")
	var lags []float64
	openP50, openTail := 0.0, 0.0
	if plain.open != nil {
		lags = append(append(lags, plain.open.genLag...), p.open.genLag...)
		o := &plain.open.lat
		openP50, openTail = o.quantileMs(0.5), o.quantileMs(tailP(o.n()))
		if plain.open.invalid != "" || p.open.invalid != "" {
			out.notes = append(out.notes, "open loop INVALID: "+plain.open.invalid+p.open.invalid)
		}
	}
	set("serve.gen_lag_ms_p99", pct(lags, 0.99), "ms")
	set("serve.open_loop_p50_ms", openP50, "ms")
	set("serve.open_loop_tail_ms", openTail, "ms")
	set("obs.trace_overhead_ratio", p.lat.quantileMs(0.5)/plain.lat.quantileMs(0.5), "ratio")
	set("go.allocs_per_query", float64(ms1.Mallocs-ms0.Mallocs)/nPlain, "count")

	tracedN, _ := p.attempts()
	out.notes = append(out.notes,
		fmt.Sprintf("traced half: %d requests, %d engine traces attached; untraced half: %d requests",
			tracedN, queries, attempted),
		fmt.Sprintf("av.plan_cache_hit_ratio base: %d lookups", lookups),
		fmt.Sprintf("exec.rows_in_per_row_out base: %.0f result rows", rowsOut))
	path := b.scratch("spans", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	if err := col.write(path); err != nil {
		return nil, err
	}
	out.notes = append(out.notes, "spans: "+filepath.ToSlash(path))
	plain.merge(p)
	return plain, nil
}

// opRows derives, from a query span's operator tree, the rows pulled into
// operators (a leaf counts the rows it emitted), the result rows and the
// largest operator peak.
func opRows(t tree, q *span) (in, out, peak float64) {
	e := t.phase(q.ID, "execute")
	if e == nil {
		return 0, 0, 0
	}
	var walk func(s *span)
	walk = func(s *span) {
		peak = max(peak, float64(s.Peak))
		kids := t.children[s.ID]
		if len(kids) == 0 {
			in += float64(s.Rows)
		}
		for _, k := range kids {
			in += float64(k.Rows)
			walk(k)
		}
	}
	for _, root := range t.children[e.ID] {
		out += float64(root.Rows)
		walk(root)
	}
	return in, out, peak
}
