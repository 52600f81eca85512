package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dqo/internal/serve"
)

// serveRate is the open loop's fixed arrival rate in requests per second:
// about half the closed-loop saturation rate of two connections on a
// 2-vCPU host.
const serveRate = 600

// maxGenLagMs is the open-loop generator's p99 release lag beyond which the
// open loop is marked invalid.
const maxGenLagMs = 20

// serveConns is the number of keep-alive connections (and sessions).
const serveConns = 2

// serveOpenShare is the share of a run's seconds spent in the open loop;
// the rest is the closed-loop phase that sets the end-to-end metrics.
const serveOpenShare = 0.3

// Headers carrying bench-side span ids from the client to the handler.
const (
	reqHeader  = "X-Perfbench-Req"
	spanHeader = "X-Perfbench-Span"
)

// conn is one keep-alive connection with its session and the handle of
// its prepared point lookup.
type conn struct {
	c     *serve.Client
	hc    *http.Client
	point string
}

// rig is the serve workload's in-process server on loopback.
type rig struct {
	h     http.Handler
	hs    *http.Server
	done  chan error
	conns []*conn
	next  atomic.Int64
	col   atomic.Pointer[collector] // set while a traced phase runs

	closeOnce sync.Once
	closeErr  error
}

// ServeHTTP wraps the serve handler in a bench-side span in traced phases.
func (g *rig) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c := g.col.Load()
	if c == nil {
		g.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	g.h.ServeHTTP(w, r)
	end := time.Now()
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	c.record("serve.handler", req, parent, start, end)
}

// close shuts the server down and waits for its serving goroutine; it is
// idempotent.
func (g *rig) close() error {
	g.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := g.hs.Shutdown(ctx)
		if serr := <-g.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		for _, cn := range g.conns {
			cn.hc.CloseIdleConnections()
		}
		g.closeErr = err
	})
	return g.closeErr
}

type tagKey struct{}

type tag struct{ req, span int64 }

// tagger copies a request's bench span ids from its context into headers.
type tagger struct{ base http.RoundTripper }

func (t tagger) RoundTrip(r *http.Request) (*http.Response, error) {
	if tg, ok := r.Context().Value(tagKey{}).(tag); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, strconv.FormatInt(tg.req, 10))
		r.Header.Set(spanHeader, strconv.FormatInt(tg.span, 10))
	}
	return t.base.RoundTrip(r)
}

func setupServe(b *bench) (*state, error) {
	p := genPair(b.seed, "R", "S", demoConfig)
	db := newDB()
	d, err := p.register(db)
	if err != nil {
		return nil, err
	}
	b.register += d
	db.EnablePlanCache(true)
	srv := serve.New(serve.Config{DB: db, MaxActive: serveConns, MaxQueue: 4 * serveConns})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g := &rig{h: srv.Handler(), done: make(chan error, 1)}
	g.hs = &http.Server{Handler: g}
	go func() { g.done <- g.hs.Serve(ln) }()
	st := &state{db: db, pairs: []*pair{p}, rig: g}
	base := "http://" + ln.Addr().String()
	ctx := context.Background()
	for i := 0; i < serveConns; i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		hc := &http.Client{Transport: tagger{tr}}
		cn := &conn{c: serve.NewClient(base, hc), hc: hc}
		g.conns = append(g.conns, cn)
		if err := cn.c.NewSession(ctx, "perfbench"); err != nil {
			return nil, errors.Join(err, g.close())
		}
		pr, err := cn.c.Prepare(ctx, "cal", pointSQL)
		if err != nil {
			return nil, errors.Join(err, g.close())
		}
		cn.point = pr.Stmt
	}
	// Seven prepared point lookups per parameterised one-shot join.
	dom := distinct(p.a)
	r := rng(b.seed, 3)
	for i := 0; i < poolSize; i++ {
		shape := "point"
		if i%8 == 5 {
			shape = "sjoin"
		}
		args := demoArgs(r, p, dom, shape)
		rq := request{class: shape, want: demoWant(p, shape, args)}
		if shape == "point" {
			rq.remote = func(ctx context.Context, cn *conn) (*serve.QueryResponse, error) {
				return cn.c.Execute(ctx, cn.point, args...)
			}
		} else {
			rq.remote = func(ctx context.Context, cn *conn) (*serve.QueryResponse, error) {
				return cn.c.Query(ctx, "cal", sjoinSQL, args...)
			}
		}
		st.pool = append(st.pool, rq)
	}
	// Warm-up: every connection sends both shapes, so the plan cache holds
	// every template before timing starts.
	for _, cn := range g.conns {
		for i := 4; i < 8; i++ {
			if _, err := st.pool[i].remote(ctx, cn); err != nil {
				return nil, errors.Join(fmt.Errorf("warm-up: %w", err), g.close())
			}
		}
	}
	st.info = map[string]any{"tables": map[string]int{"R": len(p.id), "S": len(p.rid)}, "plan_cache": true,
		"conns": serveConns, "open_loop_rate_per_s": serveRate, "max_active": serveConns}
	return st, nil
}

// send sends one pool request on cn, verifies the response and returns the
// sample; lat is measured from since (the due time in the open loop).
func send(g *rig, rq *request, cn *conn, req int64, since time.Time) (sample, error) {
	ctx := context.Background()
	c := g.col.Load()
	var id int64
	if c != nil {
		id = c.reserve()
		ctx = context.WithValue(ctx, tagKey{}, tag{req: req, span: id})
	}
	start := time.Now()
	resp, err := rq.remote(ctx, cn)
	end := time.Now()
	s := sample{class: rq.class, lat: end.Sub(since)}
	if c != nil {
		c.recordAs(id, "serve.client", req, 0, start, end)
		s.span = id
	}
	if err == nil {
		got, sorted, derr := wireDigest(resp.Rows)
		if derr == nil {
			derr = check(got, rq.expect, sorted || !rq.ordered)
		}
		if derr != nil {
			err = mismatch{derr}
		}
	}
	s.ok = err == nil
	return s, err
}

// driveServe runs the open loop for serveOpenShare of d, then the closed
// loop for the rest. The closed loop sets the end-to-end metrics: on a
// small VM the open loop's latency is mostly timer and wake-up delay of
// the host, not the server (see README.md), so its due-time percentiles
// and the generator's health are reported beside them.
func driveServe(_ *bench, st *state, d time.Duration) *phase {
	share := time.Duration(float64(d) * serveOpenShare)
	open := openLoop(st, share)
	p := closedLoop(st, d-share)
	p.open = open
	p.problems = append(p.problems, open.problems...)
	p.wrong += open.wrong
	return p
}

// openLoop offers requests at serveRate on a fixed schedule regardless of
// completions. A generator goroutine releases request i at its due time;
// the connections take released requests in order. Latency runs from the
// due time, so a stall is charged to every request it delays.
func openLoop(st *state, d time.Duration) *phase {
	g := st.rig
	interval := time.Second / serveRate
	n := int(d / interval)
	type job struct {
		i   int64
		due time.Time
	}
	jobs := make(chan job, n) // sized to the number of sends: the generator never blocks
	parts := make([]*phase, len(g.conns))
	var wg sync.WaitGroup
	for k, cn := range g.conns {
		parts[k] = &phase{}
		wg.Add(1)
		go func(p *phase, cn *conn) {
			defer wg.Done()
			for j := range jobs {
				rq := &st.pool[j.i%int64(len(st.pool))]
				s, err := send(g, rq, cn, j.i+1, j.due)
				p.add(s, err)
			}
		}(parts[k], cn)
	}
	base := g.next.Add(int64(n)) - int64(n)
	lags := make([]float64, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lags = append(lags, ms(time.Since(due)))
		jobs <- job{base + int64(i), due}
	}
	close(jobs)
	wg.Wait()
	p := &phase{}
	for _, part := range parts {
		p.merge(part)
	}
	p.genLag = lags
	// A runnable goroutine can wait up to one 10 ms preemption quantum for
	// a processor while queries occupy both, so lags of that size are
	// scheduler jitter. The generator fell behind its schedule — arrivals
	// no longer follow the stated rate — when its p99 lag exceeds two.
	if lag := pct(lags, 0.99); lag > maxGenLagMs {
		p.invalid = fmt.Sprintf("generator p99 lag %.3f ms exceeds %d ms", lag, maxGenLagMs)
	}
	p.busy = d
	return p
}

// closedLoop saturates the server: every connection sends its next request
// as soon as the previous one returns.
func closedLoop(st *state, d time.Duration) *phase {
	g := st.rig
	parts := make([]*phase, len(g.conns))
	deadline := time.Now().Add(d)
	start := time.Now()
	var wg sync.WaitGroup
	for k, cn := range g.conns {
		parts[k] = &phase{}
		wg.Add(1)
		go func(p *phase, cn *conn) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := g.next.Add(1)
				rq := &st.pool[i%int64(len(st.pool))]
				s, err := send(g, rq, cn, i, time.Now())
				p.add(s, err)
			}
		}(parts[k], cn)
	}
	wg.Wait()
	p := &phase{}
	for _, part := range parts {
		p.merge(part)
	}
	p.busy = time.Since(start)
	return p
}
