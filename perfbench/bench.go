package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"dqo"
	"dqo/internal/serve"
)

// dop is the explicit degree of parallelism of every in-process query
// (dqo.WithWorkers), so plans do not change with the host's CPU count.
const dop = 2

// A run builds its workload's state once, measures it, and then repeats
// the set-up — at least minSetupRounds times in all, and until setupBudget
// has passed for cheap set-ups (at most maxSetupRounds). setup_s is the
// median round. The repeats come after the measurement, so the resident set
// it samples holds one set-up.
const (
	minSetupRounds = 3
	maxSetupRounds = 15
	setupBudget    = 2 * time.Second
)

// bench is one run's configuration and bench-side instrumentation.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	root     string // checkout root; scratch files go under .bench_build

	col *collector // non-nil in a traced run, from the first set-up on

	// Set-up layer timings of the current round.
	register, compress time.Duration
}

func (b *bench) scratch(elem ...string) string {
	return filepath.Join(append([]string{b.root, ".bench_build", "perfbench"}, elem...)...)
}

// call times fn and, in a traced run, records it as a bench span.
func (b *bench) call(name string, req int64, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	if b.col != nil {
		b.col.record(name, req, 0, start, end)
	}
	return end.Sub(start), err
}

// request is one query a load loop can send, with its oracle.
type request struct {
	class   string
	ordered bool          // ORDER BY: the first column must not decrease
	want    func() digest // the oracle; evaluated once, after set-up
	expect  digest

	local  func(ctx context.Context) (*dqo.Result, error)                    // in-process
	remote func(ctx context.Context, cn *conn) (*serve.QueryResponse, error) // over HTTP
	name   string                                                            // bench span name of local
}

// state is a workload's engine state after set-up.
type state struct {
	db      *dqo.DB
	pairs   []*pair
	pool    []request // sent round-robin; literals drawn from the seed
	next    int
	info    map[string]any
	aborted int          // spill: shapes aborting under the half-of-peak rule
	probe   func() error // spill: attempts the aborting shapes, after set-up
	rig     *rig         // serve: the in-process server and its clients
}

func (st *state) close() error {
	if st.rig != nil {
		return st.rig.close()
	}
	return nil
}

// sample is one measured request.
type sample struct {
	class string
	lat   time.Duration
	ok    bool
	span  int64 // bench span of the request (traced runs)

	// In-process engine measurements (zero for requests over HTTP).
	peak                                int64
	rowsIn, rowsOut                     int64
	spillBytes, spillParts, spillPasses int64
}

// phase is the outcome of driving a workload for a while.
type phase struct {
	lat      latencies
	samples  []sample
	verified int
	busy     time.Duration // throughput denominator
	open     *phase        // serve: the fixed-rate open-loop phase before this closed loop
	genLag   []float64     // open loop: ms the generator released late
	invalid  string        // open loop: why its arrivals did not follow the schedule
	problems []string      // the first failures, for the notes
	wrong    int           // results that differ from the oracle
}

// mismatch marks a result that differs from the oracle: a wrong answer,
// not merely a failed request.
type mismatch struct{ error }

func (p *phase) add(s sample, err error) {
	if err != nil && len(p.problems) < 10 {
		p.problems = append(p.problems, fmt.Sprintf("%s: %v", s.class, err))
	}
	if errors.As(err, new(mismatch)) {
		p.wrong++
	}
	p.lat.add(s.lat, s.ok)
	p.samples = append(p.samples, s)
	if s.ok {
		p.verified++
	}
}

// throughput is completed, verified requests per second.
func (p *phase) throughput() float64 { return float64(p.verified) / p.busy.Seconds() }

// attempts returns the attempted and failed request counts.
func (p *phase) attempts() (attempted, failed int) {
	attempted, failed = p.lat.n(), p.lat.failed
	if p.open != nil {
		attempted += p.open.lat.n()
		failed += p.open.lat.failed
	}
	return attempted, failed
}

func (p *phase) merge(o *phase) {
	p.lat.ok = append(p.lat.ok, o.lat.ok...)
	p.lat.failed += o.lat.failed
	p.samples = append(p.samples, o.samples...)
	p.verified += o.verified
	p.busy += o.busy
	p.genLag = append(p.genLag, o.genLag...)
	if p.invalid == "" {
		p.invalid = o.invalid
	}
	p.problems = append(p.problems, o.problems...)
	p.wrong += o.wrong
	switch {
	case o.open == nil:
	case p.open == nil:
		p.open = o.open
	default:
		p.open.merge(o.open)
	}
}

// verifyLocal checks one in-process result against its oracle and fills the
// sample's engine measurements.
func verifyLocal(rq *request, res *dqo.Result, s *sample) error {
	got, sorted, err := localDigest(res)
	if err == nil {
		err = check(got, rq.expect, sorted || !rq.ordered)
	}
	if err != nil {
		return mismatch{err}
	}
	s.peak = res.PeakBytes()
	s.rowsOut = int64(res.NumRows())
	for _, o := range res.Stats() {
		s.rowsIn += o.RowsIn
		s.spillBytes += o.SpillBytes
		s.spillParts += o.SpillParts
		s.spillPasses += o.SpillPasses
	}
	return nil
}

// driveLocal is the closed loop of the in-process workloads: one client
// sends the pool round-robin, each request after the previous returns,
// until d has passed. Verification happens outside the timed call.
func driveLocal(b *bench, st *state, d time.Duration) *phase {
	ctx := context.Background()
	p := &phase{}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		rq := &st.pool[st.next%len(st.pool)]
		st.next++
		start := time.Now()
		res, err := rq.local(ctx)
		end := time.Now()
		s := sample{class: rq.class, lat: end.Sub(start)}
		if b.col != nil {
			s.span = b.col.record(rq.name, int64(st.next), 0, start, end)
		}
		if err == nil {
			err = verifyLocal(rq, res, &s)
		}
		s.ok = err == nil
		p.busy += s.lat
		p.add(s, err)
	}
	return p
}

// setupTimes are the per-round set-up, register and compress times.
type setupTimes struct{ total, register, compress []float64 }

// setupRound builds the workload's state once and records its times.
func setupRound(w *workload, b *bench, t *setupTimes) (*state, error) {
	b.register, b.compress = 0, 0
	start := time.Now()
	st, err := w.setup(b)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	t.total = append(t.total, time.Since(start).Seconds())
	t.register = append(t.register, ms(b.register))
	t.compress = append(t.compress, ms(b.compress))
	return st, nil
}

// moreSetups runs the remaining set-up rounds, each on a collected heap.
func moreSetups(w *workload, b *bench, t *setupTimes) error {
	spent := time.Duration(t.total[0] * float64(time.Second))
	for len(t.total) < maxSetupRounds && (len(t.total) < minSetupRounds || spent < setupBudget) {
		runtime.GC()
		debug.FreeOSMemory()
		st, err := setupRound(w, b, t)
		if err != nil {
			return err
		}
		if err := st.close(); err != nil {
			return err
		}
		spent += time.Duration(t.total[len(t.total)-1] * float64(time.Second))
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// rssEvery is the resident-set sampling period of a measured phase.
const rssEvery = 50 * time.Millisecond

// rssSampler records the process's resident set every rssEvery until
// finish is called.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				var size, resident int64
				data, err := os.ReadFile("/proc/self/statm")
				if err != nil {
					continue
				}
				if _, err := fmt.Sscan(string(data), &size, &resident); err == nil {
					s.mb = append(s.mb, float64(resident*int64(os.Getpagesize()))/(1<<20))
				}
			}
		}
	}()
	return s
}

// finish stops sampling, waits for the sampler and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.mb
}
