// Command perfbench is the repository's benchmark: four seeded workloads
// driven through the public dqo API and the in-process serve handler, every
// result checked against a plain-Go oracle. See README.md.
//
//	perfbench --workload adhoc|analytic|serve|spill|all --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 a traced
// run prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "adhoc | analytic | serve | spill | all")
	seed := flag.Uint64("seed", 1, "seed of every generated table and literal")
	secs := flag.Float64("seconds", 10, "seconds one run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	root := flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	flag.Parse()
	if *trace != 0 && *trace != 1 || *secs <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	if *name == "all" {
		return runAll()
	}
	w := workloadNamed(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	b := &bench{workload: w.name, seed: *seed, seconds: *secs, traced: *trace == 1, root: *root}
	out, err := measure(w, b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	report(os.Stdout, out)
	line, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.result.Correct {
		return 1
	}
	return 0
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is everything a run reports.
type outcome struct {
	result result
	env    map[string]any
	notes  []string // bases of ratios, percentiles used, problems
}

// measure runs one workload in this process: set-up (timed, repeated),
// oracle, then the timed or traced measurement.
func measure(w *workload, b *bench) (*outcome, error) {
	if b.traced {
		b.col = newCollector()
	}
	var setup setupTimes
	st, err := setupRound(w, b, &setup)
	if err != nil {
		return nil, err
	}
	defer st.close()
	for _, p := range st.pairs {
		p.buildOracle()
	}
	for i := range st.pool {
		st.pool[i].expect = st.pool[i].want()
	}
	if st.probe != nil {
		if err := st.probe(); err != nil {
			return nil, err
		}
	}
	out := &outcome{env: environment(b, st), result: result{Metrics: map[string]metric{}}}
	d := time.Duration(b.seconds * float64(time.Second))
	rssSetup := peakRSSMB()
	steal0 := cpuTicks()
	var p *phase
	var rss []float64
	if b.traced {
		if p, err = traced(w, b, st, d, out); err != nil {
			return nil, err
		}
	} else {
		sampler := sampleRSS()
		p = w.drive(b, st, d)
		rss = sampler.finish()
	}
	steal := stealPct(steal0, cpuTicks())
	hwm := peakRSSMB()
	if err := st.close(); err != nil {
		return nil, err
	}
	if err := moreSetups(w, b, &setup); err != nil {
		return nil, err
	}
	if b.traced {
		setLayer(out, "storage.register_ms", medianOf(setup.register), "ms")
		setLayer(out, "storage.compress_ms", medianOf(setup.compress), "ms")
	} else {
		endToEnd(p, setup, rss, out)
		out.notes = append(out.notes, classNotes(p)...)
	}
	out.notes = append(out.notes, fmt.Sprintf("VmHWM %.1f MB after the first set-up and oracle, %.1f MB after measuring; host steal %.1f%% of CPU time while measuring",
		rssSetup, hwm, steal))
	out.result.Attempted, out.result.Failed = p.attempts()
	out.result.Correct = p.wrong == 0
	out.notes = append(out.notes, p.problems...)
	return out, nil
}

func setLayer(out *outcome, name string, v float64, unit string) {
	out.result.Metrics[name] = metric{v, unit}
}

// endToEnd fills the six end-to-end metrics of an untraced run.
func endToEnd(p *phase, setup setupTimes, rss []float64, out *outcome) {
	m := out.result.Metrics
	n := p.lat.n()
	tp := tailP(n)
	attempted, failed := p.attempts()
	m["setup_s"] = metric{medianOf(setup.total), "s"}
	m["latency_p50_ms"] = metric{p.lat.quantileMs(0.5), "ms"}
	m["latency_tail_ms"] = metric{p.lat.quantileMs(tp), "ms"}
	m["throughput_qps"] = metric{p.throughput(), "1/s"}
	m["success_ratio"] = metric{float64(attempted-failed) / float64(attempted), "ratio"}
	m["rss_p95_mb"] = metric{pct(rss, 0.95), "MB"}
	out.notes = append(out.notes,
		fmt.Sprintf("latency_tail_ms is p%.2f over %d attempts", 100*tp, n),
		fmt.Sprintf("success_ratio base: %d attempted, %d failed", attempted, failed),
		fmt.Sprintf("setup_s is the median of %d rounds", len(setup.total)),
		fmt.Sprintf("rss_p95_mb over %d resident-set samples, one every %v", len(rss), rssEvery))
	if o := p.open; o != nil {
		verdict := "valid"
		if o.invalid != "" {
			verdict = "INVALID: " + o.invalid
		}
		out.notes = append(out.notes, fmt.Sprintf(
			"open loop at %d req/s: %d attempts, from due times p50 %.3f ms, p%.2f %.3f ms; generator lag p99 %.3f ms; %s",
			serveRate, o.lat.n(), o.lat.quantileMs(0.5), 100*tailP(o.lat.n()), o.lat.quantileMs(tailP(o.lat.n())),
			pct(o.genLag, 0.99), verdict))
	}
}

// classNotes summarises each request class: attempts, p50 and max.
func classNotes(p *phase) []string {
	by := map[string]*latencies{}
	var names []string
	for _, s := range p.samples {
		if by[s.class] == nil {
			by[s.class] = &latencies{}
			names = append(names, s.class)
		}
		by[s.class].add(s.lat, s.ok)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, n := range names {
		l := by[n]
		out = append(out, fmt.Sprintf("class %-24s n=%5d p50=%9.3f ms p90=%9.3f ms max=%9.3f ms",
			n, l.n(), l.quantileMs(0.5), l.quantileMs(0.9), l.quantileMs(1)))
	}
	return out
}

// cpuTicks reads the aggregate CPU counters of /proc/stat (user … steal).
func cpuTicks() []uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var ticks []uint64
	for _, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil
		}
		ticks = append(ticks, v)
	}
	return ticks
}

// stealPct is the share of CPU time the hypervisor gave to others between
// two cpuTicks readings.
func stealPct(a, b []uint64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 0
	}
	var total uint64
	for i := range a {
		total += b[i] - a[i]
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(b[7]-a[7]) / float64(total)
}

func environment(b *bench, st *state) map[string]any {
	return map[string]any{
		"workload": b.workload, "seed": b.seed, "seconds": b.seconds, "trace": b.traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": cpuModel(), "dop": dop, "data": st.info,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints the environment, every metric with its unit, and the notes.
func report(w *os.File, out *outcome) {
	env, _ := json.Marshal(map[string]any{"env": out.env})
	fmt.Fprintln(w, string(env))
	names := make([]string, 0, len(out.result.Metrics))
	for k := range out.result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := out.result.Metrics[k]
		fmt.Fprintf(w, "%-32s %14.4f %s\n", k, m.Value, m.Unit)
	}
	for _, n := range out.notes {
		fmt.Fprintln(w, "# "+n)
	}
}

// runAll runs every workload, each in a fresh process so peak RSS and the
// engine's caches are per workload, and fails if any of them does.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	all := map[string]json.RawMessage{}
	code := 0
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		cmd := exec.Command(self, append(os.Args[1:len(os.Args):len(os.Args)],
			"--workload", w.name)...)
		cmd.Stderr = os.Stderr
		outb, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
		if last := []byte(lines[len(lines)-1]); json.Valid(last) {
			all[w.name] = last
		}
	}
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	return code
}
