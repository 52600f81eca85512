package main

import (
	"math"
	"slices"
	"time"
)

// unbounded is what a percentile reads when it lands on a failed or refused
// attempt: failures rank above every success, so such a percentile has no
// finite latency. JSON has no infinity; the largest float stands in for it.
const unbounded = math.MaxFloat64

// latencies collects one phase's request outcomes for percentile reporting.
// A failed attempt has no latency; it ranks above every success.
type latencies struct {
	ok     []time.Duration
	failed int
}

func (l *latencies) add(d time.Duration, ok bool) {
	if ok {
		l.ok = append(l.ok, d)
	} else {
		l.failed++
	}
}

// n is the number of attempts.
func (l *latencies) n() int { return len(l.ok) + l.failed }

// quantileMs returns the nearest-rank p-quantile in milliseconds, with
// failures ranked above every success; a rank that lands on a failure
// returns unbounded.
func (l *latencies) quantileMs(p float64) float64 {
	n := l.n()
	if n == 0 {
		return unbounded
	}
	k := int(math.Ceil(p * float64(n))) // 1-based rank
	k = max(1, min(k, n))
	if k > len(l.ok) {
		return unbounded
	}
	sorted := slices.Clone(l.ok)
	slices.Sort(sorted)
	return ms(sorted[k-1])
}

// tailP is the percentile reported as latency_tail_ms: the highest one with
// at least ten attempts ranked beyond it, capped at p99 so the reported
// percentile stays fixed once a run has 1000 attempts, and floored at the
// median for runs too short to have ten attempts beyond anything higher.
func tailP(n int) float64 {
	if n <= 20 {
		return 0.5
	}
	return min(0.99, float64(n-10)/float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianOf returns the median of xs (0 for none).
func medianOf(xs []float64) float64 { return pct(xs, 0.5) }

// pct returns the nearest-rank p-quantile of xs (0 for none).
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(p * float64(len(s))))
	return s[max(1, min(k, len(s)))-1]
}
