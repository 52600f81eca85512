package main

import (
	"testing"
	"time"
)

func TestFailuresRankAboveSuccesses(t *testing.T) {
	var l latencies
	for i := 1; i <= 95; i++ {
		l.add(time.Duration(i)*time.Millisecond, true)
	}
	for i := 0; i < 5; i++ {
		l.add(0, false) // a failure's latency is irrelevant: it ranks last
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0.50, 50},
		{0.95, 95},
		{0.96, unbounded}, // lands on the first failure
		{0.99, unbounded},
	}
	for _, c := range cases {
		if got := l.quantileMs(c.p); got != c.want {
			t.Errorf("p%.0f = %g, want %g", 100*c.p, got, c.want)
		}
	}
}

func TestAllFailedIsUnbounded(t *testing.T) {
	var l latencies
	l.add(time.Millisecond, false)
	if got := l.quantileMs(0.5); got != unbounded {
		t.Fatalf("p50 of one failure = %g, want unbounded", got)
	}
	if got := (&latencies{}).quantileMs(0.5); got != unbounded {
		t.Fatalf("p50 of no attempts = %g, want unbounded", got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0.5}, {20, 0.5}, {100, 0.9}, {200, 0.95}, {1000, 0.99}, {50000, 0.99},
	} {
		if got := tailP(c.n); got != c.want {
			t.Errorf("tailP(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// Exactly ten attempts rank beyond the tail percentile below 1000.
	var l latencies
	for i := 1; i <= 200; i++ {
		l.add(time.Duration(i)*time.Millisecond, true)
	}
	if got := l.quantileMs(tailP(l.n())); got != 190 {
		t.Fatalf("tail of 1..200 ms = %g, want 190", got)
	}
}
