package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 0.5, 2.2, 9.9, 4.4, 7.0, 1.1}, 1.1, 3.1, 7.0},
		{[]float64{5, 1}, 0, 3, 6},
	} {
		q1, q3 := quartiles(tc.xs)
		if m := median(tc.xs); !near(m, tc.m) || !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("%v: got q1=%g median=%g q3=%g, want %g %g %g", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestHighestTailKeepsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the rule must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		ok     bool
		p      float64
		value  float64
		beyond int
	}{
		{19, false, 0, 0, 0},
		{20, true, 50, 10, 10},
		{100, true, 90, 90, 10},
		{999, true, 90, 900, 99},
		{1000, true, 99, 990, 10},
		{100000, true, 99.99, 99990, 10},
	} {
		got, ok := highestTail(ramp(tc.n))
		if ok != tc.ok || ok && (got.P != tc.p || got.Value != tc.value || got.Beyond != tc.beyond || got.N != tc.n) {
			t.Errorf("n=%d: got %+v ok=%t, want p%g=%g beyond %d ok=%t", tc.n, got, ok, tc.p, tc.value, tc.beyond, tc.ok)
		}
	}
}

func TestLostOperationsCountAsInfinite(t *testing.T) {
	done := make([]float64, 95)
	for i := range done {
		done[i] = 10
	}
	all := withLost(done, 5)
	if len(all) != 100 || len(done) != 95 {
		t.Fatalf("withLost: %d samples from %d, input changed to %d", len(all), 100, len(done))
	}
	asc := sorted(all)
	if p := percentile(asc, 50); p != 10 {
		t.Errorf("p50 = %g, want 10", p)
	}
	if p := percentile(asc, 99); !math.IsInf(p, 1) {
		t.Errorf("p99 = %g, want +Inf with 5%% lost", p)
	}
	// Half lost: even the median missed every limit.
	if p := percentile(sorted(withLost(done[:10], 11)), 50); !math.IsInf(p, 1) {
		t.Errorf("p50 with most operations lost = %g, want +Inf", p)
	}
}

func TestOpenLoopLateness(t *testing.T) {
	// A generator stall at the second send delays it and the third; an
	// early send is on time.
	due := []int64{0, 100, 200, 300}
	sent := []int64{0, 250, 260, 299}
	want := []float64{0, 150, 60, 0}
	got := lateness(due, sent)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lateness = %v, want %v", got, want)
		}
	}
}

func TestIntervalRates(t *testing.T) {
	got := intervalRates([]int{10, 20, 0}, int64(500e6))
	want := []float64{20, 40, 0}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Fatalf("rates = %v, want %v", got, want)
		}
	}
	if got := median(intervalRates([]int{1000, 900, 1100, 1000, 5}, 1e9)); got != 1000 {
		t.Fatalf("median rate = %g, want 1000", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: rootID(0), Name: "req", Start: 0, End: 100},
		// Two overlapping children covering [10,60], one sticking out
		// of the parent past its end: only [90,100] counts.
		{ID: 1<<63 | 1, Parent: rootID(0), Name: "a", Start: 10, End: 40},
		{ID: 1<<63 | 2, Parent: rootID(0), Name: "a", Start: 30, End: 60},
		{ID: 1<<63 | 3, Parent: rootID(0), Name: "b", Start: 90, End: 120},
		{ID: rootID(1), Name: "req", Start: 200, End: 260},
		{ID: 1<<63 | 4, Parent: rootID(1), Name: "b", Start: 200, End: 260},
	}
	got := map[string]selfTime{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	// req 0: 100 - (50 + 10) = 40; req 1: fully covered, 0.
	if r := got["req"]; r.Count != 2 || r.MeanNs != 80 || r.SelfNs != 20 {
		t.Errorf("req = %+v, want count 2 mean 80 self 20", r)
	}
	if a := got["a"]; a.Count != 2 || a.SelfNs != 30 {
		t.Errorf("a = %+v, want self = duration 30", a)
	}
	if c := covered(0, 100, [][2]int64{{-5, 5}, {50, 40}}); c != 5 {
		t.Errorf("covered = %d, want 5 (clipped, empty interval ignored)", c)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
