package sim

import (
	"math"
	"sort"
	"testing"
)

// naiveSeries is the reference implementation: every statistic recomputes
// from scratch on a fresh sorted copy, exactly as the pre-cache Series
// did. The cached Series must agree with it under any interleaving of
// Adds and statistic calls.
type naiveSeries struct {
	vals []float64
	sum  float64
}

func (s *naiveSeries) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sum += v
}

func (s *naiveSeries) sorted() []float64 {
	out := make([]float64, len(s.vals))
	copy(out, s.vals)
	sort.Float64s(out)
	return out
}

func (s *naiveSeries) Max() float64 {
	if len(s.vals) == 0 {
		return 0 // the empty-series sentinel, matching Series.Max
	}
	max := math.Inf(-1)
	for _, v := range s.vals {
		if v > max {
			max = v
		}
	}
	return max
}

func (s *naiveSeries) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sorted := s.sorted()
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// TestSeriesCacheMatchesNaive interleaves Adds with statistic reads in a
// deterministic but adversarial schedule: reads between every batch of
// writes, repeated reads with no intervening write (served from cache),
// and reads immediately after a single Add (cache invalidation).
func TestSeriesCacheMatchesNaive(t *testing.T) {
	rng := NewRNG(99)
	var cached Series
	var naive naiveSeries
	check := func(step int) {
		t.Helper()
		for _, p := range []float64{0, 10, 50, 90, 99, 100} {
			if c, n := cached.Percentile(p), naive.Percentile(p); c != n {
				t.Fatalf("step %d: Percentile(%v) = %v, naive = %v", step, p, c, n)
			}
		}
		if c, n := cached.Max(), naive.Max(); c != n {
			t.Fatalf("step %d: Max = %v, naive = %v", step, c, n)
		}
	}
	check(-1) // empty-series statistics must also agree
	for step := 0; step < 200; step++ {
		batch := rng.Intn(4) // 0..3 writes between reads, including none
		for i := 0; i < batch; i++ {
			v := rng.Float64() * 100
			cached.Add(v)
			naive.Add(v)
		}
		check(step)
		check(step) // immediate re-read: must serve from cache unchanged
	}
	if c, n := cached.Mean(), naive.sum/float64(len(naive.vals)); c != n {
		t.Fatalf("Mean diverged: %v vs %v", c, n)
	}
}

// A single Add between reads must invalidate the cache even when the new
// value lands in the middle of the sorted order.
func TestSeriesCacheInvalidation(t *testing.T) {
	var s Series
	s.Add(1)
	s.Add(100)
	if p := s.Percentile(50); p != 1 {
		t.Fatalf("p50 of {1,100} = %v, want 1", p)
	}
	s.Add(50) // mid-range insert after a cached sort
	if p := s.Percentile(50); p != 50 {
		t.Fatalf("p50 of {1,50,100} = %v, want 50 (stale cache?)", p)
	}
	if m := s.Max(); m != 100 {
		t.Fatalf("Max = %v, want 100", m)
	}
	s.Add(-5)
	if p := s.Percentile(0); p != -5 {
		t.Fatalf("p0 after Add(-5) = %v, want -5", p)
	}
}

// Repeated statistic calls between Adds must not re-sort: the second call
// on a clean cache performs no allocations.
func TestSeriesCachedReadDoesNotAllocate(t *testing.T) {
	var s Series
	for i := 0; i < 1000; i++ {
		s.Add(float64(i * 7 % 1000))
	}
	s.Percentile(50) // build the cache
	allocs := testing.AllocsPerRun(100, func() {
		s.Percentile(99)
		s.Max()
	})
	if allocs > 0 {
		t.Fatalf("cached reads allocated %.1f times per run, want 0", allocs)
	}
}
