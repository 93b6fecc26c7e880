package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverged at step %d", i)
		}
	}
}

func TestRNGSeedChangesSequence(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(13)
	var s, sq Series
	for i := 0; i < 50000; i++ {
		v := r.Normal(5, 2)
		s.Add(v)
		sq.Add(v * v)
	}
	if m := s.Mean(); math.Abs(m-5) > 0.1 {
		t.Fatalf("Normal mean = %v, want ~5", m)
	}
	if sd := math.Sqrt(sq.Mean() - s.Mean()*s.Mean()); math.Abs(sd-2) > 0.1 {
		t.Fatalf("Normal stddev = %v, want ~2", sd)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(17)
	f := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := r.Perm(n)
		sort.Ints(p)
		for i, v := range p {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGPickWeighted(t *testing.T) {
	r := NewRNG(19)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[r.Pick([]float64{1, 2, 7})]++
	}
	// Expect roughly 10%, 20%, 70%.
	if f := float64(counts[2]) / 30000; f < 0.65 || f > 0.75 {
		t.Fatalf("heavy weight picked %.3f of the time, want ~0.70", f)
	}
	if f := float64(counts[0]) / 30000; f < 0.07 || f > 0.13 {
		t.Fatalf("light weight picked %.3f of the time, want ~0.10", f)
	}
}

func TestRNGPickZeroWeightsUniform(t *testing.T) {
	r := NewRNG(23)
	counts := [4]int{}
	for i := 0; i < 4000; i++ {
		counts[r.Pick([]float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("zero-weight pick not uniform: bucket %d got %d/4000", i, c)
		}
	}
}

func TestRNGFork(t *testing.T) {
	parent := NewRNG(5)
	child := parent.Fork()
	if child.Uint64() == parent.Uint64() {
		// Not strictly impossible but overwhelmingly unlikely; a match
		// indicates Fork returned an aliased state.
		t.Fatal("fork appears to share state with parent")
	}
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulerClockAdvances(t *testing.T) {
	s := NewScheduler()
	var at1, at2 Time
	s.At(50, func() { at1 = s.Now() })
	s.After(120, func() { at2 = s.Now() })
	s.Run()
	if at1 != 50 {
		t.Fatalf("Now inside event = %v, want 50", at1)
	}
	if at2 != 120 {
		t.Fatalf("After scheduled at %v, want 120", at2)
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	hits := 0
	var recur func()
	recur = func() {
		hits++
		if hits < 5 {
			s.After(10, recur)
		}
	}
	s.After(0, recur)
	s.Run()
	if hits != 5 {
		t.Fatalf("nested scheduling ran %d times, want 5", hits)
	}
	if s.Now() != 40 {
		t.Fatalf("clock = %v, want 40", s.Now())
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	id := s.At(10, func() { ran = true })
	s.Cancel(id)
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var ran []Time
	s.At(10, func() { ran = append(ran, 10) })
	s.At(20, func() { ran = append(ran, 20) })
	s.At(30, func() { ran = append(ran, 30) })
	s.RunUntil(20)
	if len(ran) != 2 {
		t.Fatalf("RunUntil(20) ran %d events, want 2", len(ran))
	}
	if s.Now() != 20 {
		t.Fatalf("clock = %v, want 20", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	s.Run()
	if len(ran) != 3 {
		t.Fatal("remaining event did not run")
	}
}

func TestSchedulerPastSchedulingPanics(t *testing.T) {
	s := NewScheduler()
	s.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(50, func() {})
	})
	s.Run()
}

// PeekNext reports the earliest live event's time without running it,
// skips a cancelled event at the top, and reports false once nothing is
// pending.
func TestSchedulerPeekNext(t *testing.T) {
	s := NewScheduler()
	n := 0
	first := s.At(1, func() { n++ })
	s.At(2, func() { n++ })
	if at, ok := s.PeekNext(); !ok || at != 1 || n != 0 {
		t.Fatalf("PeekNext() = %v, %v after running %d events, want 1, true after none", at, ok, n)
	}
	s.Cancel(first)
	if at, ok := s.PeekNext(); !ok || at != 2 {
		t.Fatalf("PeekNext() = %v, %v with the first event cancelled, want 2, true", at, ok)
	}
	s.Run()
	if at, ok := s.PeekNext(); ok || n != 1 {
		t.Fatalf("PeekNext() = %v, %v after a drain that ran %d events, want false after 1", at, ok, n)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{Second + Second/2, "1.500s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", c.t, got, c.want)
		}
	}
}

func TestSeriesBasics(t *testing.T) {
	var s Series
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.Mean() != 3 || s.Max() != 5 {
		t.Fatalf("Mean/Max = %v/%v", s.Mean(), s.Max())
	}
}

func TestSeriesEmpty(t *testing.T) {
	// Every statistic on an empty series returns the defined sentinel 0 —
	// never ±Inf (unserializable, poisons arithmetic) and never a panic.
	var s Series
	for _, tc := range []struct {
		name string
		got  float64
	}{
		{"Mean", s.Mean()},
		{"Max", s.Max()},
		{"Percentile(0)", s.Percentile(0)},
		{"Percentile(50)", s.Percentile(50)},
		{"Percentile(99)", s.Percentile(99)},
		{"Percentile(100)", s.Percentile(100)},
	} {
		if tc.got != 0 {
			t.Errorf("empty series %s = %v, want 0", tc.name, tc.got)
		}
	}
	// The sentinel must not leak into statistics once data arrives.
	s.Add(-3)
	if s.Max() != -3 || s.Percentile(0) != -3 {
		t.Fatalf("after one Add, Max/Percentile(0) = %v/%v, want -3/-3", s.Max(), s.Percentile(0))
	}
}

func TestSeriesPercentile(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if p := s.Percentile(50); p != 50 {
		t.Fatalf("p50 = %v, want 50", p)
	}
	if p := s.Percentile(99); p != 99 {
		t.Fatalf("p99 = %v, want 99", p)
	}
	if p := s.Percentile(0); p != 1 {
		t.Fatalf("p0 = %v, want 1", p)
	}
	if p := s.Percentile(100); p != 100 {
		t.Fatalf("p100 = %v, want 100", p)
	}
}

func TestCounter(t *testing.T) {
	c := Counter{}
	c.Inc("a")
	if n := c.Inc("a"); n != 2 {
		t.Fatalf("second Inc returned %d, want 2", n)
	}
	c.Inc("b")
	if c["a"] != 2 || c["b"] != 1 || c["missing"] != 0 {
		t.Fatalf("counter state wrong: %v", c)
	}
}

func TestKeyCacheInterning(t *testing.T) {
	kc := NewKeyCache("drop:")
	if got := kc.Key("ttl"); got != "drop:ttl" {
		t.Fatalf("Key = %q, want drop:ttl", got)
	}
	kc.Key("no-route")
	allocs := testing.AllocsPerRun(100, func() {
		if kc.Key("ttl") != "drop:ttl" || kc.Key("no-route") != "drop:no-route" {
			t.Fatal("wrong interned key")
		}
	})
	if allocs != 0 {
		t.Fatalf("interned lookups allocated %.1f/op, want 0", allocs)
	}
	c := Counter{}
	c.Inc(kc.Key("ttl"))
	c.Inc(kc.Key("ttl"))
	if c["drop:ttl"] != 2 {
		t.Fatalf("counter via interned key = %d, want 2", c["drop:ttl"])
	}
}
