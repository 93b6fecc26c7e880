package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// Disabled instruments must be free: no allocation on any method of the
// nil handles a nil registry hands out.
func TestDisabledInstrumentsZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", CountBuckets)
	tr := NewTracer(nil)
	if c != nil || g != nil || h != nil || tr != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(2)
		h.Observe(5)
		tr.Emit(Event{Scope: "s", Kind: "k"})
	})
	if allocs != 0 {
		t.Fatalf("disabled obs path allocates %.1f per op, want 0", allocs)
	}
}

// Enabled counters and histograms must not allocate per observation
// either — they sit on per-event hot paths.
func TestEnabledInstrumentsZeroAllocSteadyState(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", TimeBucketsNs)
	ring := NewRing(8)
	tr := NewTracer(ring)
	// Warm the ring to capacity so Emit stops growing the buffer.
	for i := 0; i < 16; i++ {
		tr.Emit(Event{Scope: "s", Kind: "k", Time: int64(i)})
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(12345)
		tr.Emit(Event{Scope: "s", Kind: "k", Time: 1, Node: 2, Detail: "d"})
	})
	if allocs != 0 {
		t.Fatalf("enabled obs hot path allocates %.1f per op, want 0", allocs)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10, 100, 1000})
	for _, v := range []float64{5, 10, 11, 100, 500, 5000} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms[0]
	want := []uint64{2, 2, 1, 1} // <=10: {5,10}; <=100: {11,100}; <=1000: {500}; +Inf: {5000}
	if !reflect.DeepEqual(snap.Counts, want) {
		t.Fatalf("bucket counts = %v, want %v", snap.Counts, want)
	}
	if snap.Count != 6 || snap.Min != 5 || snap.Max != 5000 {
		t.Fatalf("count/min/max = %d/%v/%v", snap.Count, snap.Min, snap.Max)
	}
	if snap.Sum != 5+10+11+100+500+5000 {
		t.Fatalf("sum = %v", snap.Sum)
	}
}

func TestHistogramLayoutIsIdentity(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with different bounds did not panic")
		}
	}()
	r.Histogram("h", []float64{1, 2, 3})
}

// Merging shards must be commutative: any merge order yields the same
// snapshot — the property RunAll's work-stealing pool depends on.
func TestMergeCommutative(t *testing.T) {
	build := func(vals ...float64) *Registry {
		r := NewRegistry()
		for _, v := range vals {
			r.Counter("events").Inc()
			r.Gauge("pool").Add(v)
			r.Histogram("dist", CountBuckets).Observe(v)
		}
		return r
	}
	a, b, c := build(1, 5), build(9, 2, 700), build(64)

	ab := NewRegistry()
	ab.Merge(a)
	ab.Merge(b)
	ab.Merge(c)
	ba := NewRegistry()
	ba.Merge(c)
	ba.Merge(b)
	ba.Merge(a)
	if !reflect.DeepEqual(ab.Snapshot(), ba.Snapshot()) {
		t.Fatal("merge order changed the aggregate snapshot")
	}
	s := ab.Snapshot()
	if s.Counters[0].Value != 6 {
		t.Fatalf("merged counter = %d, want 6", s.Counters[0].Value)
	}
	if s.Histograms[0].Count != 6 || s.Histograms[0].Min != 1 || s.Histograms[0].Max != 700 {
		t.Fatalf("merged histogram = %+v", s.Histograms[0])
	}
}

// Snapshots serialize deterministically: same registry state, same
// bytes, with sections sorted by name.
func TestSnapshotDeterministicJSON(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Insertion order differs from sorted order on purpose.
		r.Counter("zeta").Add(3)
		r.Counter("alpha").Add(1)
		r.Histogram("m.lat", TimeBucketsNs).Observe(5e6)
		r.Gauge("mid").Set(2)
		return r
	}
	j1, err := json.Marshal(build().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(build().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("snapshot JSON not reproducible:\n%s\n%s", j1, j2)
	}
	s := build().Snapshot()
	if s.Counters[0].Name != "alpha" || s.Counters[1].Name != "zeta" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
}

func TestRingSink(t *testing.T) {
	ring := NewRing(3)
	tr := NewTracer(ring)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Time: int64(i), Scope: "s", Kind: "k"})
	}
	ev := ring.Events()
	if len(ev) != 3 || ev[0].Time != 2 || ev[2].Time != 4 {
		t.Fatalf("ring kept %+v, want times 2,3,4 oldest-first", ev)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf strings.Builder
	sink := NewJSONL(&buf)
	tr := NewTracer(sink)
	tr.Emit(Event{Time: 7, Scope: "netsim", Kind: "drop", Node: 3, Detail: "ttl"})
	tr.Emit(Event{Time: 9, Scope: "netsim", Kind: "deliver", Node: 4})
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Time != 7 || e.Kind != "drop" || e.Detail != "ttl" || e.Node != 3 {
		t.Fatalf("round-trip event = %+v", e)
	}
}
