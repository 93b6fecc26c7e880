// Package obs is the simulator's observability layer: a metrics registry
// (counters, gauges, histograms with fixed bucket layouts) and a
// structured event tracer with pluggable sinks. It exists so the paper's
// core argument — that stakeholders must be able to *see* who controls
// what at run time (§IV "design for tussle") — is testable against the
// simulator itself: which mechanism fired, who paid, where a packet was
// rewritten or dropped.
//
// Two invariants govern the design:
//
//   - Zero cost when disabled. Every instrument is nil-safe: a nil
//     *Registry hands out nil instruments, and every method on a nil
//     instrument is a no-op that performs no allocation. Hot paths guard
//     with a single nil check, so the forwarding fast path's zero-alloc
//     hop invariant (netsim's TestForwardHopZeroAlloc) holds with obs
//     disabled.
//
//   - Determinism when enabled. Instruments record only deterministic
//     quantities — simulated time, event counts, value distributions —
//     never wall-clock time. Histogram bucket layouts are fixed at
//     creation, snapshots sort by name, and merge operations are
//     commutative (sums, bucket-wise adds, min/max), so a snapshot of a
//     run is byte-identical across repetitions at the same seed no
//     matter how work was scheduled across workers.
//
// A Registry is single-threaded, like the simulations it observes.
// Concurrent runs get one registry shard per worker, merged at the end
// (see experiments.RunAll) — commutativity makes the merged snapshot
// independent of the work-stealing schedule.
package obs

import (
	"fmt"
	"slices"
	"sort"
)

// Counter is a monotonically increasing event count. The zero of the
// metric namespace: cheap enough for per-event hot paths.
type Counter struct {
	name string
	v    int64
}

// Inc adds one. Safe (and free) on a nil counter.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n. Safe on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Gauge is a last-written scalar. Merge sums gauges across shards, so
// use gauges for quantities where a sum is meaningful (pool sizes,
// high-water marks per shard); prefer counters or histograms otherwise.
type Gauge struct {
	name string
	v    float64
}

// Set overwrites the gauge. Safe on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Add adjusts the gauge by d. Safe on a nil gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.v += d
}

// Histogram is a fixed-layout bucket histogram. Bounds are upper bounds
// in ascending order; an implicit +Inf bucket catches the rest. The
// layout is fixed at creation and never adapts to the data — that is
// what keeps snapshots byte-identical across runs and shards mergeable
// bucket-by-bucket.
type Histogram struct {
	name   string
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the +Inf bucket
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// Observe records one value. Safe on a nil histogram; never allocates.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo]++
}

// Fixed bucket layouts shared across the repository, so the same metric
// name always carries the same layout and shards merge cleanly.
var (
	// TimeBucketsNs spans 1us..10s in decades: simulated-time durations.
	TimeBucketsNs = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}
	// CountBuckets spans small integer counts (hops, queue depths,
	// rounds) in powers of two.
	CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}
)

// Registry hands out named instruments and snapshots them. Not safe for
// concurrent use: give each worker its own shard and Merge afterwards.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil counter, whose methods are no-ops — callers
// hold the handle and never re-check whether obs is enabled.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use (nil-safe).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (nil-safe). Re-registering a name with a
// different layout panics: a histogram's layout is part of its identity
// (shards with mismatched layouts cannot merge).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		if !slices.Equal(h.bounds, bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
		}
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending", name))
		}
	}
	h := &Histogram{name: name, bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	r.hists[name] = h
	return h
}

// Merge folds src into r: counters and gauges sum, histograms add
// bucket-wise (layouts must match; merging an unknown name adopts the
// src layout). All merge operations are commutative and associative, so
// the result is independent of merge order — the property that lets
// per-worker shards from a work-stealing pool produce a deterministic
// aggregate. Merging a nil src (or into a nil r) is a no-op.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	for name, c := range src.counters {
		r.Counter(name).Add(c.v)
	}
	for name, g := range src.gauges {
		r.Gauge(name).Add(g.v)
	}
	for name, h := range src.hists {
		dst := r.Histogram(name, h.bounds)
		if h.count == 0 {
			continue
		}
		if dst.count == 0 || h.min < dst.min {
			dst.min = h.min
		}
		if dst.count == 0 || h.max > dst.max {
			dst.max = h.max
		}
		dst.count += h.count
		dst.sum += h.sum
		for i, n := range h.counts {
			dst.counts[i] += n
		}
	}
}

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramSnap is one histogram in a snapshot. Min/Max are 0 when
// Count is 0 (never ±Inf, which JSON cannot carry).
type HistogramSnap struct {
	Name   string    `json:"name"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// Snapshot is a point-in-time, deterministically ordered view of a
// registry: every section sorted by name, every value a deterministic
// function of the run. It is the unit the CLIs serialize.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges,omitempty"`
	Histograms []HistogramSnap `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state. A nil registry yields
// an empty (but non-nil) snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	for _, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: c.name, Value: c.v})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	for _, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: g.name, Value: g.v})
	}
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	for _, h := range r.hists {
		hs := HistogramSnap{
			Name: h.name, Count: h.count, Sum: h.sum,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]uint64(nil), h.counts...),
		}
		if h.count > 0 {
			hs.Min, hs.Max = h.min, h.max
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
