package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req (a datagram's sequence number, a transfer's index, a drain's or a
// suite round's index); Parent names the span that caused this one, 0 for
// a root. Start and End are nanoseconds since the tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rootID is the ID of a request's root span, derived from the request so
// that spans recorded on other goroutines can name it as their parent
// without coordination.
func rootID(req uint64) uint64 { return req + 1 }

// tracer keeps spans in preallocated memory and writes them out when the
// run ends. add and childID are safe from any goroutine: each call claims
// its own slot with one atomic increment, and spans beyond capacity are
// counted, not kept. Read the spans only after every recording goroutine
// has stopped.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	ids     atomic.Uint64
	dropped atomic.Int64
}

// childID returns a fresh ID for a non-root span; the top bit keeps it
// apart from every rootID.
func (t *tracer) childID() uint64 { return 1<<63 | t.ids.Add(1) }

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// now is the tracer clock: monotonic nanoseconds since the epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = s
}

// recorded returns the kept spans.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// writeJSONL writes the kept spans, one JSON object per line, creating the
// file's directory.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.recorded() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// selfTime is one span name's aggregate: how many spans, their mean
// duration, and their mean self time — the duration minus the part of the
// span's interval that its children cover.
type selfTime struct {
	Name   string
	Count  int
	MeanNs float64
	SelfNs float64
}

// selfTimes aggregates spans by name. Children may overlap each other (a
// layer that fans out) or stick out of their parent (clock skew between
// goroutines); only the union of child time inside the parent's interval
// is subtracted, so self time is never negative and never double-counts.
func selfTimes(spans []span) []selfTime {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	agg := map[string]*selfTime{}
	var order []string
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
			order = append(order, s.Name)
		}
		dur := s.End - s.Start
		a.Count++
		a.MeanNs += float64(dur)
		a.SelfNs += float64(dur - covered(s.Start, s.End, children[s.ID]))
	}
	sort.Strings(order)
	out := make([]selfTime, 0, len(order))
	for _, name := range order {
		a := agg[name]
		a.MeanNs /= float64(a.Count)
		a.SelfNs /= float64(a.Count)
		out = append(out, *a)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := make([][2]int64, len(ivs))
	copy(s, ivs)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range s {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}
