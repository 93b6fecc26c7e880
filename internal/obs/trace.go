package obs

import (
	"encoding/json"
	"io"
)

// Event is one structured trace record: a mechanism firing somewhere in
// the simulator. Time is in the emitting subsystem's deterministic
// clock (simulated nanoseconds for the event-driven simulators, rounds
// for the round-based ones). Node is the topology node or actor index
// the event is attributed to, -1 when not applicable.
//
// Scope and Kind are low-cardinality interned strings ("netsim"/"drop",
// "netsim"/"mbox-rewrite", ...); Detail carries the variable part (drop
// reason, device name). Emitting an Event allocates nothing: the struct
// travels by value and sinks either copy it into preallocated storage
// (Ring) or serialize it immediately (JSONL).
type Event struct {
	Time   int64   `json:"t"`
	Scope  string  `json:"scope"`
	Kind   string  `json:"kind"`
	Node   int64   `json:"node"`
	Detail string  `json:"detail,omitempty"`
	Value  float64 `json:"value,omitempty"`
}

// Sink consumes trace events. Sinks are single-threaded, like the
// simulations that feed them.
type Sink interface {
	Emit(Event)
}

// Tracer is the nil-safe front door to a sink: a nil *Tracer drops
// events for free, so instrumented code holds one unconditional field
// and never branches on configuration.
type Tracer struct {
	sink Sink
}

// NewTracer wraps a sink; a nil sink yields a nil (disabled) tracer.
func NewTracer(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink}
}

// Enabled reports whether events will be recorded. Hot paths that must
// avoid even building the Event value guard on this.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records an event. Safe on a nil tracer.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.sink.Emit(e)
}

// Ring is an in-memory ring sink for tests and short diagnostics: it
// keeps the most recent cap events in preallocated storage, so emitting
// into a warmed ring allocates nothing.
type Ring struct {
	buf  []Event
	next int
}

// NewRing returns a ring holding the most recent cap events.
func NewRing(cap int) *Ring {
	if cap < 1 {
		cap = 1
	}
	return &Ring{buf: make([]Event, 0, cap)}
}

// Emit implements Sink.
func (r *Ring) Emit(e Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % cap(r.buf)
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
		return out
	}
	return append(out, r.buf...)
}

// JSONL streams events as JSON lines to a writer — the offline-analysis
// sink. Field order is fixed by the Event struct, so output for a
// deterministic run is byte-identical across repetitions. The first
// write error sticks and suppresses further writes; check Err after the
// run.
type JSONL struct {
	enc *json.Encoder
	err error
}

// NewJSONL returns a JSONL sink over w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (j *JSONL) Emit(e Event) {
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(e)
}

// Err returns the first write error, if any.
func (j *JSONL) Err() error { return j.err }
