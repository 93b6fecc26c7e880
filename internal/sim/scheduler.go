package sim

import (
	"fmt"

	"repro/internal/obs"
)

// Time is simulated time in nanoseconds since the start of the run.
type Time int64

// Common durations, mirroring package time but in simulated units.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns the time as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	}
	return fmt.Sprintf("%dns", int64(t))
}

// event is one slot in the scheduler's event pool. Slots are recycled
// through a free list; gen increments on every release so stale EventIDs
// (and stale heap entries) can never touch a recycled slot's new tenant.
// The event's ordering key lives only in its heap entry.
type event struct {
	fn   func()
	born Time // scheduling time, for the obs event-lag span
	gen  uint32
	live bool
}

// EventID identifies a scheduled event so it can be cancelled. The zero
// value is valid and refers to no event.
type EventID struct {
	slot uint32 // pool index + 1; 0 means "no event"
	gen  uint32
}

// heapEntry is one element of the scheduler's 4-ary min-heap. The ordering
// key (at, key, seq) is stored inline so comparisons never chase a
// pointer. The entry's slot carries, in what would otherwise be padding,
// the slot's generation when the entry was pushed: the liveness check,
// since a slot released since then carries a different one. The struct
// keeps four fields, the most the compiler holds in registers; a fifth
// would make every heap move go through memory.
type heapEntry struct {
	at   Time
	key  uint64 // deterministic cross-run tie-breaker (see AtKeyed); 0 for At
	seq  uint64 // tie-breaker: FIFO among same-time events; globally unique
	slot slotGen
}

// slotGen names a pool slot and one of its generations.
type slotGen struct{ idx, gen uint32 }

// live reports whether e's event is still scheduled: its slot has not
// been released, by dispatch or by Cancel, since e was pushed.
func (s *Scheduler) live(e heapEntry) bool {
	ev := &s.events[e.slot.idx]
	return ev.live && ev.gen == e.slot.gen
}

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// Scheduler is a discrete-event simulation loop: events execute in
// timestamp order, ties broken by scheduling order. It is single-threaded
// by design — determinism is the point. Parallelism in this repository is
// always across independent simulations (see experiments.RunAll), never
// within one.
//
// Events live in a slot pool recycled through a free list, so a
// steady-state simulation schedules events with zero heap allocations
// once the pool has grown to the high-water mark.
type Scheduler struct {
	now    Time
	seq    uint64
	events []event     // slot pool
	free   []uint32    // recycled slot indices
	queue  []heapEntry // 4-ary min-heap by (at, key, seq)
	dead   int         // cancelled events whose heap entries are not yet drained

	// obs holds the scheduler's observability instruments; nil means
	// disabled, and every hook below is a single nil check.
	obs *schedObs

	// Processed counts events executed, for loop-detection and stats.
	Processed uint64
}

// schedObs bundles the scheduler's instruments. Dispatch is the hot
// path: one counter increment and two histogram observations per event,
// all allocation-free (see internal/obs).
type schedObs struct {
	scheduled  *obs.Counter
	cancelled  *obs.Counter
	dispatched *obs.Counter
	depth      *obs.Histogram // live queue depth sampled at each dispatch
	lag        *obs.Histogram // sim-ns between scheduling and execution
}

// AttachObs enables scheduler observability against reg: counters for
// scheduled/cancelled/dispatched events, a queue-depth distribution
// sampled at dispatch, and the span from scheduling to execution in
// simulated nanoseconds. A nil registry detaches (disables) again.
func (s *Scheduler) AttachObs(reg *obs.Registry) {
	if reg == nil {
		s.obs = nil
		return
	}
	s.obs = &schedObs{
		scheduled:  reg.Counter("sim.sched.scheduled"),
		cancelled:  reg.Counter("sim.sched.cancelled"),
		dispatched: reg.Counter("sim.sched.dispatched"),
		depth:      reg.Histogram("sim.sched.queue_depth", obs.CountBuckets),
		lag:        reg.Histogram("sim.sched.event_lag_ns", obs.TimeBucketsNs),
	}
}

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Pending reports the number of live events waiting to run. Cancelled
// events are excluded even before their heap entries are drained.
func (s *Scheduler) Pending() int { return len(s.queue) - s.dead }

// acquire returns a slot index for a new event, recycling freed slots.
func (s *Scheduler) acquire() uint32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.events = append(s.events, event{})
	return uint32(len(s.events) - 1)
}

// release recycles a slot, bumping its generation so outstanding
// EventIDs for the old tenant become inert.
func (s *Scheduler) release(idx uint32) {
	ev := &s.events[idx]
	ev.fn = nil
	ev.live = false
	ev.gen++
	s.free = append(s.free, idx)
}

// At schedules fn at the absolute simulated time at. Scheduling in the past
// panics: it would silently reorder causality.
func (s *Scheduler) At(at Time, fn func()) EventID {
	return s.AtKeyed(at, 0, fn)
}

// AtKeyed schedules fn at the absolute time at with an explicit ordering
// key. Same-time events dispatch in ascending key order (ties among equal
// keys fall back to scheduling order, as with At). The sharded simulation
// core uses keys derived from the event's origin node, so that same-time
// ordering is a pure function of the simulation — independent of how
// nodes are partitioned across shard schedulers — which is what keeps
// sharded runs byte-identical at any shard count. Plain At is AtKeyed
// with key 0, so single-scheduler callers are unaffected.
func (s *Scheduler) AtKeyed(at Time, key uint64, fn func()) EventID {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	idx := s.acquire()
	ev := &s.events[idx]
	ev.fn = fn
	ev.born = s.now
	ev.live = true
	if s.obs != nil {
		s.obs.scheduled.Inc()
	}
	s.push(heapEntry{at: at, key: key, seq: s.seq, slot: slotGen{idx, ev.gen}})
	s.seq++
	return EventID{slot: idx + 1, gen: ev.gen}
}

// After schedules fn after a delay from now.
func (s *Scheduler) After(d Time, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Cancel prevents a scheduled event from running. Cancelling an already-run
// or already-cancelled event is a no-op, as is cancelling the zero EventID.
// The slot is recycled immediately; the heap entry is dropped lazily.
func (s *Scheduler) Cancel(id EventID) {
	if id.slot == 0 {
		return
	}
	idx := id.slot - 1
	if int(idx) >= len(s.events) {
		return
	}
	ev := &s.events[idx]
	if !ev.live || ev.gen != id.gen {
		return
	}
	s.release(idx)
	s.dead++
	if s.obs != nil {
		s.obs.cancelled.Inc()
	}
	s.maybeCompact()
}

// maybeCompact rebuilds the heap without dead entries once they dominate,
// so mass cancellation cannot pin memory for a whole run.
func (s *Scheduler) maybeCompact() {
	if s.dead <= 32 || s.dead*2 <= len(s.queue) {
		return
	}
	kept := s.queue[:0]
	for _, e := range s.queue {
		if s.live(e) {
			kept = append(kept, e)
		}
	}
	s.queue = kept
	s.dead = 0
	// Re-establish the heap invariant bottom-up.
	for i := len(s.queue)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	s.RunUntil(Time(1<<62 - 1))
}

// popLive removes and returns the earliest live event's (time, callback),
// draining any dead heap entries on the way. ok is false when no live
// event remains.
func (s *Scheduler) popLive() (at Time, fn func(), ok bool) {
	for len(s.queue) > 0 {
		e := s.queue[0]
		s.pop()
		if !s.live(e) {
			s.dead--
			continue
		}
		ev := &s.events[e.slot.idx]
		at, fn = e.at, ev.fn
		if s.obs != nil {
			s.obs.dispatched.Inc()
			s.obs.lag.Observe(float64(at - ev.born))
			s.obs.depth.Observe(float64(s.Pending()))
		}
		s.release(e.slot.idx)
		return at, fn, true
	}
	return 0, nil, false
}

// peekLive returns the timestamp of the earliest live event without
// removing it, draining dead entries from the top of the heap.
func (s *Scheduler) peekLive() (Time, bool) {
	at, _, ok := s.PeekNext()
	return at, ok
}

// PeekNext returns the (time, key) of the earliest live event without
// removing it, draining dead entries from the top of the heap. The
// sharded lockstep driver uses it to merge K shard schedulers into one
// global (time, key)-ordered dispatch sequence.
func (s *Scheduler) PeekNext() (Time, uint64, bool) {
	for len(s.queue) > 0 {
		e := s.queue[0]
		if s.live(e) {
			return e.at, e.key, true
		}
		s.pop()
		s.dead--
	}
	return 0, 0, false
}

// RunUntil executes events with timestamps <= deadline, advances the clock
// to deadline, and returns. Events scheduled beyond the deadline remain
// queued.
func (s *Scheduler) RunUntil(deadline Time) {
	for {
		at, ok := s.peekLive()
		if !ok || at > deadline {
			break
		}
		_, fn, _ := s.popLive()
		s.now = at
		s.Processed++
		fn()
	}
	if s.now < deadline && deadline < Time(1<<62-1) {
		s.now = deadline
	}
}

// Step executes exactly one live event and returns true, or returns false
// if the queue is empty.
func (s *Scheduler) Step() bool {
	at, fn, ok := s.popLive()
	if !ok {
		return false
	}
	s.now = at
	s.Processed++
	fn()
	return true
}

// The queue is a 4-ary min-heap: half the depth of a binary heap, and
// the four children of a node sit in two adjacent cache lines, so the
// dominant cost of a pop on a large queue — one cache miss per level —
// is roughly halved. Heap shape cannot affect dispatch order: entryLess
// is a strict total order ((at, key, seq) with seq globally unique), so
// every correct heap yields the same pop sequence.

// push adds an entry to the heap.
func (s *Scheduler) push(e heapEntry) {
	s.queue = append(s.queue, e)
	// Sift up.
	i := len(s.queue) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(s.queue[i], s.queue[parent]) {
			break
		}
		s.queue[i], s.queue[parent] = s.queue[parent], s.queue[i]
		i = parent
	}
}

// pop removes the minimum entry from the heap.
func (s *Scheduler) pop() {
	n := len(s.queue) - 1
	s.queue[0] = s.queue[n]
	s.queue = s.queue[:n]
	if n > 0 {
		s.siftDown(0)
	}
}

func (s *Scheduler) siftDown(i int) {
	n := len(s.queue)
	for {
		l := 4*i + 1
		if l >= n {
			return
		}
		m := l
		hi := l + 4
		if hi > n {
			hi = n
		}
		for c := l + 1; c < hi; c++ {
			if entryLess(s.queue[c], s.queue[m]) {
				m = c
			}
		}
		if !entryLess(s.queue[m], s.queue[i]) {
			return
		}
		s.queue[i], s.queue[m] = s.queue[m], s.queue[i]
		i = m
	}
}
