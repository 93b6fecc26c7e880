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
// can never touch a recycled slot's new tenant. The slot holds the
// event's tie-break, (key, seq), which the heap reads when two entries
// share a time, so a slot stays with its heap entry until the entry
// leaves the heap: at dispatch, or, after Cancel has marked it dead,
// when the heap drains or compacts the entry away. A comparison
// therefore never reads a recycled slot, and a released slot's seq is
// free to hold the free list's link (see release).
type event struct {
	fn   func()
	born Time   // scheduling time, for the obs event-lag span
	key  uint64 // deterministic cross-run tie-breaker (see AtKeyed); 0 for At
	seq  uint64 // tie-breaker: FIFO among same-time events; globally unique
	gen  uint32
	live bool // scheduled and neither dispatched nor cancelled
}

// The slot pool is kept in chunks of chunkSlots slots (40 KiB each):
// slot i lives at chunks[i>>chunkShift][i&chunkMask]. The first chunk
// grows by append, so a pool that never passes chunkSlots slots costs
// what one slice would; every later chunk is allocated whole and never
// moves, so growth copies nothing and leaves no outgrown array behind.
const (
	chunkShift = 10
	chunkSlots = 1 << chunkShift
	chunkMask  = chunkSlots - 1
)

// EventID identifies a scheduled event so it can be cancelled. The zero
// value is valid and refers to no event.
type EventID struct {
	slot uint32 // pool index + 1; 0 means "no event"
	gen  uint32
}

// heapEntry is one element of the scheduler's 4-ary min-heap: the
// event's time and its pool slot. At 16 bytes, a node's four children
// fill one 64-byte cache line (see heapPad). Entries order by (at, key,
// seq); key and seq are read from the slot only when times tie.
type heapEntry struct {
	at   Time
	slot uint32
}

// less orders heap entries by (at, key, seq). seq is globally unique, so
// the order is strict.
func (s *Scheduler) less(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return s.tieLess(a.slot, b.slot)
}

// tieLess orders the events in two slots by (key, seq).
func (s *Scheduler) tieLess(a, b uint32) bool {
	ea, eb := s.slot(a), s.slot(b)
	if ea.key != eb.key {
		return ea.key < eb.key
	}
	return ea.seq < eb.seq
}

// Scheduler is a discrete-event simulation loop: events execute in
// timestamp order, ties broken by scheduling order. It is single-threaded
// by design — determinism is the point. Parallelism in this repository is
// always across independent simulations (see experiments.RunAll), never
// within one.
//
// Events live in a slot pool recycled through a free list, so a
// steady-state simulation schedules events with zero heap allocations
// once the pool has grown to the high-water mark. The pool grows in
// fixed chunks (see chunkSlots) and the free list is chained through
// the released slots themselves, so growing the pool copies no slot and
// leaves no outgrown array behind, which in a long run between garbage
// collections would stay resident until the next one.
type Scheduler struct {
	now    Time
	seq    uint64
	chunks [][]event   // slot pool; see chunkSlots
	first  [1][]event  // backs chunks until a second chunk is added
	slots  uint32      // slots ever handed out
	free   uint32      // 1 + the first slot of the free chain; 0 when it is empty
	queue  []heapEntry // 4-ary min-heap by (at, key, seq); see heapPad
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

// slot returns the event in pool slot idx.
func (s *Scheduler) slot(idx uint32) *event {
	return &s.chunks[idx>>chunkShift][idx&chunkMask]
}

// newSlot adds a slot to the pool and returns its index; AtKeyed calls
// it when the free chain is empty.
func (s *Scheduler) newSlot() uint32 {
	idx := s.slots
	switch {
	case idx < chunkSlots:
		// The first chunk's header lives in the Scheduler, so a pool of
		// one chunk allocates only the chunk's own growth.
		if s.chunks == nil {
			s.chunks = s.first[:]
		}
		s.chunks[0] = append(s.chunks[0], event{})
	case idx&chunkMask == 0:
		s.chunks = append(s.chunks, make([]event, chunkSlots))
	}
	s.slots++
	return idx
}

// release recycles a slot once its heap entry has left the heap,
// bumping its generation so outstanding EventIDs for the old tenant
// become inert, and pushes it on the free chain: its seq holds 1 + the
// next free slot. Nothing reads a released slot's seq as a tie-break,
// because no heap entry refers to the slot any more (see event).
func (s *Scheduler) release(idx uint32) {
	ev := s.slot(idx)
	ev.fn = nil
	ev.live = false
	ev.gen++
	ev.seq = uint64(s.free)
	s.free = idx + 1
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
	// Reuse the last released slot, or else grow the pool. The pop is
	// written out here rather than in a function of its own, which
	// would be too costly for the compiler to inline.
	idx := s.free - 1
	if s.free != 0 {
		s.free = uint32(s.slot(idx).seq)
	} else {
		idx = s.newSlot()
	}
	ev := s.slot(idx)
	ev.fn = fn
	ev.born = s.now
	ev.key = key
	ev.seq = s.seq
	ev.live = true
	s.seq++
	if s.obs != nil {
		s.obs.scheduled.Inc()
	}
	s.push(heapEntry{at: at, slot: idx})
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
// The event is marked dead and its callback dropped at once; its heap
// entry, and with it the slot, is released lazily.
func (s *Scheduler) Cancel(id EventID) {
	if id.slot == 0 {
		return
	}
	idx := id.slot - 1
	if idx >= s.slots {
		return
	}
	ev := s.slot(idx)
	if !ev.live || ev.gen != id.gen {
		return
	}
	ev.fn = nil
	ev.live = false
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
		if s.slot(e.slot).live {
			kept = append(kept, e)
		} else {
			s.release(e.slot)
		}
	}
	s.queue = kept
	s.dead = 0
	// Re-establish the heap invariant bottom-up, from the last parent.
	for i := (len(kept)+2)/4 - 1; i >= 0; i-- {
		s.fill(i, kept[i])
	}
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	s.RunUntil(Time(1<<62 - 1))
}

// top returns the earliest live heap entry and its event without
// removing it, draining and releasing dead entries from the top of the
// heap. ok is false when no live event remains.
func (s *Scheduler) top() (e heapEntry, ev *event, ok bool) {
	for len(s.queue) > 0 {
		e = s.queue[0]
		ev = s.slot(e.slot)
		if ev.live {
			return e, ev, true
		}
		s.pop()
		s.release(e.slot)
		s.dead--
	}
	return heapEntry{}, nil, false
}

// dispatch removes the live top entry e, whose event is ev, releases its
// slot and runs the event.
func (s *Scheduler) dispatch(e heapEntry, ev *event) {
	s.pop()
	fn := ev.fn
	if s.obs != nil {
		s.obs.dispatched.Inc()
		s.obs.lag.Observe(float64(e.at - ev.born))
		s.obs.depth.Observe(float64(s.Pending()))
	}
	s.release(e.slot)
	s.now = e.at
	s.Processed++
	fn()
}

// PeekNext returns the time of the earliest live event without removing
// it, draining dead entries from the top of the heap, and false when no
// live event remains. The sharded driver reads it to find each epoch's
// start, and the wire's wall clock to arm its timer.
func (s *Scheduler) PeekNext() (Time, bool) {
	e, _, ok := s.top()
	return e.at, ok
}

// RunUntil executes events with timestamps <= deadline, advances the clock
// to deadline, and returns. Events scheduled beyond the deadline remain
// queued.
func (s *Scheduler) RunUntil(deadline Time) {
	for {
		e, ev, ok := s.top()
		if !ok || e.at > deadline {
			break
		}
		s.dispatch(e, ev)
	}
	if s.now < deadline && deadline < Time(1<<62-1) {
		s.now = deadline
	}
}

// The queue is a 4-ary min-heap: half the depth of a binary heap. Heap
// shape cannot affect dispatch order: less is a strict total order
// ((at, key, seq) with seq globally unique), so every correct heap yields
// the same pop sequence.
//
// heapPad is how far into its allocation the heap starts. The children
// of entry i sit at 4i+1..4i+4, so three 16-byte entries in, every
// sibling group starts on a 64-byte boundary whenever the allocation
// does, as every allocation above 32 KiB does: the four children a pop
// compares at each level share one cache line, and the dominant cost of
// a pop on a large queue is one cache miss per level.
const heapPad = 3

// grow doubles the heap's capacity, keeping it heapPad entries into its
// allocation.
func (s *Scheduler) grow() {
	n := len(s.queue)
	buf := make([]heapEntry, heapPad+n, heapPad+max(2*n, 16))
	copy(buf[heapPad:], s.queue)
	s.queue = buf[heapPad:]
}

// push adds an entry to the heap.
func (s *Scheduler) push(e heapEntry) {
	if len(s.queue) == cap(s.queue) {
		s.grow()
	}
	n := len(s.queue)
	s.queue = s.queue[:n+1]
	s.up(n, 0, e)
}

// up puts e in the hole at i, first moving the hole up past every
// ancestor e precedes, no higher than root.
func (s *Scheduler) up(i, root int, e heapEntry) {
	q := s.queue
	for i > root {
		p := (i - 1) / 4
		if !s.less(e, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

// pop removes the minimum entry from the heap.
func (s *Scheduler) pop() {
	n := len(s.queue) - 1
	last := s.queue[n]
	s.queue = s.queue[:n]
	if n > 0 {
		s.fill(0, last)
	}
}

// fill puts e in the hole at i, whose children head heaps. The hole
// first moves down to a leaf along the least child at each level, then
// e rises from there, no higher than i. On a pop e comes from the bottom
// of the heap and belongs near it, so this compares siblings with each
// other on the way down and e with few ancestors on the way up, instead
// of e with the least child at every level.
func (s *Scheduler) fill(i int, e heapEntry) {
	q := s.queue
	root := i
	for {
		i = descend(q, i)
		c := 4*i + 1
		if c >= len(q) {
			break
		}
		// Fewer than four children, or two that tie for the least time:
		// pick by the full order.
		m := c
		for k := c + 1; k < min(c+4, len(q)); k++ {
			if s.less(q[k], q[m]) {
				m = k
			}
		}
		q[i] = q[m]
		i = m
	}
	s.up(i, root, e)
}

// descend moves the hole at i down the heap q to the least of four
// children at each level, and returns where the hole stops: at a node
// with fewer than four children, or at one whose least child time is
// shared by a sibling, which only the slots' (key, seq) can order.
func descend(q []heapEntry, i int) int {
	n := len(q)
	for {
		c := 4*i + 1
		if c+4 > n {
			return i
		}
		g := (*[4]heapEntry)(q[c : c+4])
		k := minChild4(g[0].at, g[1].at, g[2].at, g[3].at)
		if tied(g, g[k].at) {
			return i
		}
		q[i] = g[k]
		i = c + k
	}
}

// minChild4 returns the position of the earliest of four sibling times.
// It has no branches: the compiler turns each comparison into a flag
// and each min into a conditional move, so a pop's descent does not
// mispredict on random times. The winning pair is chosen by a mask,
// k01 ^ (k01^k23)&-flag, because an if here compiles back to a branch.
func minChild4(a0, a1, a2, a3 Time) int {
	k01, k23 := b2i(a1 < a0), 2+b2i(a3 < a2)
	return (k01 ^ (k01^k23)&-b2i(min(a2, a3) < min(a0, a1))) & 3
}

// tied reports whether more than one of four sibling entries falls at
// time m.
func tied(g *[4]heapEntry, m Time) bool {
	return b2i(g[0].at == m)+b2i(g[1].at == m)+b2i(g[2].at == m)+b2i(g[3].at == m) > 1
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
