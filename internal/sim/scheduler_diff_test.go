package sim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// refEvent is one pending event of the reference scheduler.
type refEvent struct {
	at    Time
	key   uint64
	seq   uint64
	label int
}

// refScheduler is the oracle the scheduler is checked against: pending
// events in a plain slice, the next one found by a scan for the smallest
// (at, key, seq), and cancellation by label.
type refScheduler struct {
	now     Time
	seq     uint64
	pending []refEvent
	ran     []int
	// child maps a label to the event it schedules when it runs.
	child map[int]childSpec
}

// childSpec is an event scheduled from inside a running one: delay after
// the running event's time, under key, labelled label.
type childSpec struct {
	delay Time
	key   uint64
	label int
}

func (r *refScheduler) schedule(at Time, key uint64, label int) {
	r.pending = append(r.pending, refEvent{at: at, key: key, seq: r.seq, label: label})
	r.seq++
}

func (r *refScheduler) cancel(label int) {
	r.pending = slices.DeleteFunc(r.pending, func(e refEvent) bool { return e.label == label })
}

// next returns the index of the earliest pending event, or -1.
func (r *refScheduler) next() int {
	best := -1
	for i, e := range r.pending {
		if best < 0 {
			best = i
			continue
		}
		b := r.pending[best]
		if e.at < b.at || e.at == b.at && (e.key < b.key || e.key == b.key && e.seq < b.seq) {
			best = i
		}
	}
	return best
}

func (r *refScheduler) step() bool {
	i := r.next()
	if i < 0 {
		return false
	}
	e := r.pending[i]
	r.pending = slices.Delete(r.pending, i, i+1)
	r.now = e.at
	r.ran = append(r.ran, e.label)
	if c, ok := r.child[e.label]; ok {
		r.schedule(r.now+c.delay, c.key, c.label)
	}
	return true
}

func (r *refScheduler) runUntil(deadline Time) {
	for {
		i := r.next()
		if i < 0 || r.pending[i].at > deadline {
			break
		}
		r.step()
	}
	if r.now < deadline && deadline < Time(1<<62-1) {
		r.now = deadline
	}
}

// TestSchedulerMatchesReference drives the scheduler and the reference
// with the same random mix of At, AtKeyed, Cancel, Step and RunUntil
// calls and checks, after every call, that both ran the same events in
// the same order, hold the same number of pending events and read the
// same clock. Times fall in a narrow window and keys in {0..3}, so
// same-time and same-key ties are common; some events schedule a child
// when they run, at a delay of 0 included; cancels hit pending, already
// run, already cancelled (stale) and zero IDs; and bursts of scheduling
// followed by mass cancels drive the heap's compaction.
//
// The deep subtests hold at least 50,000 pending events; see
// checkDeepHeap.
func TestSchedulerMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { checkAgainstReference(t, seed, 2000) })
	}
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("deep/seed=%d", seed), func(t *testing.T) { checkDeepHeap(t, seed, 50_000) })
	}
}

// checkDeepHeap drives the scheduler through heaps of at least depth
// pending events, far deeper than checkAgainstReference's. Each round
// tops the heap up: most times are distinct, drawn from a wide window,
// and one in eight falls on one of 64 shared ticks, so sibling entries
// tie on time and the heap must order them by (key, seq). It then
// cancels a tenth of what is pending and re-arms each cancelled event,
// half of them at its old time and key, while the dead entries are
// still queued, and runs until a deadline inside the window. No event
// schedules another, so the oracle is a sort: RunUntil(d) must run
// exactly the pending events at or before d, in (at, key, seq) order.
func checkDeepHeap(t *testing.T, seed uint64, depth int) {
	rng := NewRNG(seed)
	s := NewScheduler()
	var ran, want []int
	var ids []EventID      // by label
	var pending []refEvent // the oracle's; cancelled labels are skipped at the next sort
	cancelled := map[int]bool{}
	var seq uint64
	schedule := func(at Time, key uint64) {
		label := len(ids)
		ids = append(ids, s.AtKeyed(at, key, func() { ran = append(ran, label) }))
		pending = append(pending, refEvent{at: at, key: key, seq: seq, label: label})
		seq++
	}
	const window = 1 << 24
	// sortPending drops cancelled events from the oracle and sorts the
	// rest into dispatch order.
	sortPending := func() {
		pending = slices.DeleteFunc(pending, func(e refEvent) bool { return cancelled[e.label] })
		slices.SortFunc(pending, func(a, b refEvent) int {
			if a.at != b.at {
				return cmp.Compare(a.at, b.at)
			}
			if a.key != b.key {
				return cmp.Compare(a.key, b.key)
			}
			return cmp.Compare(a.seq, b.seq)
		})
	}
	for round := 0; round < 6; round++ {
		for s.Pending() < depth {
			at := s.Now() + 1 + Time(rng.Intn(window))
			if rng.Bool(0.125) {
				at = s.Now() + Time(1+rng.Intn(64))*(window/64)
			}
			schedule(at, uint64(rng.Intn(4)))
		}
		sortPending()
		if s.Pending() != len(pending) {
			t.Fatalf("round %d: Pending() = %d, reference %d", round, s.Pending(), len(pending))
		}
		for _, e := range pending {
			if !rng.Bool(0.1) {
				continue
			}
			s.Cancel(ids[e.label])
			cancelled[e.label] = true
			if rng.Bool(0.5) {
				schedule(e.at, e.key)
			} else {
				schedule(s.Now()+1+Time(rng.Intn(window)), e.key)
			}
		}
		if s.dead == 0 {
			t.Fatalf("round %d: no cancelled entry is still queued", round)
		}
		sortPending()
		d := s.Now() + Time(rng.Intn(window/2))
		s.RunUntil(d)
		n := 0
		for n < len(pending) && pending[n].at <= d {
			want = append(want, pending[n].label)
			n++
		}
		pending = pending[n:]
		if !slices.Equal(ran, want) {
			t.Fatalf("round %d: ran %v,\nreference ran %v", round, tail(ran), tail(want))
		}
		if s.Pending() != len(pending) {
			t.Fatalf("round %d: Pending() = %d after RunUntil, reference %d", round, s.Pending(), len(pending))
		}
	}
	s.Run()
	sortPending()
	for _, e := range pending {
		want = append(want, e.label)
	}
	if !slices.Equal(ran, want) {
		t.Fatalf("final drain: ran %v,\nreference ran %v", tail(ran), tail(want))
	}
}

func checkAgainstReference(t *testing.T, seed uint64, ops int) {
	rng := NewRNG(seed)
	s := NewScheduler()
	ref := &refScheduler{child: map[int]childSpec{}}
	var ran []int
	var ids []EventID // every ID handed out
	labelOf := map[EventID]int{}
	labels := 0
	mk := func(label int) func() {
		return func() {
			ran = append(ran, label)
			if c, ok := ref.child[label]; ok {
				id := s.AtKeyed(s.Now()+c.delay, c.key, func() { ran = append(ran, c.label) })
				ids = append(ids, id)
				labelOf[id] = c.label
			}
		}
	}
	schedule := func(at Time, key uint64, keyed bool) EventID {
		label := labels
		labels++
		var id EventID
		if keyed {
			id = s.AtKeyed(at, key, mk(label))
		} else {
			id, key = s.At(at, mk(label)), 0
		}
		ref.schedule(at, key, label)
		if rng.Bool(0.2) {
			ref.child[label] = childSpec{delay: Time(rng.Intn(3)), key: uint64(rng.Intn(4)), label: -label - 1}
		}
		ids = append(ids, id)
		labelOf[id] = label
		return id
	}
	compactions := 0
	cancel := func(id EventID) {
		dead := s.dead
		s.Cancel(id)
		if id != (EventID{}) {
			ref.cancel(labelOf[id])
		}
		if s.dead < dead {
			compactions++
		}
		if s.dead > 32 && 2*s.dead > len(s.queue) {
			t.Fatalf("a cancel left %d dead entries of %d uncompacted", s.dead, len(s.queue))
		}
	}
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(100); {
		case k < 30:
			schedule(s.Now()+Time(rng.Intn(20)), 0, false)
		case k < 55:
			schedule(s.Now()+Time(rng.Intn(20)), uint64(rng.Intn(4)), true)
		case k < 70:
			// Any ID ever handed out: pending, already run or already
			// cancelled, its slot possibly recycled since.
			if len(ids) > 0 {
				cancel(ids[rng.Intn(len(ids))])
			}
		case k < 72:
			cancel(EventID{})
		case k < 85:
			if got, want := s.Step(), ref.step(); got != want {
				t.Fatalf("op %d: Step() = %v, reference %v", op, got, want)
			}
		case k < 97:
			d := s.Now() + Time(rng.Intn(25))
			s.RunUntil(d)
			ref.runUntil(d)
		default:
			// A burst, then cancel nearly everything pending: enough dead
			// entries to compact the heap.
			var burst []EventID
			for range 100 + rng.Intn(100) {
				burst = append(burst, schedule(s.Now()+Time(rng.Intn(20)), uint64(rng.Intn(4)), rng.Bool(0.5)))
			}
			for _, id := range burst {
				if !rng.Bool(0.1) {
					cancel(id)
				}
			}
		}
		if !slices.Equal(ran, ref.ran) {
			t.Fatalf("op %d: ran %v,\nreference ran %v", op, tail(ran), tail(ref.ran))
		}
		if s.Pending() != len(ref.pending) {
			t.Fatalf("op %d: Pending() = %d, reference %d", op, s.Pending(), len(ref.pending))
		}
		if s.Now() != ref.now {
			t.Fatalf("op %d: Now() = %v, reference %v", op, s.Now(), ref.now)
		}
	}
	if compactions == 0 {
		t.Fatal("no cancel compacted the heap")
	}
	s.Run()
	ref.runUntil(Time(1<<62 - 1))
	if !slices.Equal(ran, ref.ran) {
		t.Fatalf("final drain: ran %v,\nreference ran %v", tail(ran), tail(ref.ran))
	}
}

// tail is the last few labels of a log, enough to show where two logs
// part.
func tail(log []int) string {
	return fmt.Sprintf("%d events, last %v", len(log), log[max(0, len(log)-12):])
}
