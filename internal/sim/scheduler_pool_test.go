package sim

import (
	"runtime"
	"testing"
)

// Pending must report live events only — cancelled events are excluded
// even while their heap entries await lazy draining (regression: the
// pre-pool scheduler counted them).
func TestSchedulerPendingExcludesCancelled(t *testing.T) {
	s := NewScheduler()
	ids := make([]EventID, 10)
	for i := range ids {
		ids[i] = s.At(Time(10+i), func() {})
	}
	if got := s.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	for i := 0; i < 4; i++ {
		s.Cancel(ids[i])
	}
	if got := s.Pending(); got != 6 {
		t.Fatalf("Pending after 4 cancels = %d, want 6", got)
	}
	// Double-cancel must not double-count.
	s.Cancel(ids[0])
	if got := s.Pending(); got != 6 {
		t.Fatalf("Pending after double cancel = %d, want 6", got)
	}
	s.Run()
	if s.Processed != 6 {
		t.Fatalf("ran %d events, want 6", s.Processed)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
}

// A stale EventID — one whose slot has been recycled by a later event —
// must not cancel the slot's new tenant.
func TestSchedulerStaleCancelIsInert(t *testing.T) {
	s := NewScheduler()
	stale := s.At(10, func() {})
	s.Cancel(stale) // slot freed, generation bumped

	ran := false
	s.At(20, func() { ran = true }) // expected to recycle the freed slot

	s.Cancel(stale) // stale id: same slot, old generation — must be a no-op
	s.Run()
	if !ran {
		t.Fatal("stale Cancel killed an unrelated recycled event")
	}
}

// Cancelling an event that already ran must not kill a later event that
// recycled its slot.
func TestSchedulerCancelAfterRunIsInert(t *testing.T) {
	s := NewScheduler()
	var id1 EventID
	ran2 := false
	id1 = s.At(10, func() {
		// id1's slot is released before fn runs; this At may recycle it.
		s.At(20, func() { ran2 = true })
		s.Cancel(id1)
	})
	s.Run()
	if !ran2 {
		t.Fatal("Cancel of an already-run event killed a recycled event")
	}
}

// Mass cancellation must trigger compaction so the heap does not pin
// dead entries for the rest of the run.
func TestSchedulerCompactionAfterMassCancel(t *testing.T) {
	s := NewScheduler()
	ids := make([]EventID, 1000)
	for i := range ids {
		ids[i] = s.At(Time(i+1), func() {})
	}
	for _, id := range ids[:900] {
		s.Cancel(id)
	}
	if got := s.Pending(); got != 100 {
		t.Fatalf("Pending = %d, want 100", got)
	}
	if len(s.queue) > 200 {
		t.Fatalf("heap holds %d entries after mass cancel, want compaction to <= 200", len(s.queue))
	}
	s.Run()
	if s.Processed != 100 {
		t.Fatalf("ran %d events, want 100", s.Processed)
	}
}

// Interleaved schedule/cancel/run must preserve timestamp-then-FIFO order
// among surviving events.
func TestSchedulerOrderWithCancellations(t *testing.T) {
	s := NewScheduler()
	var order []int
	keep := func(n int) EventID { return s.At(Time(n), func() { order = append(order, n) }) }
	keep(5)
	c1 := keep(3)
	keep(8)
	c2 := keep(1)
	keep(3) // same time as c1, later seq — must still run after nothing (c1 dead)
	s.Cancel(c1)
	s.Cancel(c2)
	s.Run()
	want := []int{3, 5, 8}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Steady-state scheduling must not allocate: slots and heap entries are
// recycled once the pool reaches its high-water mark.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	// Warm the pool and heap to their high-water marks.
	for i := 0; i < 64; i++ {
		s.After(1, fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			s.After(1, fn)
		}
		s.Run()
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule+run allocated %.1f times per run, want 0", allocs)
	}
}

// The zero EventID is valid and cancels nothing.
func TestSchedulerCancelZeroID(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.At(1, func() { ran = true })
	s.Cancel(EventID{})
	s.Run()
	if !ran {
		t.Fatal("Cancel of zero EventID killed a live event")
	}
}

// A cancelled event's slot stays with its heap entry until the entry
// leaves the heap, so a same-time comparison never reads the (key, seq)
// of a recycled slot: no event scheduled meanwhile is given the slot,
// and it is reissued only once the dead entry has been drained.
func TestSchedulerCancelledSlotHeldWhileQueued(t *testing.T) {
	s := NewScheduler()
	dead := s.At(10, func() {})
	s.Cancel(dead)
	for i := 0; i < 100; i++ {
		if id := s.At(Time(20+i), func() {}); id.slot == dead.slot {
			t.Fatalf("event %d was given the cancelled event's slot while its entry is queued", i)
		}
	}
	s.RunUntil(10) // drains the dead entry; nothing runs
	if s.Processed != 0 || s.dead != 0 {
		t.Fatalf("RunUntil(10) ran %d events and left %d dead entries, want 0 and 0", s.Processed, s.dead)
	}
	ran := false
	if id := s.At(15, func() { ran = true }); id.slot != dead.slot {
		t.Fatalf("the drained slot %d was not reissued; the next event got slot %d", dead.slot, id.slot)
	}
	s.Cancel(dead) // stale: must not cancel the slot's new tenant
	s.Run()
	if !ran {
		t.Fatal("a stale Cancel killed the slot's new tenant")
	}
}

// scheduleBytes returns the bytes that scheduling n events into a new
// scheduler allocates, the Scheduler itself not counted.
func scheduleBytes(n int) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn := func() {}
	s := NewScheduler()
	runtime.GC() // the process's first collection allocates for itself
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		s.At(Time(i), fn)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	return after.TotalAlloc - before.TotalAlloc
}

// The slot pool grows in chunks that never move, so a deep pool leaves
// no outgrown arrays behind: 100,000 events keep 56 bytes each (a
// 40-byte slot and a 16-byte heap entry) and may allocate at most twice
// that. A pool grown by append copying allocated 265 bytes per event.
// A pool that stays in the first chunk grows by append as one slice
// would, so 1,000 events allocate exactly what they did before chunks:
// a whole first chunk up front would cost small simulations 40 KiB.
func TestSchedulerGrowthBytes(t *testing.T) {
	const deep = 100_000
	per := float64(scheduleBytes(deep)) / deep
	t.Logf("%d events: %.1f bytes per event", deep, per)
	if per > 112 {
		t.Errorf("scheduling %d events allocated %.1f bytes per event, want <= 112", deep, per)
	}
	const appendGrown = 126_880 // a []event and the heap, each grown by doubling
	if got := scheduleBytes(1000); got != appendGrown {
		t.Errorf("scheduling 1000 events allocated %d bytes, want %d", got, appendGrown)
	}
}

// A slot never moves once handed out and its chunk is full: the first
// chunk moves only while it grows, and every later chunk is allocated
// whole.
func TestSchedulerSlotsDoNotMove(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	addr := make([]*event, 0, 10*chunkSlots)
	for i := 0; i < 10*chunkSlots; i++ {
		s.At(Time(i), fn)
		if i == chunkSlots-1 {
			for j := 0; j <= i; j++ {
				addr = append(addr, s.slot(uint32(j)))
			}
		} else if i >= chunkSlots {
			addr = append(addr, s.slot(uint32(i)))
		}
	}
	for i, p := range addr {
		if q := s.slot(uint32(i)); q != p {
			t.Fatalf("slot %d moved from %p to %p as the pool grew to %d slots", i, p, q, len(addr))
		}
	}
}

// Slots on either side of a chunk boundary follow the pool's rules: a
// cancelled slot is held while its heap entry is queued and reissued
// once the entry drains, the last released first; a stale ID for it
// cancels nothing; and its new tenant can be cancelled and run.
func TestSchedulerChunkBoundarySlots(t *testing.T) {
	edges := []uint32{chunkSlots - 1, chunkSlots, 2*chunkSlots - 1, 2 * chunkSlots}
	s := NewScheduler()
	ran := 0
	fn := func() { ran++ }
	// Every slot's event runs at 100 or later, except the edges', which
	// run at 1, 2, 3 and 4.
	ids := make([]EventID, 2*chunkSlots+8)
	for i := range ids {
		at := Time(100 + i)
		for k, e := range edges {
			if uint32(i) == e {
				at = Time(1 + k)
			}
		}
		if ids[i] = s.At(at, fn); ids[i].slot != uint32(i)+1 {
			t.Fatalf("event %d was given slot %d, want %d", i, ids[i].slot-1, i)
		}
	}
	for _, e := range edges {
		s.Cancel(ids[e])
	}
	if got, want := s.Pending(), len(ids)-len(edges); got != want {
		t.Fatalf("Pending = %d after cancelling the edge slots, want %d", got, want)
	}
	// Held while queued: an event scheduled now takes a fresh slot.
	for i := 0; i < 4; i++ {
		if id := s.At(50, fn); id.slot-1 < uint32(len(ids)) {
			t.Fatalf("event scheduled with the edges' entries queued was given slot %d", id.slot-1)
		}
	}
	s.RunUntil(4) // drains the four dead entries; nothing runs
	if ran != 0 || s.dead != 0 {
		t.Fatalf("RunUntil(4) ran %d events and left %d dead entries, want 0 and 0", ran, s.dead)
	}
	// Released in time order, reissued last released first.
	tenants := make([]EventID, len(edges))
	for k := range edges {
		tenants[k] = s.At(10, fn)
		if want := edges[len(edges)-1-k]; tenants[k].slot-1 != want {
			t.Fatalf("reissue %d took slot %d, want %d", k, tenants[k].slot-1, want)
		}
	}
	for _, e := range edges {
		s.Cancel(ids[e]) // stale: must not touch the new tenant
	}
	if got, want := s.Pending(), len(ids)+4; got != want {
		t.Fatalf("Pending = %d after stale cancels, want %d", got, want)
	}
	s.Cancel(tenants[0])
	s.Run()
	if want := len(ids) + 4 - 1; ran != want {
		t.Fatalf("ran %d events, want %d", ran, want)
	}
}
