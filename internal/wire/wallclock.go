package wire

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// WallClock runs the multipath state machine on real time: Now is
// nanoseconds since the clock's construction, and timers live in a
// sim.Scheduler — the simulator's pooled, generation-counted event heap
// — drained in wall time by one goroutine. That goroutine runs each due
// callback under the clock's mutex, and the sender's other entry points
// (Start, HandleAck) hold the same mutex, so the state machine sees the
// strictly serial world it was written for, the one the simulator's
// scheduler provides by construction. After and Cancel must be called
// with the mutex held; Cancel is then exact — a cancelled callback never
// runs — and arming a timer allocates nothing once the pool is warm.
type WallClock struct {
	mu    sync.Mutex
	epoch time.Time
	sched *sim.Scheduler

	// wakeAt is the deadline the timer goroutine sleeps until (never,
	// when idle); arming an earlier timer wakes it to re-plan.
	wakeAt  sim.Time
	running bool
	stopped bool
	wake    chan struct{}
	quit    chan struct{}
	exited  chan struct{}
}

const never = sim.Time(1<<62 - 1)

// NewWallClock starts a wall clock at t=0. The timer goroutine starts
// with the first After; Stop ends it.
func NewWallClock() *WallClock {
	return &WallClock{
		epoch:  time.Now(),
		sched:  sim.NewScheduler(),
		wakeAt: never,
		wake:   make(chan struct{}, 1),
		quit:   make(chan struct{}),
		exited: make(chan struct{}),
	}
}

// Now returns nanoseconds since the clock's epoch.
func (c *WallClock) Now() sim.Time { return sim.Time(time.Since(c.epoch)) }

// After arms fn to run once, d from now, on the timer goroutine under
// the clock's lock. The caller holds the lock.
func (c *WallClock) After(d sim.Time, fn func()) sim.EventID {
	if d < 0 {
		d = 0
	}
	at := c.Now() + d
	id := c.sched.At(at, fn)
	if c.stopped {
		return id
	}
	if !c.running {
		c.running = true
		go c.run()
	}
	if at < c.wakeAt {
		c.wakeAt = at
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
	return id
}

// Cancel disarms a pending callback. The caller holds the lock, so the
// callback cannot be running concurrently and never runs afterwards.
func (c *WallClock) Cancel(id sim.EventID) { c.sched.Cancel(id) }

// Lock takes the clock's serialization lock (for non-timer entry
// points into the state machine).
func (c *WallClock) Lock() { c.mu.Lock() }

// Unlock releases the serialization lock.
func (c *WallClock) Unlock() { c.mu.Unlock() }

// Stop ends the timer goroutine and waits for it to exit; timers still
// armed never fire. Stop must be called without the lock held.
func (c *WallClock) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	running := c.running
	c.mu.Unlock()
	close(c.quit)
	if running {
		<-c.exited
	}
}

// run is the timer goroutine: fire everything due, then sleep until the
// earliest remaining deadline, an earlier arming, or Stop.
func (c *WallClock) run() {
	defer close(c.exited)
	t := time.NewTimer(time.Hour)
	defer t.Stop()
	for {
		c.mu.Lock()
		c.sched.RunUntil(c.Now())
		next, ok := c.sched.PeekNext()
		if !ok {
			next = never
		}
		c.wakeAt = next
		c.mu.Unlock()

		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
		if ok {
			t.Reset(time.Duration(next - c.Now()))
		}
		select {
		case <-c.quit:
			return
		case <-c.wake:
		case <-t.C:
		}
	}
}
