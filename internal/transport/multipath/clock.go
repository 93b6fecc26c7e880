package multipath

import "repro/internal/sim"

// This file is the substrate seam: the sender's demotion / probation /
// promotion state machine is written once against Clock and Driver, and
// runs unchanged on the simulator's virtual scheduler (SimClock) and on
// the wall clock (internal/wire's WallClock, a sim.Scheduler drained in
// real time). The determinism contract for the wire port rests on this
// seam: given the same Config, candidate set, and segment/ACK byte
// stream at the same clock readings, both substrates must make
// byte-identical decisions — the differential harness in internal/wire
// pins that.

// Clock is the timer substrate a Sender runs on. Implementations must
// deliver callbacks serially with respect to the sender's other entry
// points (the scheduler is single-threaded; WallClock serializes with a
// mutex), and Cancel must be exact: a cancelled callback never runs.
// The state machine relies on that instead of defusing stale callbacks.
type Clock interface {
	// Now is the current time. Wall clocks report nanoseconds since an
	// arbitrary epoch; only differences matter.
	Now() sim.Time
	// After arms fn to run once, d from now.
	After(d sim.Time, fn func()) sim.EventID
	// Cancel disarms a pending callback. Cancelling the zero EventID or
	// one that already ran is a no-op.
	Cancel(id sim.EventID)
}

// SimClock adapts the simulation scheduler to Clock. It is the
// substrate behind NewSender; exported so harnesses can drive a wire
// sender on virtual time.
type SimClock struct {
	Sched *sim.Scheduler
}

// Now returns the scheduler's current virtual time.
func (c SimClock) Now() sim.Time { return c.Sched.Now() }

// After schedules fn on the scheduler.
func (c SimClock) After(d sim.Time, fn func()) sim.EventID { return c.Sched.After(d, fn) }

// Cancel cancels a scheduled callback.
func (c SimClock) Cancel(id sim.EventID) { c.Sched.Cancel(id) }

// Driver is everything substrate-specific about running a Sender: the
// clock, the transmission hooks, and the observers. NewSender fills it
// with the netsim substrate; wire.MultipathSender fills it with UDP
// sockets and batched sends.
type Driver struct {
	// Clock provides Now and timers. Required.
	Clock Clock
	// Xmit transmits segment seq over path p (serialization and I/O are
	// the driver's business; the core supplies Segment(seq) and the
	// path's on-wire ID). An error is terminal for the transfer.
	// Required.
	Xmit func(p *Path, seq uint32) error
	// Flush, if set, runs at the end of every state-machine entry point
	// (Start, HandleAck, and timer callbacks) so drivers that batch
	// transmissions can push the accumulated queue in one syscall.
	Flush func()
	// Trace, if set, receives one line per sender decision
	// ("t=<ns> tx seq=... path=... rto=..."). The line format is shared
	// by both substrates and diffed by the differential harness; it is
	// part of the determinism contract.
	Trace func(line string)
	// OnDone, if set, runs once when the transfer finishes or fails —
	// the wall-clock driver's completion signal.
	OnDone func()
}
