package invariant

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// maxViolations caps how many violations a checker retains verbatim;
// beyond it only the total count grows. A single broken invariant in a
// large trial can fire thousands of times, and the first few are what a
// reproducer needs.
const maxViolations = 64

// Checker validates invariants against one running simulation. It plugs
// into the existing observability seams rather than adding new ones:
//
//   - as an obs.Sink it consumes the netsim event stream (send, enqueue,
//     dup, deliver, drop) for the conservation, queue-bound, and clock
//     invariants — when no tracer is attached the forwarding fast path
//     pays its usual single nil check and nothing else;
//   - as a chaos.Observer it snapshots ground-truth connectivity after
//     every applied fault, building the epoch timeline the cut-delivery
//     invariant is judged against;
//   - post-run, CheckTrace / CheckRoutes / Finish validate per-packet
//     traces, installed routing tables, and global packet accounting.
//
// A Checker is single-threaded, like the simulation it observes.
type Checker struct {
	Net *netsim.Network

	enabled map[string]bool

	// Event-stream accounting (conservation, queue-bound, clock).
	sends, dups, delivers, drops int
	lastTime                     int64

	// epochs is the connectivity timeline: one entry per fault
	// application (plus the initial state), each recording the connected
	// components of the live topology from that instant on.
	epochs []epoch

	violations []Violation
}

// epoch is one interval of constant ground-truth connectivity.
type epoch struct {
	start sim.Time
	comp  map[topology.NodeID]int
}

// NewChecker builds a checker over net with the given invariant set
// (nil arms all). Attach it as the network's tracer sink and register it
// as a chaos engine observer, then call BeginEpoch before traffic starts.
func NewChecker(net *netsim.Network, enabled map[string]bool) *Checker {
	if enabled == nil {
		enabled = AllSet()
	}
	return &Checker{Net: net, enabled: enabled}
}

// Violations returns the retained violations: the first maxViolations
// detected.
func (c *Checker) Violations() []Violation { return c.violations }

// Report records a violation of the named invariant, if it is armed.
func (c *Checker) Report(invariant, detail string, timeNs int64) {
	if !c.enabled[invariant] {
		return
	}
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, Violation{Invariant: invariant, Detail: detail, TimeNs: timeNs})
	}
}

// Emit implements obs.Sink: the live event-stream checks.
func (c *Checker) Emit(e obs.Event) {
	if e.Time < c.lastTime {
		c.Report(Clock, fmt.Sprintf("event %s/%s at node %d has time %dns, before previous event at %dns",
			e.Scope, e.Kind, e.Node, e.Time, c.lastTime), e.Time)
	} else {
		c.lastTime = e.Time
	}
	if e.Scope != "netsim" {
		return
	}
	switch e.Kind {
	case "send":
		c.sends++
	case "dup":
		c.dups++
	case "deliver":
		c.delivers++
	case "drop":
		c.drops++
		if e.Detail == "" {
			c.Report(Conservation, fmt.Sprintf("unreasoned drop at node %d", e.Node), e.Time)
		}
	case "enqueue":
		if max := float64(c.Net.MaxQueue); e.Value > max {
			c.Report(QueueBound, fmt.Sprintf("node %d admitted a packet leaving %.0fns of backlog, above MaxQueue %.0fns",
				e.Node, e.Value, max), e.Time)
		}
	}
}

// Fault implements chaos.Observer: every applied fault (including each
// individual flap toggle) opens a new connectivity epoch. The network
// already reflects the fault when observers run, so the snapshot is the
// post-fault ground truth.
func (c *Checker) Fault(ev chaos.Event, now sim.Time) {
	if !c.enabled[CutDelivery] {
		return
	}
	c.epochs = append(c.epochs, epoch{start: now, comp: Components(c.Net)})
}

// BeginEpoch records the initial (pre-fault) connectivity. Call it after
// wiring and before the scheduler runs.
func (c *Checker) BeginEpoch() {
	if !c.enabled[CutDelivery] {
		return
	}
	c.epochs = append(c.epochs, epoch{start: c.Net.Sched.Now(), comp: Components(c.Net)})
}

// Components labels every node with a connected-component index over the
// currently-live topology (failed links skipped, crashed nodes isolated
// with component -1). Deterministic: nodes are visited in ID order.
func Components(net *netsim.Network) map[topology.NodeID]int {
	g := net.Graph
	comp := make(map[topology.NodeID]int, len(g.Nodes))
	next := 0
	for _, id := range g.NodeIDs() {
		if net.NodeFailed(id) {
			comp[id] = -1
			continue
		}
		if _, seen := comp[id]; seen {
			continue
		}
		comp[id] = next
		queue := []topology.NodeID{id}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range g.Neighbors(cur) {
				if net.NodeFailed(nb) || net.LinkFailed(cur, nb) {
					continue
				}
				if _, seen := comp[nb]; seen {
					continue
				}
				comp[nb] = next
				queue = append(queue, nb)
			}
		}
		next++
	}
	return comp
}

// reachableDuring reports whether a temporal path from src to dst
// existed during [t0, t1]: walking the connectivity epochs overlapping
// the flight in order, the set of nodes reachable from src is closed
// under each epoch's components in turn. Store-and-forward delivery is
// legitimate across a *sequence* of epochs none of which has end-to-end
// connectivity — a packet can cross each link while it is individually
// up (e.g. riding out a flap in a queue) — so only the absence of any
// temporal path convicts a delivery.
func (c *Checker) reachableDuring(src, dst topology.NodeID, t0, t1 sim.Time) bool {
	if len(c.epochs) == 0 {
		return true // no timeline recorded: nothing to judge against
	}
	reached := map[topology.NodeID]bool{src: true}
	for i, ep := range c.epochs {
		end := sim.Time(1<<62 - 1)
		if i+1 < len(c.epochs) {
			end = c.epochs[i+1].start
		}
		if end <= t0 {
			continue
		}
		if ep.start > t1 {
			break
		}
		comps := make(map[int]bool)
		for n := range reached {
			if cc, ok := ep.comp[n]; ok && cc >= 0 {
				comps[cc] = true
			}
		}
		for n, cc := range ep.comp {
			if cc >= 0 && comps[cc] {
				reached[n] = true
			}
		}
		if reached[dst] {
			return true
		}
	}
	return false
}

// CheckTrace validates one completed per-packet trace: exactly one
// terminal event, non-decreasing timestamps, a hop-adjacent path, a
// forward count bounded by the packet's TTL (the trace invariant), and —
// for delivered packets — that the endpoints were connected at some
// point during the flight (the cut-delivery invariant).
func (c *Checker) CheckTrace(tr *netsim.Trace, maxTTL int) {
	if tr == nil {
		return
	}
	if !c.enabled[TraceValid] && !c.enabled[CutDelivery] {
		return
	}
	evs := tr.Events
	if len(evs) == 0 {
		c.Report(TraceValid, "trace has no events", int64(tr.SentAt))
		return
	}
	last := evs[len(evs)-1]
	switch {
	case tr.Delivered && tr.DropReason != "":
		c.Report(TraceValid, fmt.Sprintf("trace both delivered and dropped (%q at node %d)", tr.DropReason, tr.DropNode), int64(tr.DoneAt))
	case tr.Delivered && last.Action != "deliver":
		c.Report(TraceValid, fmt.Sprintf("delivered trace ends with %q at node %d, not a deliver event", last.Action, last.Node), int64(last.At))
	case !tr.Delivered && last.Action != "drop":
		c.Report(TraceValid, fmt.Sprintf("undelivered trace ends with %q at node %d, not a drop event", last.Action, last.Node), int64(last.At))
	}
	forwards := 0
	for i, e := range evs {
		if e.Action == "forward" {
			forwards++
		}
		if i == 0 {
			continue
		}
		prev := evs[i-1]
		if e.At < prev.At {
			c.Report(TraceValid, fmt.Sprintf("trace timestamps regress: event %d at %dns after event %d at %dns",
				i, e.At, i-1, prev.At), int64(e.At))
		}
		if e.Node != prev.Node {
			if _, adjacent := c.Net.Graph.LinkBetween(prev.Node, e.Node); !adjacent {
				c.Report(TraceValid, fmt.Sprintf("trace teleports: node %d to non-adjacent node %d (event %d)",
					prev.Node, e.Node, i), int64(e.At))
			}
		}
	}
	if maxTTL > 0 && forwards > maxTTL {
		c.Report(TraceValid, fmt.Sprintf("trace took %d forward hops, above TTL %d", forwards, maxTTL), int64(tr.DoneAt))
	}
	if tr.Delivered {
		src, dst := evs[0].Node, last.Node
		if src != dst && !c.reachableDuring(src, dst, tr.SentAt, tr.DoneAt) {
			c.Report(CutDelivery, fmt.Sprintf("packet delivered from %d to %d with no temporal path across the cut during its flight [%d,%d]ns",
				src, dst, tr.SentAt, tr.DoneAt), int64(tr.DoneAt))
		}
	}
}

// CheckRoutes walks every node's installed RouteFunc toward every
// destination and reports forwarding loops: a walk that takes more steps
// than there are nodes can only be cycling. Call it after the scheduler
// drains, when reconvergence (including delayed installs) is complete.
func (c *Checker) CheckRoutes() {
	if !c.enabled[LoopFree] {
		return
	}
	ids := c.Net.Graph.NodeIDs()
	for _, dst := range ids {
		if c.Net.NodeFailed(dst) {
			continue
		}
		addr := packet.MakeAddr(uint16(dst), 1)
		tip := packet.TIP{Dst: addr}
		for _, src := range ids {
			if src == dst || c.Net.NodeFailed(src) {
				continue
			}
			cur := src
			for steps := 0; ; steps++ {
				if steps > len(ids) {
					c.Report(LoopFree, fmt.Sprintf("routing loop: walking from %d toward %d did not terminate within %d hops",
						src, dst, len(ids)), int64(c.Net.Sched.Now()))
					break
				}
				if cur == dst || c.Net.NodeFailed(cur) {
					break // arrived, or the packet would die here — no loop
				}
				nd := c.Net.Node(cur)
				if nd.Route == nil {
					break
				}
				next, ok := nd.Route(addr, &tip)
				if !ok || next == cur {
					break
				}
				if _, adjacent := c.Net.Graph.LinkBetween(cur, next); !adjacent {
					break // would drop bad-next-hop; broken, but not a loop
				}
				cur = next
			}
		}
	}
}

// Finish closes the run: the global packet-conservation check. Every
// entry into the network (send or injected duplicate) must have exactly
// one terminal event (deliver or drop).
func (c *Checker) Finish() {
	if !c.enabled[Conservation] {
		return
	}
	in, out := c.sends+c.dups, c.delivers+c.drops
	if in != out {
		c.Report(Conservation, fmt.Sprintf("packet conservation broken: %d sends + %d dups = %d in, but %d delivers + %d drops = %d out",
			c.sends, c.dups, in, c.delivers, c.drops, out), int64(c.Net.Sched.Now()))
	}
}
