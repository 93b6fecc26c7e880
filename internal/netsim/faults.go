package netsim

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// This file is the simulator's failure injection, the first half of what
// §VI-A asks for: "Failures of transparency will occur — design what
// happens then... Tools for fault isolation and error reporting would
// help." The other half is the per-packet Trace, which records where a
// packet died and why, as far as the devices on its path disclose it.
//
// Fault state lives only in the dense tables the forwarding path reads.
// The mutations below panic on a link or node the topology does not
// have, as Node does for an unknown ID; the queries report false.

// mustLink returns the link index of a–b, panicking when the topology
// has no such link (a wiring bug).
func (n *Network) mustLink(a, b topology.NodeID) int32 {
	li := n.linkIndex(a, b)
	if li < 0 {
		panic(fmt.Sprintf("netsim: no link %d-%d", a, b))
	}
	return li
}

// FailLink marks the link between a and b down in both directions.
// Transit over a failed link drops with reason "link-down".
func (n *Network) FailLink(a, b topology.NodeID) { n.lt.failed[n.mustLink(a, b)] = true }

// RestoreLink brings a failed link back.
func (n *Network) RestoreLink(a, b topology.NodeID) { n.lt.failed[n.mustLink(a, b)] = false }

// LinkFailed reports whether the link between a and b exists and is
// currently down.
func (n *Network) LinkFailed(a, b topology.NodeID) bool {
	li := n.linkIndex(a, b)
	return li >= 0 && n.lt.failed[li]
}

// FailNode crashes a node: it stops forwarding, delivering, and
// originating traffic. Packets already in flight toward it are dropped
// silently at the dead node ("node-down" — a crashed router cannot send
// error reports); packets subsequently routed at a live neighbor toward
// the dead one are dropped at the neighbor with reason "peer-down" (the
// keepalive-loss detection that lets diagnostics localize the crash).
func (n *Network) FailNode(id topology.NodeID) { n.nodeDown[n.Node(id).ID] = true }

// RecoverNode brings a crashed node back. Its routing state (RouteFunc,
// middleboxes, counters) is whatever it was before the crash; protocols
// that want to model cold-start reconvergence do so via their fault
// observers.
func (n *Network) RecoverNode(id topology.NodeID) { n.nodeDown[n.Node(id).ID] = false }

// NodeFailed reports whether the node exists and is currently crashed.
func (n *Network) NodeFailed(id topology.NodeID) bool {
	return int(id) < len(n.nodeDown) && n.nodeDown[id]
}

// LinkImpairment describes packet-level damage on one link: each
// transiting packet is independently corrupted (dropped at the receiver
// with reason "corrupt") with probability Corrupt, duplicated with
// probability Duplicate, and delayed by a uniform jitter in
// [0, ReorderJitter) with probability ReorderProb — enough extra latency
// to land behind later packets, i.e. reordering. All coin flips come
// from the impairment's own seeded RNG, so a run is byte-reproducible
// for a given seed regardless of what else the simulation does.
type LinkImpairment struct {
	Corrupt       float64
	Duplicate     float64
	ReorderProb   float64
	ReorderJitter sim.Time

	rng *sim.RNG
	// dirRNG, when set (keyed/sharded networks), replaces rng with one
	// independent stream per link direction. A direction's transmissions
	// happen in a shard-count-independent order, but the interleaving of
	// the two directions does not — per-direction streams make every
	// coin flip a pure function of the seed and that direction's own
	// transmission sequence.
	dirRNG [2]*sim.RNG
}

// ImpairLink installs (or replaces) a packet impairment on the link
// between a and b; both directions are affected. rng drives the
// impairment's coin flips and must be dedicated to it (fork one from
// the experiment's root RNG); nil gets a fixed-seed generator.
func (n *Network) ImpairLink(a, b topology.NodeID, imp LinkImpairment, rng *sim.RNG) {
	li := n.mustLink(a, b)
	if rng == nil {
		rng = sim.NewRNG(1)
	}
	imp.rng = rng
	if n.keyed {
		imp.dirRNG[0] = rng.StreamFork(0)
		imp.dirRNG[1] = rng.StreamFork(1)
	}
	if n.impair == nil {
		n.impair = make([]*LinkImpairment, len(n.Graph.Links))
	}
	if n.impair[li] == nil {
		n.impaired++
	}
	n.impair[li] = &imp
}

// ClearImpairment removes the impairment on the link between a and b.
// The table goes back to nil with the last impairment, so the healthy
// fast path is again a single nil check.
func (n *Network) ClearImpairment(a, b topology.NodeID) {
	li := n.mustLink(a, b)
	if n.impair == nil || n.impair[li] == nil {
		return
	}
	n.impair[li] = nil
	n.impaired--
	if n.impaired == 0 {
		n.impair = nil
	}
}

// ImpairedLinks returns the number of links with an active packet
// impairment installed. Reachability checks use it to gate expectations:
// a corrupting link can legitimately kill a probe between nodes that are
// topologically connected.
func (n *Network) ImpairedLinks() int { return n.impaired }

// NodeBacklog returns the largest outbound transmission backlog across
// the node's live adjacent links: how long a packet admitted now on the
// busiest of them would wait before its serialization starts. It is a
// cheap local congestion signal for QoS devices (load shedding keyed on
// egress pressure).
func (n *Network) NodeBacklog(id topology.NodeID) sim.Time {
	now := n.Sched.Now()
	var worst sim.Time
	_, links := n.lt.adj.Row(id)
	for _, li := range links {
		if n.lt.failed[li] {
			continue
		}
		di := 2 * int(li)
		if n.Graph.Links[li].A != id {
			di++
		}
		if b := n.lt.busy[di] - now; b > worst {
			worst = b
		}
	}
	return worst
}
