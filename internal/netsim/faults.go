package netsim

import (
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// This file adds failure injection and the traceroute-style diagnostic
// §VI-A asks for: "Failures of transparency will occur — design what
// happens then... Tools for fault isolation and error reporting would
// help." The tool works only from externally observable behaviour: TTL
// expiries identify forwarding nodes; middlebox drops identify the
// device only when it chooses not to be silent.

// FailLink marks the link between a and b down in both directions.
// Transit over a failed link drops with reason "link-down". The failure
// map is the source of truth; the dense link table's failure flags are a
// mirror for the forwarding fast path and are refreshed here and on
// every InvalidateTopology rebuild.
func (n *Network) FailLink(a, b topology.NodeID) {
	if n.failed == nil {
		n.failed = make(map[[2]topology.NodeID]bool)
	}
	n.failed[linkKey(a, b)] = true
	if li := n.linkIndex(a, b); li >= 0 {
		n.lt.failed[li] = true
	}
}

// RestoreLink brings a failed link back.
func (n *Network) RestoreLink(a, b topology.NodeID) {
	delete(n.failed, linkKey(a, b))
	if li := n.linkIndex(a, b); li >= 0 {
		n.lt.failed[li] = false
	}
}

// LinkFailed reports whether the link is currently down.
func (n *Network) LinkFailed(a, b topology.NodeID) bool {
	return n.failed[linkKey(a, b)]
}

// FailNode crashes a node: it stops forwarding, delivering, and
// originating traffic. Packets already in flight toward it are dropped
// silently at the dead node ("node-down" — a crashed router cannot send
// error reports); packets subsequently routed at a live neighbor toward
// the dead one are dropped at the neighbor with reason "peer-down" (the
// keepalive-loss detection that lets diagnostics localize the crash).
// The crash map is the source of truth; the dense nodeDown mirror is
// refreshed here and on every InvalidateTopology rebuild.
func (n *Network) FailNode(id topology.NodeID) {
	if n.downNodes == nil {
		n.downNodes = make(map[topology.NodeID]bool)
	}
	n.downNodes[id] = true
	if int(id) < len(n.nodeDown) {
		n.nodeDown[id] = true
	}
}

// RecoverNode brings a crashed node back. Its routing state (RouteFunc,
// middleboxes, counters) is whatever it was before the crash; protocols
// that want to model cold-start reconvergence do so via their fault
// observers.
func (n *Network) RecoverNode(id topology.NodeID) {
	delete(n.downNodes, id)
	if int(id) < len(n.nodeDown) {
		n.nodeDown[id] = false
	}
}

// NodeFailed reports whether the node is currently crashed.
func (n *Network) NodeFailed(id topology.NodeID) bool {
	return n.downNodes[id]
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
// the experiment's root RNG); nil gets a fixed-seed generator. The
// impairment map is the source of truth; the dense mirror's entry for
// the link is set here, and the whole mirror is re-derived on every
// InvalidateTopology rebuild.
func (n *Network) ImpairLink(a, b topology.NodeID, imp LinkImpairment, rng *sim.RNG) {
	if rng == nil {
		rng = sim.NewRNG(1)
	}
	imp.rng = rng
	if n.keyed {
		imp.dirRNG[0] = rng.StreamFork(0)
		imp.dirRNG[1] = rng.StreamFork(1)
	}
	if n.impairments == nil {
		n.impairments = make(map[[2]topology.NodeID]*LinkImpairment)
	}
	n.impairments[linkKey(a, b)] = &imp
	if n.impair == nil {
		n.impair = make([]*LinkImpairment, len(n.Graph.Links))
	}
	if li := n.linkIndex(a, b); li >= 0 {
		n.impair[li] = &imp
	}
}

// ClearImpairment removes the impairment on the link between a and b.
// The mirror goes back to nil with the last impairment, so the healthy
// fast path is again a single nil check.
func (n *Network) ClearImpairment(a, b topology.NodeID) {
	delete(n.impairments, linkKey(a, b))
	if len(n.impairments) == 0 {
		n.impair = nil
	} else if li := n.linkIndex(a, b); li >= 0 {
		n.impair[li] = nil
	}
}

// ImpairedLinks returns the number of links with an active packet
// impairment installed. Reachability checks use it to gate expectations:
// a corrupting link can legitimately kill a probe between nodes that are
// topologically connected.
func (n *Network) ImpairedLinks() int { return len(n.impairments) }

// Backlog returns the transmission backlog currently queued on the
// directed link from→to: how long a packet admitted now would wait
// before its serialization starts. Zero for idle or unknown links.
func (n *Network) Backlog(from, to topology.NodeID) sim.Time {
	li := n.linkIndex(from, to)
	if li < 0 {
		return 0
	}
	di := 2 * int(li)
	if n.Graph.Links[li].A != from {
		di++
	}
	if b := n.lt.busy[di] - n.Sched.Now(); b > 0 {
		return b
	}
	return 0
}

// NodeBacklog returns the largest outbound Backlog across the node's
// live adjacent links — a cheap local congestion signal for QoS devices
// (load shedding keyed on egress pressure).
func (n *Network) NodeBacklog(id topology.NodeID) sim.Time {
	if n.lt.nlinks != len(n.Graph.Links) {
		n.InvalidateTopology()
	}
	if int(id) >= len(n.lt.adj) {
		return 0
	}
	now := n.Sched.Now()
	var worst sim.Time
	for _, e := range n.lt.adj[id] {
		if n.lt.failed[e.link] {
			continue
		}
		di := 2 * int(e.link)
		if n.Graph.Links[e.link].A != id {
			di++
		}
		if b := n.lt.busy[di] - now; b > worst {
			worst = b
		}
	}
	return worst
}

func linkKey(a, b topology.NodeID) [2]topology.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]topology.NodeID{a, b}
}

// Hop is one step of a traceroute report.
type Hop struct {
	TTL int
	// Node is the responding node, or 0 when nothing was learned (a
	// silent loss).
	Node topology.NodeID
	// Note is what was learned: "time-exceeded", "destination",
	// "blocked:<device>" for a disclosing middlebox, "peer-down" when a
	// live node reports its next hop dead, or "lost" when nothing was
	// (silent middlebox and crashed node alike).
	Note string
}

// Traceroute probes the path from src toward dst with TTL-limited
// packets, one TTL at a time, and reports what an end user could learn.
// mkProbe builds the probe payload for a given TTL; pass nil for a
// default raw probe.
func (n *Network) Traceroute(src topology.NodeID, dst packet.Addr, maxTTL int, mkProbe func(ttl uint8) []byte) []Hop {
	if mkProbe == nil {
		mkProbe = func(ttl uint8) []byte {
			data, err := packet.Serialize(
				&packet.TIP{TTL: ttl, Proto: packet.LayerTypeRaw,
					Src: packet.MakeAddr(uint16(src), 1), Dst: dst},
				&packet.Raw{Data: []byte("traceroute")})
			if err != nil {
				panic(err)
			}
			return data
		}
	}
	var hops []Hop
	for ttl := 1; ttl <= maxTTL; ttl++ {
		tr := n.Send(src, mkProbe(uint8(ttl)))
		n.Sched.Run()
		switch {
		case tr.Delivered:
			hops = append(hops, Hop{TTL: ttl, Node: topology.NodeID(dst.Provider()), Note: "destination"})
			return hops
		case tr.DropReason == "ttl":
			// The expiring node reveals itself (the ICMP time-exceeded
			// analogue).
			hops = append(hops, Hop{TTL: ttl, Node: tr.DropNode, Note: "time-exceeded"})
		case tr.DropReason == "lost":
			// A silent device: the user learns only that the path goes
			// dark past the previous hop.
			hops = append(hops, Hop{TTL: ttl, Note: "lost"})
			return hops
		case tr.DropReason == "node-down":
			// The probe died inside a crashed node. Dead routers cannot
			// send error reports, so from the outside this is
			// indistinguishable from a silent loss — localization relies
			// on a live upstream neighbor reporting "peer-down" instead.
			hops = append(hops, Hop{TTL: ttl, Note: "lost"})
			return hops
		case tr.DropReason == "peer-down":
			// A live node detected its next hop dead (keepalive loss) and
			// says so: the crash is localized to the reporter's neighbor
			// on the path.
			hops = append(hops, Hop{TTL: ttl, Node: tr.DropNode, Note: "peer-down"})
			return hops
		default:
			// A disclosing device names itself in the drop reason.
			hops = append(hops, Hop{TTL: ttl, Node: tr.DropNode, Note: tr.DropReason})
			return hops
		}
	}
	return hops
}

// PathMTUProbe is a second diagnostic in the same spirit: find the
// largest payload that survives to dst, by binary search over probe
// sizes. It exercises queue behaviour rather than fragmentation (TIP
// does not fragment), and demonstrates diagnosis by active measurement.
func (n *Network) PathMTUProbe(src topology.NodeID, dst packet.Addr, lo, hi int) int {
	try := func(size int) bool {
		data, err := packet.Serialize(
			&packet.TIP{TTL: 64, Proto: packet.LayerTypeRaw,
				Src: packet.MakeAddr(uint16(src), 1), Dst: dst},
			&packet.Raw{Data: make([]byte, size)})
		if err != nil {
			return false
		}
		tr := n.Send(src, data)
		n.Sched.Run()
		return tr.Delivered
	}
	if !try(lo) {
		return 0
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if try(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// FlapLink schedules a link to fail at failAt and recover at healAt —
// the standard failure-injection workload for resilience experiments.
func (n *Network) FlapLink(a, b topology.NodeID, failAt, healAt sim.Time) {
	n.Sched.At(failAt, func() { n.FailLink(a, b) })
	n.Sched.At(healAt, func() { n.RestoreLink(a, b) })
}
