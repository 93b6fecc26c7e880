package netsim

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topology"
)

// The forwarding kernel: the per-arrival decision a node makes, defined
// once for both substrates. A simulated Node and a live wire dataplane
// each own a Forwarder and call Decide on every packet; what differs
// between them (queues, traces and observability in the simulator,
// sockets and batching on the wire) stays with the caller, which acts
// on the returned Decision.

// ProviderShift is the address shift of the provider addressing scheme:
// the top 16 bits of a packet address name the node that owns it. It is
// the simulator's default and the only scheme on the live wire.
const ProviderShift = 16

// DecisionKind classifies what a node decided to do with a packet.
type DecisionKind uint8

// Decision kinds.
const (
	// Deliver: the packet terminates at this node.
	Deliver DecisionKind = iota
	// Forward: the packet continues to Decision.Next.
	Forward
	// Dropped: the packet is discarded for Decision.Drop.
	Dropped
)

// DropKind indexes the fixed per-reason drop-statistics table. Its
// String is the drop reason, except that blocked and malformed-after
// drops also name the middlebox responsible.
type DropKind uint8

// Drop kinds: the decision paths shared by every substrate.
const (
	DropMalformed      DropKind = iota // the decoder rejected the bytes
	DropTTL                            // TTL reached zero
	DropNoRoute                        // no route to the destination
	DropBadNextHop                     // routing chose a non-adjacent node
	DropBlocked                        // a loud middlebox dropped it
	DropLost                           // a silent middlebox dropped it
	DropMalformedAfter                 // a middlebox rewrite produced undecodable bytes

	// DropKinds is the number of distinct drop kinds (for stats arrays).
	DropKinds
)

func (k DropKind) String() string {
	switch k {
	case DropMalformed:
		return "malformed"
	case DropTTL:
		return "ttl"
	case DropNoRoute:
		return "no-route"
	case DropBadNextHop:
		return "bad-next-hop"
	case DropBlocked:
		return "blocked"
	case DropLost:
		return "lost"
	case DropMalformedAfter:
		return "malformed-after"
	default:
		return "unknown"
	}
}

// Decision is a node's verdict on one packet. It is a value type:
// producing one allocates nothing.
type Decision struct {
	Kind DecisionKind
	// Next is the chosen next-hop node when Kind == Forward.
	Next topology.NodeID
	// Drop is the drop kind when Kind == Dropped.
	Drop DropKind
	// Mbox is the chain index of the middlebox behind a blocked, lost or
	// malformed-after drop.
	Mbox int
	// Reason is the drop reason when Kind == Dropped, in the shared
	// vocabulary: "malformed", "ttl", "no-route", "bad-next-hop",
	// "blocked:<name>", "lost", "malformed-after:<name>". Decide leaves
	// it empty for blocked and malformed-after drops, whose reason names
	// the middlebox at Mbox: each caller renders it from interned
	// strings so the per-packet path never concatenates.
	Reason string
	// Data is the packet to pass on when Kind is Deliver or Forward: the
	// (possibly middlebox-rewritten, TTL-patched) bytes. It may alias the
	// input buffer or a middlebox's own buffer.
	Data []byte
}

// String renders the decision in the differential-log vocabulary shared
// by the simulator and the live wire: "deliver", "forward <node>",
// "drop <reason>". It allocates and is meant for logs and tests, not the
// fast path.
func (d Decision) String() string {
	switch d.Kind {
	case Deliver:
		return "deliver"
	case Forward:
		return fmt.Sprintf("forward %d", d.Next)
	default:
		return "drop " + d.Reason
	}
}

func dropped(kind DropKind) Decision {
	return Decision{Kind: Dropped, Drop: kind, Reason: kind.String()}
}

// Forwarder is one node's forwarding personality: its identity, routing,
// source-route admission and middlebox chain. Node embeds one; a live
// wire dataplane owns one per worker.
type Forwarder struct {
	ID topology.NodeID
	// HonorSourceRoutes controls whether this node obeys source-route
	// options — the provider's side of the §V-A4 tussle. A provider
	// that does not honor them forwards by its own routing only. It sits
	// beside ID so the two share a word.
	HonorSourceRoutes bool

	// Route computes next hops; nil means the node can only deliver.
	Route RouteFunc
	// srcRoutePolicy, when set, admits source routes: a compiled,
	// metered program evaluated per packet on the policy VM (see
	// UseSourceRoutePolicy). The `paid` policy is §V-A4's
	// recommendation, honoring a source route only when the packet
	// carries a payment voucher. srcRouteSlots is this forwarder's
	// evaluation scratch.
	srcRoutePolicy *SourceRoutePolicy
	srcRouteSlots  []policy.Value
	// Middleboxes are processed in order; any Drop wins. See the
	// Middlebox interface for the single-pass chain semantics.
	Middleboxes []Middlebox

	// Delivered counts packets that terminated at the node.
	Delivered int
}

// AddMiddlebox appends m to the node's processing chain.
func (f *Forwarder) AddMiddlebox(m Middlebox) { f.Middleboxes = append(f.Middleboxes, m) }

// RemoveMiddlebox removes the first middlebox with the given name.
func (f *Forwarder) RemoveMiddlebox(name string) bool {
	for i, m := range f.Middleboxes {
		if m.Name() == name {
			f.Middleboxes = append(f.Middleboxes[:i], f.Middleboxes[i+1:]...)
			return true
		}
	}
	return false
}

// substrate supplies the facts a decision needs from the network the
// forwarder runs on, beyond the address shift Decide takes as a value.
// *Network and *PeerSet implement it.
type substrate interface {
	// adjacent reports whether to is a direct neighbor of from.
	adjacent(from, to topology.NodeID) bool
	// rewrote is told that middlebox m at node rewrote the packet.
	rewrote(node topology.NodeID, m Middlebox)
}

// PeerSet is a node's direct neighbors: the substrate of a forwarder
// that runs outside a simulated Network, such as a live wire dataplane.
type PeerSet struct {
	peer []bool // indexed by NodeID
}

// NewPeerSet builds the neighbor set of a node.
func NewPeerSet(peers []topology.NodeID) PeerSet {
	var maxID topology.NodeID
	for _, p := range peers {
		maxID = max(maxID, p)
	}
	s := PeerSet{peer: make([]bool, maxID+1)}
	for _, p := range peers {
		s.peer[p] = true
	}
	return s
}

// Has reports whether id is a neighbor.
func (s *PeerSet) Has(id topology.NodeID) bool {
	return int(id) < len(s.peer) && s.peer[id]
}

func (s *PeerSet) adjacent(_, to topology.NodeID) bool { return s.Has(to) }
func (s *PeerSet) rewrote(topology.NodeID, Middlebox)  {}

// Decide runs one packet through the node: direction from the
// destination, the single-pass middlebox chain (direction re-derived
// after each rewrite), the delivery check, the TTL patch, source-route
// admission, and next-hop selection. tip is the decoded header of data;
// both are patched in place and kept coherent. dir is Sending at the
// packet's origin, which skips the TTL patch; any other value is an
// arrival, whose direction Decide derives. shift maps an address to the
// node owning it (uint32(addr) >> shift); env is the network the node
// sits in (a *Network, or a *PeerSet on the live wire).
//
// A Forward decision names the next hop routing chose; whether that node
// is adjacent is the caller's check (a "bad-next-hop" drop).
func (f *Forwarder) Decide(data []byte, tip *packet.TIP, dir Direction, shift uint8, env substrate) Decision {
	if dir != Sending {
		dir = Forwarding
		if topology.NodeID(uint32(tip.Dst)>>shift) == f.ID {
			dir = Delivering
		}
	}
	// Middlebox chain (single-pass: see the Middlebox interface comment).
	for i, m := range f.Middleboxes {
		out, verdict := m.Process(f.ID, dir, data)
		if verdict == Drop {
			if m.Silent() {
				return Decision{Kind: Dropped, Drop: DropLost, Mbox: i, Reason: "lost"}
			}
			return Decision{Kind: Dropped, Drop: DropBlocked, Mbox: i}
		}
		if out != nil {
			data = out
			env.rewrote(f.ID, m)
			// Transformations may rewrite headers; re-decode to restore
			// bytes/decoded-header coherence.
			if err := tip.DecodeReuse(out); err != nil {
				return Decision{Kind: Dropped, Drop: DropMalformedAfter, Mbox: i}
			}
			if topology.NodeID(uint32(tip.Dst)>>shift) == f.ID {
				dir = Delivering
			} else if dir == Delivering {
				dir = Forwarding
			}
		}
	}
	if dir == Delivering {
		f.Delivered++
		return Decision{Kind: Deliver, Data: data}
	}
	if dir == Forwarding {
		ttl, err := packet.DecrementTTL(data)
		if err != nil {
			return dropped(DropMalformed)
		}
		tip.TTL = ttl // keep the decoded header coherent with the bytes
		if ttl == 0 {
			return dropped(DropTTL)
		}
	}
	next, ok := f.nextHop(data, tip, env)
	if !ok {
		return dropped(DropNoRoute)
	}
	return Decision{Kind: Forward, Next: next, Data: data}
}

// nextHop picks the egress neighbor, honoring source routes when the
// node's policy allows it.
func (f *Forwarder) nextHop(data []byte, tip *packet.TIP, env substrate) (topology.NodeID, bool) {
	if f.HonorSourceRoutes {
		// A source route the admission policy refuses (fail-safe deny,
		// bounded by the per-packet budget) is ignored.
		wp, ok := packet.PeekSourceRoute(data)
		if ok && (f.srcRoutePolicy == nil || f.srcRoutePolicy.Allow(f.srcRouteSlots, tip, wp)) {
			if wp == packet.MakeAddr(uint16(f.ID), 0) || wp.Provider() == uint16(f.ID) {
				// We are the current waypoint: advance to the next.
				nxt, advanced, err := packet.AdvanceSourceRoute(data)
				if err == nil {
					// Mirror the in-place pointer bump into the
					// decoded header (coherence rule).
					if advanced && tip.SourceRoute != nil && !tip.SourceRoute.Exhausted() {
						tip.SourceRoute.Ptr++
					}
					if nxt != packet.AddrNone {
						wp = nxt
					} else {
						wp = tip.Dst // route exhausted: head to destination
					}
				}
			}
			// Route toward the waypoint's provider. If the waypoint is
			// a direct neighbor, use it.
			target := topology.NodeID(wp.Provider())
			if target == f.ID {
				target = topology.NodeID(tip.Dst.Provider())
			}
			if env.adjacent(f.ID, target) {
				return target, true
			}
			if f.Route != nil {
				return f.Route(packet.MakeAddr(uint16(target), 0), tip)
			}
			return 0, false
		}
	}
	if f.Route == nil {
		return 0, false
	}
	return f.Route(tip.Dst, tip)
}
