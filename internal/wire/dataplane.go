package wire

import (
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/topology"
)

// NodeConfig describes the forwarding personality of a wire node — the
// same knobs a netsim.Node exposes, so one spec can configure both the
// live engine and its simulator twin.
type NodeConfig struct {
	ID topology.NodeID
	// Route computes next hops; nil means the node can only deliver.
	Route netsim.RouteFunc
	// HonorSourceRoutes mirrors the netsim.Node field (the §V-A4
	// source-routing tussle knob).
	HonorSourceRoutes bool
	// SourceRoutePolicy is the compiled, metered admission program
	// (netsim.CompileSourceRoutePolicy), installed exactly as
	// Forwarder.UseSourceRoutePolicy does in the simulator; nil admits
	// every source route. The compiled object is immutable and may be
	// shared across workers; each Dataplane keeps its own evaluation
	// scratch.
	SourceRoutePolicy *netsim.SourceRoutePolicy
	// Middleboxes are processed in installation order, single-pass,
	// with the exact netsim chain semantics. Stateful implementations
	// (NAT) are not goroutine-safe: build a fresh chain per Dataplane
	// (see Engine's NewDataplane factory).
	Middleboxes []netsim.Middlebox
	// Peers are the node's direct neighbors — the wire analogue of the
	// topology adjacency netsim consults for bad-next-hop detection and
	// direct source-route waypoints.
	Peers []topology.NodeID
}

// Dataplane is one worker's decision kernel: it decodes raw datagram
// bytes and runs them through the netsim forwarding kernel
// (netsim.Forwarder.Decide) as a transit arrival, exactly as a netsim
// node does. One Dataplane is owned by one worker goroutine; Process
// reuses its decode scratch and allocates nothing.
type Dataplane struct {
	fwd   netsim.Forwarder
	peers netsim.PeerSet

	// blockedReason/malformedReason are the per-middlebox interned drop
	// strings, built once so Process never concatenates.
	blockedReason   []string
	malformedReason []string

	tip packet.TIP // decode scratch, reused across packets
}

// NewDataplane builds the decision kernel for one node personality.
func NewDataplane(cfg NodeConfig) *Dataplane {
	d := &Dataplane{
		fwd: netsim.Forwarder{
			ID:                cfg.ID,
			Route:             cfg.Route,
			HonorSourceRoutes: cfg.HonorSourceRoutes,
			Middleboxes:       cfg.Middleboxes,
		},
		peers:           netsim.NewPeerSet(cfg.Peers),
		blockedReason:   make([]string, len(cfg.Middleboxes)),
		malformedReason: make([]string, len(cfg.Middleboxes)),
	}
	d.fwd.UseSourceRoutePolicy(cfg.SourceRoutePolicy)
	for i, m := range cfg.Middleboxes {
		d.blockedReason[i] = "blocked:" + m.Name()
		d.malformedReason[i] = "malformed-after:" + m.Name()
	}
	return d
}

// Process decides one datagram's fate. data is the raw wire bytes (the
// receive slot, sliced to the datagram length); it may be patched in
// place (TTL decrement, source-route advance) and the returned
// Decision.Data may alias it, valid until the next Process call. The
// decision — and every reason string — is the one netsim.InjectArrival
// at the same node records, which the differential tests pin.
func (d *Dataplane) Process(data []byte) netsim.Decision {
	if err := d.tip.DecodeReuse(data); err != nil {
		return netsim.Decision{Kind: netsim.Dropped, Drop: netsim.DropMalformed, Reason: "malformed"}
	}
	dec := d.fwd.Decide(data, &d.tip, netsim.Forwarding, netsim.ProviderShift, &d.peers)
	switch dec.Kind {
	case netsim.Forward:
		if !d.peers.Has(dec.Next) {
			return netsim.Decision{Kind: netsim.Dropped, Drop: netsim.DropBadNextHop, Reason: "bad-next-hop"}
		}
	case netsim.Dropped:
		switch dec.Drop {
		case netsim.DropBlocked:
			dec.Reason = d.blockedReason[dec.Mbox]
		case netsim.DropMalformedAfter:
			dec.Reason = d.malformedReason[dec.Mbox]
		}
	}
	return dec
}
