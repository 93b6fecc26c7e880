// Package transport holds the hop-by-hop reliability models that the
// end-to-end arguments weigh (§VI-A; Saltzer, Reed & Clark is the
// paper's reference [44]): in-network link ARQ, where each forwarding
// node retransmits over its next link, and the plain lossy link it is
// compared against. The end-to-end sender and receiver are the
// multipath package's, run over one network-routed path
// (multipath.Routed), so experiments compare two designs on one
// reliable transport:
//
//   - end-to-end ARQ: only the endpoints retransmit; the network stays
//     simple and transparent (the e2e-argument design);
//   - hop-by-hop ARQ: each forwarding node also repairs losses on its
//     outbound link, which can reduce retransmission span on lossy
//     paths at the price of state and failure points inside the
//     network.
//
// Link ARQ is modelled as per-link duplication with a probability of
// success, resent locally until the downstream node takes the segment
// or the retry budget runs out. Two properties the experiments surface:
//
//   - retransmission span: a loss near the destination costs only the
//     last link's retransmission, not the whole path (the performance
//     case *for* in-network function);
//   - state and failure points: every custody node is a new place where
//     the transfer can break — and none of it removes the need for
//     end-to-end checking, which is the argument's core.
package transport

import (
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// LinkARQ wraps a node so that every data segment it forwards is
// retried locally against the next hop until delivered or the retry
// budget is exhausted. It is installed as a middlebox observing
// forwarding plus a resend loop on the scheduler.
type LinkARQ struct {
	Label string
	// Retries is the per-segment local retry budget.
	Retries int
	// LinkRetransmissions counts local resends performed network-wide
	// when shared across nodes.
	LinkRetransmissions *int

	net *netsim.Network
	id  topology.NodeID
	rng *sim.RNG
	// LossProb is the probability this node's outbound link loses a
	// data segment (the lossy-link model for ARQ experiments).
	LossProb float64
}

// InstallLinkARQ attaches link-layer ARQ behaviour to a node: outbound
// data segments are lost with lossProb, and each loss is repaired
// locally up to retries times. counter accumulates local resends.
func InstallLinkARQ(net *netsim.Network, id topology.NodeID, lossProb float64, retries int, rng *sim.RNG, counter *int) {
	arq := &LinkARQ{
		Label: "link-arq", Retries: retries, LinkRetransmissions: counter,
		net: net, id: id, rng: rng, LossProb: lossProb,
	}
	net.Node(id).AddMiddlebox(arq)
}

// Name implements netsim.Middlebox.
func (a *LinkARQ) Name() string { return a.Label }

// Silent implements netsim.Middlebox.
func (a *LinkARQ) Silent() bool { return false }

// Process implements netsim.Middlebox: on forwarding, the segment is
// lost with LossProb; link ARQ repairs it locally with up to Retries
// resends (each resend is itself subject to loss).
func (a *LinkARQ) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	if dir != netsim.Forwarding {
		return nil, netsim.Accept
	}
	var tip packet.TIP
	if err := tip.DecodeFrom(data); err != nil || tip.Proto != packet.LayerTypeTTP {
		return nil, netsim.Accept
	}
	var ttp packet.TTP
	if err := ttp.DecodeFrom(tip.LayerPayload()); err != nil || ttp.Flags&packet.FlagACK != 0 {
		return nil, netsim.Accept
	}
	if !a.rng.Bool(a.LossProb) {
		return nil, netsim.Accept // made it first try
	}
	// Local repair: each retry succeeds with 1-LossProb.
	for r := 0; r < a.Retries; r++ {
		if a.LinkRetransmissions != nil {
			*a.LinkRetransmissions++
		}
		if !a.rng.Bool(a.LossProb) {
			return nil, netsim.Accept // repaired locally
		}
	}
	return nil, netsim.Drop // local repair exhausted; end-to-end must recover
}

// LossyLink is the plain lossy link for the end-to-end-only comparison:
// same loss process, no local repair.
type LossyLink struct {
	Label    string
	LossProb float64
	rng      *sim.RNG
}

// InstallLossyLink attaches a plain lossy link at a node.
func InstallLossyLink(net *netsim.Network, id topology.NodeID, lossProb float64, rng *sim.RNG) *LossyLink {
	l := &LossyLink{Label: "lossy-link", LossProb: lossProb, rng: rng}
	net.Node(id).AddMiddlebox(l)
	return l
}

// Name implements netsim.Middlebox.
func (l *LossyLink) Name() string { return l.Label }

// Silent implements netsim.Middlebox. Losses are silent, as in life.
func (l *LossyLink) Silent() bool { return true }

// Process implements netsim.Middlebox.
func (l *LossyLink) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	if dir != netsim.Forwarding {
		return nil, netsim.Accept
	}
	var tip packet.TIP
	if err := tip.DecodeFrom(data); err != nil || tip.Proto != packet.LayerTypeTTP {
		return nil, netsim.Accept
	}
	var ttp packet.TTP
	if err := ttp.DecodeFrom(tip.LayerPayload()); err != nil || ttp.Flags&packet.FlagACK != 0 {
		return nil, netsim.Accept
	}
	if l.rng.Bool(l.LossProb) {
		return nil, netsim.Drop
	}
	return nil, netsim.Accept
}
