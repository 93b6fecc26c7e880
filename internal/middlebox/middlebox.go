// Package middlebox implements the in-network devices that make the
// transparency tussle concrete (§V-B and §VI-A of the paper): port-based,
// trust-aware, and negotiable (MIDCOM-style) firewalls, NAT, connection
// redirectors, and wiretaps. Every device implements the
// netsim.Middlebox interface and can be installed at any node.
// (Application-level caches live in internal/apps.)
//
// Devices differ on the two axes the paper cares about:
//
//   - what they condition on (ports and addresses vs. who is
//     communicating — the trust-aware firewall of §V-B);
//   - whether they reveal themselves (Disclose/Silent — "one way to help
//     preserve the end-to-end character of the Internet is to require
//     that devices reveal if they impose limitations on it").
package middlebox

import (
	"fmt"
	"sort"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/trust"
)

// decode splits a packet into its TIP and (optional) TTP headers for
// classification. Returns nil tip on undecodable input.
func decode(data []byte) (*packet.TIP, *packet.TTP) {
	var tip packet.TIP
	if err := tip.DecodeFrom(data); err != nil {
		return nil, nil
	}
	if tip.Proto != packet.LayerTypeTTP {
		return &tip, nil
	}
	var ttp packet.TTP
	if err := ttp.DecodeFrom(tip.LayerPayload()); err != nil {
		return &tip, nil
	}
	return &tip, &ttp
}

// PortFirewall blocks a configured set of transport ports — the blunt
// instrument that overloads port numbers with access-control meaning and
// invites tunneling counter-moves.
type PortFirewall struct {
	// Label names the device in traces.
	Label string
	// BlockedPorts is the deny list (destination ports).
	BlockedPorts map[uint16]bool
	// BlockInbound restricts enforcement to traffic delivered at this
	// node (the residential "no servers" rule); when false, all
	// directions are filtered.
	BlockInbound bool
}

// Name implements netsim.Middlebox.
func (f *PortFirewall) Name() string { return f.Label }

// Silent implements netsim.Middlebox.
func (f *PortFirewall) Silent() bool { return false }

// Process implements netsim.Middlebox.
func (f *PortFirewall) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	if f.BlockInbound && dir != netsim.Delivering {
		return nil, netsim.Accept
	}
	_, ttp := decode(data)
	if ttp == nil {
		return nil, netsim.Accept
	}
	if f.BlockedPorts[ttp.DstPort] {
		return nil, netsim.Drop
	}
	return nil, netsim.Accept
}

// Rules returns a human-readable dump of the device's configuration —
// the §V-B disclosure question ("should that end user be able to
// download and examine these rules?"). The paper notes disclosure can
// only be a courtesy, not an enforced requirement.
func (f *PortFirewall) Rules() []string {
	ports := make([]int, 0, len(f.BlockedPorts))
	for p := range f.BlockedPorts {
		ports = append(ports, int(p))
	}
	sort.Ints(ports)
	out := make([]string, len(ports))
	for i, p := range ports {
		out[i] = fmt.Sprintf("deny port %d", p)
	}
	return out
}

// TrustFirewall admits traffic based on who is communicating rather than
// which ports are used — the "trust-aware firewall" §V-B sketches. It
// consults the sender's identity option and a reputation mediator, and
// answers a missing or anonymous identity with refusal — the paper's
// predicted equilibrium ("many people will choose not to communicate
// with you if you do").
type TrustFirewall struct {
	Label string
	// MinScore is the reputation threshold for admission.
	MinScore float64
	// Rep is the chosen third-party mediator.
	Rep *trust.Reputation
}

// Name implements netsim.Middlebox.
func (f *TrustFirewall) Name() string { return f.Label }

// Silent implements netsim.Middlebox.
func (f *TrustFirewall) Silent() bool { return false }

// Process implements netsim.Middlebox.
func (f *TrustFirewall) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	if dir != netsim.Delivering {
		return nil, netsim.Accept
	}
	tip, _ := decode(data)
	if tip == nil {
		return nil, netsim.Accept
	}
	id := tip.Identity
	if id == nil || id.Scheme == uint8(trust.Anonymous) {
		return nil, netsim.Drop
	}
	if f.Rep != nil && f.Rep.Score(string(id.ID)) < f.MinScore {
		return nil, netsim.Drop
	}
	return nil, netsim.Accept
}
