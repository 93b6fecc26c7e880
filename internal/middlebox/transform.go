package middlebox

import (
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/topology"
)

// NAT rewrites source addresses of outbound traffic to a single public
// address, remembering host mappings so replies can be translated back —
// the §I example: "ISPs give their users a single IP address, and users
// attach a network of computers using address translation." Here the NAT
// represents the *user's* counter-move modeled at the edge node.
type NAT struct {
	Label string
	// Public is the single address the provider assigned.
	Public packet.Addr
	// ports maps an external source port to the original internal
	// source address, so inbound replies can be un-translated.
	ports   map[uint16]packet.Addr
	nextExt uint16
}

// NewNAT creates a NAT translating to the given public address.
func NewNAT(label string, public packet.Addr) *NAT {
	return &NAT{Label: label, Public: public, ports: make(map[uint16]packet.Addr), nextExt: 40000}
}

// Name implements netsim.Middlebox.
func (n *NAT) Name() string { return n.Label }

// Silent implements netsim.Middlebox.
func (n *NAT) Silent() bool { return false }

// Process implements netsim.Middlebox.
func (n *NAT) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	tip, ttp := decode(data)
	if tip == nil || ttp == nil {
		return nil, netsim.Accept
	}
	switch dir {
	case netsim.Sending:
		if tip.Src == n.Public {
			return nil, netsim.Accept
		}
		orig := tip.Src
		ext := n.nextExt
		n.nextExt++
		n.ports[ext] = orig
		return rewrite(tip, ttp, func(t *packet.TIP, u *packet.TTP) {
			t.Src = n.Public
			u.SrcPort = ext
		}), netsim.Accept
	case netsim.Delivering:
		orig, ok := n.ports[ttp.DstPort]
		if !ok {
			return nil, netsim.Accept
		}
		return rewrite(tip, ttp, func(t *packet.TIP, u *packet.TTP) {
			t.Dst = orig
		}), netsim.Accept
	}
	return nil, netsim.Accept
}

// rewrite re-serializes a TIP/TTP packet after applying mutate. The
// payload below TTP is preserved byte-for-byte. It returns nil when the
// result does not serialize, and the device then passes the packet on
// unchanged.
func rewrite(tip *packet.TIP, ttp *packet.TTP, mutate func(*packet.TIP, *packet.TTP)) []byte {
	t2 := *tip
	u2 := *ttp
	mutate(&t2, &u2)
	inner := make([]byte, len(ttp.LayerPayload()))
	copy(inner, ttp.LayerPayload())
	out, err := packet.Serialize(&t2, &u2, &packet.Raw{Data: inner})
	if err != nil {
		return nil
	}
	return out
}

// Redirector rewrites the destination of matching traffic — the "ISP
// might try to control what SMTP server a customer uses by redirecting
// packets based on the port number" move from §IV-B.
type Redirector struct {
	Label string
	// MatchPort selects traffic to redirect.
	MatchPort uint16
	// To is the imposed destination.
	To packet.Addr
	// Quiet hides the device from drop reports (it never drops, but
	// quietness also models undisclosed rewriting).
	Quiet bool
}

// Name implements netsim.Middlebox.
func (r *Redirector) Name() string { return r.Label }

// Silent implements netsim.Middlebox.
func (r *Redirector) Silent() bool { return r.Quiet }

// Process implements netsim.Middlebox.
func (r *Redirector) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	tip, ttp := decode(data)
	if tip == nil || ttp == nil || ttp.DstPort != r.MatchPort || tip.Dst == r.To {
		return nil, netsim.Accept
	}
	return rewrite(tip, ttp, func(t *packet.TIP, u *packet.TTP) { t.Dst = r.To }), netsim.Accept
}

// Wiretap copies matching traffic to a collector — "the desire of third
// parties to observe a data flow (e.g., wiretap) calls for data capture
// sites in the network" (§VI-A). Encrypted payloads are captured but
// opaque; the tap records whether it could see inside.
type Wiretap struct {
	Label string
	// Captured accumulates capture records.
	Captured []Capture
}

// Capture is one intercepted packet summary.
type Capture struct {
	// Readable reports whether the payload was in the clear.
	Readable bool
}

// Name implements netsim.Middlebox.
func (w *Wiretap) Name() string { return w.Label }

// Silent implements netsim.Middlebox. Taps never announce themselves.
func (w *Wiretap) Silent() bool { return true }

// Process implements netsim.Middlebox.
func (w *Wiretap) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	tip, ttp := decode(data)
	if tip == nil {
		return nil, netsim.Accept
	}
	readable := true
	if ttp != nil && ttp.Next == packet.LayerTypeCrypto {
		readable = false
	}
	if tip.Proto == packet.LayerTypeCrypto {
		readable = false
	}
	w.Captured = append(w.Captured, Capture{Readable: readable})
	return nil, netsim.Accept
}
