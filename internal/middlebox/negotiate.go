package middlebox

import (
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/topology"
	"repro/internal/trust"
)

// ControlPort is the well-known port for firewall pinhole requests — the
// MIDCOM-style control channel §V-B footnote 12 refers to ("protocols
// and interfaces to allow the end node and the control point to
// communicate about the desired controls").
const ControlPort uint16 = 3288

// NegotiableFirewall blocks by default but accepts in-band pinhole
// requests: a control packet carrying the desired port (2-byte payload)
// and the requester's identity option. The admission decision is a TPL
// policy evaluation — who may open what is expressed in the policy
// language, not hard-coded.
type NegotiableFirewall struct {
	Label string
	// Doc governs pinhole admission, evaluated under
	// policy.DefaultBudget per request. The evaluation environment gets
	// "requested-port", "identity-scheme", "identity", and
	// "reputation" (when Rep is set).
	Doc *policy.CompiledDocument
	// Rep optionally supplies reputation scores for requesters.
	Rep *trust.Reputation
	// AlwaysOpen ports need no negotiation.
	AlwaysOpen map[uint16]bool

	pinholes map[uint16]bool
	// Requests/Granted/Denied count control-channel activity; Hits
	// counts data packets dropped.
	Requests, Granted, Denied, Hits int
}

// Name implements netsim.Middlebox.
func (f *NegotiableFirewall) Name() string { return f.Label }

// Silent implements netsim.Middlebox.
func (f *NegotiableFirewall) Silent() bool { return false }

// Process implements netsim.Middlebox.
func (f *NegotiableFirewall) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	if dir != netsim.Delivering {
		return nil, netsim.Accept
	}
	tip, ttp := decode(data)
	if tip == nil || ttp == nil {
		return nil, netsim.Accept
	}
	if ttp.DstPort == ControlPort {
		f.handleRequest(tip, ttp)
		// The control packet is consumed either way: the firewall is
		// the endpoint of the control conversation.
		return nil, netsim.Drop
	}
	if f.AlwaysOpen[ttp.DstPort] || f.pinholes[ttp.DstPort] {
		return nil, netsim.Accept
	}
	f.Hits++
	return nil, netsim.Drop
}

func (f *NegotiableFirewall) handleRequest(tip *packet.TIP, ttp *packet.TTP) {
	f.Requests++
	payload := ttp.LayerPayload()
	if len(payload) < 2 {
		f.Denied++
		return
	}
	port := uint16(payload[0])<<8 | uint16(payload[1])
	env := policy.Env{
		"requested-port": policy.Num(float64(port)),
	}
	scheme := "none"
	identity := ""
	if tip.Identity != nil {
		scheme = trust.Scheme(tip.Identity.Scheme).String()
		identity = string(tip.Identity.ID)
	}
	env["identity-scheme"] = policy.Str(scheme)
	env["identity"] = policy.Str(identity)
	if f.Rep != nil {
		env["reputation"] = policy.Num(f.Rep.Score(identity))
	}
	if f.Doc == nil {
		f.Denied++
		return
	}
	budget := policy.DefaultBudget()
	d, _ := f.Doc.Evaluate(env, &budget)
	if d.Permitted() {
		if f.pinholes == nil {
			f.pinholes = make(map[uint16]bool)
		}
		f.pinholes[port] = true
		f.Granted++
		return
	}
	f.Denied++
}

// PinholeRequest builds the control packet an endpoint sends to open a
// port through the firewall at fwAddr.
func PinholeRequest(src, fwAddr packet.Addr, identity *packet.IdentityOption, port uint16) ([]byte, error) {
	return packet.Serialize(
		&packet.TIP{TTL: 16, Proto: packet.LayerTypeTTP, Src: src, Dst: fwAddr, Identity: identity},
		&packet.TTP{SrcPort: 50000, DstPort: ControlPort, Next: packet.LayerTypeRaw},
		&packet.Raw{Data: []byte{byte(port >> 8), byte(port)}})
}
