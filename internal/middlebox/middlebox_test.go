package middlebox

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/trust"
)

func pkt(t *testing.T, tip packet.TIP, ttp *packet.TTP, payload []byte) []byte {
	t.Helper()
	layers := []packet.SerializableLayer{&tip}
	if ttp != nil {
		tip.Proto = packet.LayerTypeTTP
		layers = append(layers, ttp)
	}
	layers = append(layers, &packet.Raw{Data: payload})
	if ttp != nil && ttp.Next == 0 {
		ttp.Next = packet.LayerTypeRaw
	}
	if tip.Proto == 0 {
		tip.Proto = packet.LayerTypeRaw
	}
	if tip.TTL == 0 {
		tip.TTL = 8
	}
	data, err := packet.Serialize(layers...)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestPortFirewallBlocksConfiguredPort(t *testing.T) {
	fw := &PortFirewall{Label: "fw", BlockedPorts: map[uint16]bool{25: true}}
	blocked := pkt(t, packet.TIP{Src: 1, Dst: 2}, &packet.TTP{DstPort: 25}, nil)
	allowed := pkt(t, packet.TIP{Src: 1, Dst: 2}, &packet.TTP{DstPort: 80}, nil)
	if _, v := fw.Process(2, netsim.Delivering, blocked); v != netsim.Drop {
		t.Fatal("port 25 not blocked")
	}
	if _, v := fw.Process(2, netsim.Delivering, allowed); v != netsim.Accept {
		t.Fatal("port 80 wrongly blocked")
	}
}

func TestPortFirewallInboundOnly(t *testing.T) {
	fw := &PortFirewall{Label: "fw", BlockedPorts: map[uint16]bool{80: true}, BlockInbound: true}
	data := pkt(t, packet.TIP{Src: 1, Dst: 2}, &packet.TTP{DstPort: 80}, nil)
	if _, v := fw.Process(3, netsim.Forwarding, data); v != netsim.Accept {
		t.Fatal("transit traffic should pass an inbound-only firewall")
	}
	if _, v := fw.Process(2, netsim.Delivering, data); v != netsim.Drop {
		t.Fatal("inbound traffic should be blocked")
	}
}

func TestPortFirewallTunnelEvasion(t *testing.T) {
	// The §V-A2 counter-move: the forbidden port hides inside a tunnel
	// on an allowed port, and the port firewall cannot see it.
	fw := &PortFirewall{Label: "fw", BlockedPorts: map[uint16]bool{80: true}}
	inner := pkt(t, packet.TIP{Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(2, 1)}, &packet.TTP{DstPort: 80}, []byte("web"))
	outer, err := packet.Serialize(
		&packet.TIP{TTL: 8, Proto: packet.LayerTypeTTP, Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(2, 1)},
		&packet.TTP{DstPort: 443, Next: packet.LayerTypeTunnel},
		&packet.Tunnel{Inner: packet.LayerTypeTIP},
		&packet.Raw{Data: inner})
	if err != nil {
		t.Fatal(err)
	}
	if _, v := fw.Process(2, netsim.Delivering, outer); v != netsim.Accept {
		t.Fatal("tunneled traffic should evade the port firewall")
	}
}

func TestPortFirewallDisclosure(t *testing.T) {
	fw := &PortFirewall{Label: "fw", BlockedPorts: map[uint16]bool{25: true, 80: true}}
	if rules := fw.Rules(); len(rules) != 2 || rules[0] != "deny port 25" {
		t.Fatalf("rules = %v", rules)
	}
}

func TestTrustFirewall(t *testing.T) {
	rep := trust.NewReputation(1.0)
	for i := 0; i < 10; i++ {
		rep.Report("goodguy", true, nil)
		rep.Report("badguy", false, nil)
	}
	fw := &TrustFirewall{Label: "tfw", MinScore: 0.5, Rep: rep}

	mk := func(id *packet.IdentityOption) []byte {
		return pkt(t, packet.TIP{Src: 1, Dst: 2, Identity: id}, &packet.TTP{DstPort: 9999}, nil)
	}
	good := mk(&packet.IdentityOption{Scheme: packet.IdentityCertified, ID: []byte("goodguy")})
	bad := mk(&packet.IdentityOption{Scheme: packet.IdentityCertified, ID: []byte("badguy")})
	anon := mk(&packet.IdentityOption{Scheme: packet.IdentityAnonymous})
	none := mk(nil)

	if _, v := fw.Process(2, netsim.Delivering, good); v != netsim.Accept {
		t.Fatal("reputable sender blocked")
	}
	if _, v := fw.Process(2, netsim.Delivering, bad); v != netsim.Drop {
		t.Fatal("disreputable sender admitted")
	}
	if _, v := fw.Process(2, netsim.Delivering, anon); v != netsim.Drop {
		t.Fatal("anonymous sender admitted by default")
	}
	if _, v := fw.Process(2, netsim.Delivering, none); v != netsim.Drop {
		t.Fatal("unidentified sender admitted")
	}
	// Note: unlike the port firewall, ports are irrelevant here.
	if _, v := fw.Process(2, netsim.Forwarding, bad); v != netsim.Accept {
		t.Fatal("trust firewall should only filter at delivery")
	}
}

func TestNATTranslatesAndRestores(t *testing.T) {
	public := packet.MakeAddr(5, 1)
	nat := NewNAT("nat", public)
	internal := packet.MakeAddr(5, 77)
	out := pkt(t, packet.TIP{Src: internal, Dst: packet.MakeAddr(9, 1)}, &packet.TTP{SrcPort: 1234, DstPort: 80}, []byte("req"))

	translated, v := nat.Process(5, netsim.Sending, out)
	if v != netsim.Accept || translated == nil {
		t.Fatal("outbound not translated")
	}
	var tip packet.TIP
	var ttp packet.TTP
	if err := tip.DecodeFrom(translated); err != nil {
		t.Fatal(err)
	}
	if err := ttp.DecodeFrom(tip.LayerPayload()); err != nil {
		t.Fatal(err)
	}
	if tip.Src != public {
		t.Fatalf("src = %v, want %v", tip.Src, public)
	}
	extPort := ttp.SrcPort

	// Reply comes back to the public address and the external port.
	reply := pkt(t, packet.TIP{Src: packet.MakeAddr(9, 1), Dst: public}, &packet.TTP{SrcPort: 80, DstPort: extPort}, []byte("resp"))
	restored, v := nat.Process(5, netsim.Delivering, reply)
	if v != netsim.Accept || restored == nil {
		t.Fatal("inbound not restored")
	}
	if err := tip.DecodeFrom(restored); err != nil {
		t.Fatal(err)
	}
	if tip.Dst != internal {
		t.Fatalf("restored dst = %v, want %v", tip.Dst, internal)
	}
}

func TestNATPassesUnrelatedInbound(t *testing.T) {
	nat := NewNAT("nat", packet.MakeAddr(5, 1))
	in := pkt(t, packet.TIP{Src: 9, Dst: packet.MakeAddr(5, 1)}, &packet.TTP{DstPort: 9999}, nil)
	out, v := nat.Process(5, netsim.Delivering, in)
	if v != netsim.Accept || out != nil {
		t.Fatal("unmapped inbound should pass untouched")
	}
}

func TestRedirector(t *testing.T) {
	r := &Redirector{Label: "smtp-hijack", MatchPort: 25, To: packet.MakeAddr(5, 25)}
	mail := pkt(t, packet.TIP{Src: 1, Dst: packet.MakeAddr(9, 1)}, &packet.TTP{DstPort: 25}, []byte("MAIL"))
	out, v := r.Process(5, netsim.Forwarding, mail)
	if v != netsim.Accept || out == nil {
		t.Fatal("mail not redirected")
	}
	var tip packet.TIP
	if err := tip.DecodeFrom(out); err != nil {
		t.Fatal(err)
	}
	if tip.Dst != packet.MakeAddr(5, 25) {
		t.Fatalf("redirected to %v", tip.Dst)
	}
	web := pkt(t, packet.TIP{Src: 1, Dst: packet.MakeAddr(9, 1)}, &packet.TTP{DstPort: 80}, nil)
	if out, _ := r.Process(5, netsim.Forwarding, web); out != nil {
		t.Fatal("non-matching traffic rewritten")
	}
}

func TestWiretapReadsClearMissesCrypto(t *testing.T) {
	w := &Wiretap{Label: "tap"}
	clear := pkt(t, packet.TIP{Src: packet.MakeAddr(1, 1), Dst: 2}, &packet.TTP{DstPort: 80}, []byte("private"))
	w.Process(3, netsim.Forwarding, clear)

	c := &packet.Crypto{Nonce: 1}
	c.Seal([]byte("k"), []byte("private"), packet.LayerTypeRaw)
	cdata, err := packet.Serialize(c)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := packet.Serialize(
		&packet.TIP{TTL: 8, Proto: packet.LayerTypeTTP, Src: packet.MakeAddr(1, 1), Dst: 2},
		&packet.TTP{DstPort: 80, Next: packet.LayerTypeCrypto},
		&packet.Raw{Data: cdata})
	if err != nil {
		t.Fatal(err)
	}
	w.Process(3, netsim.Forwarding, enc)

	if len(w.Captured) != 2 {
		t.Fatalf("captured %d, want 2", len(w.Captured))
	}
	if w.Captured[0].Readable == w.Captured[1].Readable {
		t.Fatalf("captured %+v, want exactly one readable", w.Captured)
	}
	if !w.Silent() {
		t.Fatal("wiretaps must be silent")
	}
}

func TestMiddleboxAccessors(t *testing.T) {
	boxes := []struct {
		name   string
		silent bool
		mb     netsim.Middlebox
	}{
		{"pf", false, &PortFirewall{Label: "pf"}},
		{"tf", false, &TrustFirewall{Label: "tf"}},
		{"nat", false, NewNAT("nat", 1)},
		{"rd", false, &Redirector{Label: "rd"}},
		{"tap", true, &Wiretap{Label: "tap"}},
		{"nfw", false, &NegotiableFirewall{Label: "nfw"}},
	}
	for _, b := range boxes {
		if b.mb.Name() != b.name {
			t.Errorf("Name() = %q, want %q", b.mb.Name(), b.name)
		}
		if b.mb.Silent() != b.silent {
			t.Errorf("%s: Silent() = %v", b.name, b.mb.Silent())
		}
	}
	// A quiet redirector reports silent.
	if q := (&Redirector{Label: "q", Quiet: true}); !q.Silent() {
		t.Error("quiet redirector not silent")
	}
}

func TestMiddleboxesPassMalformedTraffic(t *testing.T) {
	// Garbage bytes must pass every middlebox unharmed (fail-open for
	// classification, the forwarding plane drops malformed packets
	// itself).
	garbage := []byte{0xde, 0xad}
	boxes := []netsim.Middlebox{
		&PortFirewall{Label: "pf", BlockedPorts: map[uint16]bool{1: true}},
		&TrustFirewall{Label: "tf"},
		NewNAT("nat", 1),
		&Redirector{Label: "rd", MatchPort: 1},
		&Wiretap{Label: "tap"},
		&NegotiableFirewall{Label: "nfw"},
	}
	for _, mb := range boxes {
		if out, v := mb.Process(1, netsim.Delivering, garbage); v != netsim.Accept || out != nil {
			t.Errorf("%T mangled garbage: %v %v", mb, out, v)
		}
	}
}
