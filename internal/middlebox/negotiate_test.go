package middlebox

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/trust"
)

func negotiationDoc(t *testing.T) *policy.CompiledDocument {
	t.Helper()
	doc, err := policy.Parse(`policy "pinholes" {
        principal admin
        applies-to firewall-control
        rule no-anon { when identity-scheme == "anonymous" || identity-scheme == "none" then deny "identify yourself" }
        rule no-privileged { when requested-port < 1024 then deny "privileged ports are not negotiable" }
        rule reputable { when reputation >= 0.5 then permit }
        default deny "insufficient reputation"
    }`)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := policy.CompileDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	return cd
}

func TestNegotiableFirewallGrantsAndEnforces(t *testing.T) {
	rep := trust.NewReputation(1.0)
	for i := 0; i < 10; i++ {
		rep.Report("alice", true, nil)
	}
	fw := &NegotiableFirewall{Label: "nfw", Doc: negotiationDoc(t), Rep: rep,
		AlwaysOpen: map[uint16]bool{80: true}}

	fwAddr := packet.MakeAddr(2, 1)
	alice := &packet.IdentityOption{Scheme: packet.IdentityCertified, ID: []byte("alice")}
	dataPkt := func(port uint16) []byte {
		return pkt(t, packet.TIP{Src: packet.MakeAddr(1, 1), Dst: fwAddr}, &packet.TTP{DstPort: port}, []byte("d"))
	}

	// Data to a closed port: dropped.
	if _, v := fw.Process(2, netsim.Delivering, dataPkt(7777)); v != netsim.Drop {
		t.Fatal("closed port admitted")
	}
	// Always-open port: fine.
	if _, v := fw.Process(2, netsim.Delivering, dataPkt(80)); v != netsim.Accept {
		t.Fatal("always-open port blocked")
	}
	// Negotiate 7777.
	req, err := PinholeRequest(packet.MakeAddr(1, 1), fwAddr, alice, 7777)
	if err != nil {
		t.Fatal(err)
	}
	if _, v := fw.Process(2, netsim.Delivering, req); v != netsim.Drop {
		t.Fatal("control packet should be consumed")
	}
	if fw.Granted != 1 {
		t.Fatalf("granted = %d", fw.Granted)
	}
	if _, v := fw.Process(2, netsim.Delivering, dataPkt(7777)); v != netsim.Accept {
		t.Fatal("negotiated pinhole not honored")
	}
}

func TestNegotiableFirewallDenials(t *testing.T) {
	rep := trust.NewReputation(1.0)
	for i := 0; i < 10; i++ {
		rep.Report("mallory", false, nil)
	}
	fw := &NegotiableFirewall{Label: "nfw", Doc: negotiationDoc(t), Rep: rep}
	fwAddr := packet.MakeAddr(2, 1)

	cases := []struct {
		name string
		id   *packet.IdentityOption
		port uint16
	}{
		{"anonymous requester", &packet.IdentityOption{Scheme: packet.IdentityAnonymous}, 7777},
		{"no identity", nil, 7777},
		{"privileged port", &packet.IdentityOption{Scheme: packet.IdentityCertified, ID: []byte("alice")}, 22},
		{"bad reputation", &packet.IdentityOption{Scheme: packet.IdentityCertified, ID: []byte("mallory")}, 7777},
	}
	for _, c := range cases {
		req, err := PinholeRequest(packet.MakeAddr(1, 1), fwAddr, c.id, c.port)
		if err != nil {
			t.Fatal(err)
		}
		fw.Process(2, netsim.Delivering, req)
		if len(fw.pinholes) != 0 {
			t.Fatalf("%s: pinhole granted", c.name)
		}
	}
	if fw.Denied != len(cases) {
		t.Fatalf("denied = %d, want %d", fw.Denied, len(cases))
	}
}

// Without a reputation mediator the request carries no "reputation"
// attribute: the reputable rule errors and is skipped, so the default
// denies even a certified requester — the decision the tree-walking
// reference gives for the same environment.
func TestNegotiableFirewallNoReputationDenies(t *testing.T) {
	doc := negotiationDoc(t)
	fw := &NegotiableFirewall{Label: "nfw", Doc: doc}
	alice := &packet.IdentityOption{Scheme: packet.IdentityCertified, ID: []byte("alice")}
	req, err := PinholeRequest(packet.MakeAddr(1, 1), packet.MakeAddr(2, 1), alice, 7777)
	if err != nil {
		t.Fatal(err)
	}
	fw.Process(2, netsim.Delivering, req)
	if fw.Granted != 0 || fw.Denied != 1 || len(fw.pinholes) != 0 {
		t.Fatalf("granted=%d denied=%d pinholes=%v", fw.Granted, fw.Denied, fw.pinholes)
	}
	ref, errs := policy.Evaluate(doc.Doc, policy.Env{
		"requested-port":  policy.Num(7777),
		"identity-scheme": policy.Str("certified"),
		"identity":        policy.Str("alice"),
	})
	if ref.Permitted() || !ref.Default || len(errs) != 1 {
		t.Fatalf("reference decision %+v errs %v, want the default deny after one rule error", ref, errs)
	}
}

func TestNegotiableFirewallMalformedRequest(t *testing.T) {
	fw := &NegotiableFirewall{Label: "nfw", Doc: negotiationDoc(t)}
	// Control packet with an empty payload.
	bad := pkt(t, packet.TIP{Src: 1, Dst: 2}, &packet.TTP{DstPort: ControlPort}, nil)
	fw.Process(2, netsim.Delivering, bad)
	if fw.Denied != 1 || len(fw.pinholes) != 0 {
		t.Fatalf("malformed request handling: denied=%d", fw.Denied)
	}
}

func TestNegotiableFirewallNoDocDeniesAll(t *testing.T) {
	fw := &NegotiableFirewall{Label: "nfw"}
	req, err := PinholeRequest(1, 2, &packet.IdentityOption{Scheme: packet.IdentityCertified, ID: []byte("x")}, 9000)
	if err != nil {
		t.Fatal(err)
	}
	fw.Process(2, netsim.Delivering, req)
	if fw.Granted != 0 || fw.Denied != 1 {
		t.Fatal("docless firewall should deny")
	}
}

func TestNegotiableFirewallTransitUntouched(t *testing.T) {
	fw := &NegotiableFirewall{Label: "nfw", Doc: negotiationDoc(t)}
	data := pkt(t, packet.TIP{Src: 1, Dst: 9}, &packet.TTP{DstPort: 7777}, nil)
	if _, v := fw.Process(2, netsim.Forwarding, data); v != netsim.Accept {
		t.Fatal("transit traffic filtered")
	}
}
