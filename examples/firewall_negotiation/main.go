// Firewall negotiation: §V-B's MIDCOM-style control channel end to end.
// A destination network runs a default-deny negotiable firewall whose
// admission rules are written in the tussle policy language; an endpoint
// with a certified identity and good reputation opens a pinhole for a
// brand-new application in-band, while anonymous and disreputable
// requesters are refused — the trust tussle playing out inside the
// design rather than around it.
//
// Run with: go run ./examples/firewall_negotiation
package main

import (
	"fmt"
	"os"

	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trust"
)

const admission = `
policy "pinhole-admission" {
    principal site-admin
    applies-to firewall-control

    rule no-anon {
        when identity-scheme == "anonymous" || identity-scheme == "none"
        then deny "identify yourself"
    }
    rule no-privileged {
        when requested-port < 1024
        then deny "privileged ports are not negotiable"
    }
    rule reputable { when reputation >= 0.5 then permit }
    default deny "insufficient reputation"
}
`

// dataPlaneVocabulary is the attribute ontology a firewall can read off
// a data packet's headers. Anything else a policy references cannot be
// enforced on the data plane.
var dataPlaneVocabulary = []string{
	"src-provider", "dst-provider", "port", "src-port", "tos",
	"direction", "identity-scheme", "identity", "encrypted",
	"inspectable", "tunneled", "has-payment",
}

func main() {
	doc, err := policy.Parse(admission)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("admission policy %q: attributes %v\n", doc.Name, doc.Attributes())
	if out := policy.Analyze(doc, dataPlaneVocabulary); len(out) > 0 {
		// "reputation" and "requested-port" are control-channel
		// attributes beyond the data-plane vocabulary; the negotiable
		// firewall understands them, a data-plane firewall could not.
		fmt.Printf("(attributes beyond the data-plane ontology: %v — only the control channel can evaluate them)\n\n", out)
	}

	// Network: client (1) — transit (2) — protected site (3).
	sched := sim.NewScheduler()
	g := topology.Linear(3, sim.Millisecond)
	net := netsim.New(sched, g)
	for id := topology.NodeID(1); id <= 3; id++ {
		id := id
		net.Node(id).Route = func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
			d := topology.NodeID(dst.Provider())
			switch {
			case d > id:
				return id + 1, true
			case d < id:
				return id - 1, true
			}
			return id, true
		}
	}
	rep := trust.NewReputation(1.0)
	for i := 0; i < 10; i++ {
		rep.Report("alice", true, nil)
		rep.Report("mallory", false, nil)
	}
	compiled, err := policy.CompileDocument(doc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fw := &middlebox.NegotiableFirewall{Label: "site-fw", Doc: compiled, Rep: rep,
		AlwaysOpen: map[uint16]bool{80: true}}
	net.Node(3).AddMiddlebox(fw)

	siteAddr := packet.MakeAddr(3, 1)
	appData := func(port uint16) []byte {
		data, err := packet.Serialize(
			&packet.TIP{TTL: 8, Proto: packet.LayerTypeTTP, Src: packet.MakeAddr(1, 1), Dst: siteAddr},
			&packet.TTP{DstPort: port, Next: packet.LayerTypeRaw},
			&packet.Raw{Data: []byte("new-app hello")})
		if err != nil {
			panic(err)
		}
		return data
	}
	try := func(label string, data []byte) {
		tr := net.Send(1, data)
		sched.Run()
		verdict := "DELIVERED"
		if !tr.Delivered {
			verdict = "blocked (" + tr.DropReason + ")"
		}
		fmt.Printf("  %-44s %s\n", label, verdict)
	}

	fmt.Println("before negotiation:")
	try("new application on port 7777", appData(7777))
	try("web on port 80 (always open)", appData(80))

	fmt.Println("\nnegotiation:")
	alice := &packet.IdentityOption{Scheme: packet.IdentityCertified, ID: []byte("alice")}
	mallory := &packet.IdentityOption{Scheme: packet.IdentityCertified, ID: []byte("mallory")}
	anon := &packet.IdentityOption{Scheme: packet.IdentityAnonymous}
	for _, req := range []struct {
		who  string
		id   *packet.IdentityOption
		port uint16
	}{
		{"anonymous requester, port 7777", anon, 7777},
		{"mallory (bad reputation), port 7777", mallory, 7777},
		{"alice (good reputation), port 22", alice, 22},
		{"alice (good reputation), port 7777", alice, 7777},
	} {
		data, err := middlebox.PinholeRequest(packet.MakeAddr(1, 1), siteAddr, req.id, req.port)
		if err != nil {
			panic(err)
		}
		before := fw.Granted
		net.Send(1, data)
		sched.Run()
		outcome := "denied"
		if fw.Granted > before {
			outcome = "GRANTED"
		}
		fmt.Printf("  %-44s %s\n", req.who, outcome)
	}

	fmt.Println("\nafter negotiation:")
	try("new application on port 7777", appData(7777))
	try("unnegotiated port 9999", appData(9999))
	fmt.Printf("\nfirewall stats: %d requests, %d granted, %d denied, %d data packets dropped\n",
		fw.Requests, fw.Granted, fw.Denied, fw.Hits)
	fmt.Println("(the end node and the control point communicated about the desired controls — §V-B)")
}
