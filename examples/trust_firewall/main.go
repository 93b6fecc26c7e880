// Trust firewall: the §V-B scenario end to end. A destination installs
// first a port firewall, then a trust-aware firewall driven by a chosen
// reputation mediator and the packet identity option; senders include
// honest users, certified attackers with bad histories, and visibly
// anonymous senders. The example also exercises rule disclosure and the
// liability guarantor.
//
// Run with: go run ./examples/trust_firewall
package main

import (
	"fmt"

	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trust"
)

func main() {
	sched := sim.NewScheduler()
	g := topology.Linear(3, sim.Millisecond) // sender -1- transit -2- receiver
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

	// The receiver picks a reputation mediator it trusts (§V-B: "the
	// parties must be able to choose, so they can select third parties
	// that they trust").
	rep := trust.NewReputation(1.0)
	for i := 0; i < 10; i++ {
		rep.Report("alice", true, nil)
		rep.Report("mallory", false, nil)
	}

	send := func(identity *packet.IdentityOption, port uint16) *netsim.Trace {
		data, err := packet.Serialize(
			&packet.TIP{TTL: 8, Proto: packet.LayerTypeTTP,
				Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(3, 1), Identity: identity},
			&packet.TTP{DstPort: port, Next: packet.LayerTypeRaw},
			&packet.Raw{Data: []byte("hello")})
		if err != nil {
			panic(err)
		}
		tr := net.Send(1, data)
		sched.Run()
		return tr
	}
	report := func(who string, tr *netsim.Trace) {
		verdict := "DELIVERED"
		if !tr.Delivered {
			verdict = "blocked (" + tr.DropReason + ")"
		}
		fmt.Printf("  %-28s %s\n", who, verdict)
	}

	alice := &packet.IdentityOption{Scheme: packet.IdentityCertified, ID: []byte("alice")}
	mallory := &packet.IdentityOption{Scheme: packet.IdentityCertified, ID: []byte("mallory")}
	anon := &packet.IdentityOption{Scheme: packet.IdentityAnonymous}

	fmt.Println("port firewall (blocks all high ports):")
	pfw := &middlebox.PortFirewall{Label: "port-fw", BlockedPorts: highPorts(), BlockInbound: true}
	net.Node(3).AddMiddlebox(pfw)
	report("alice, new app port 7777", send(alice, 7777))
	report("mallory, attack on port 80", send(mallory, 80))
	fmt.Printf("  (the firewall discloses %d rules on request)\n", len(pfw.Rules()))

	fmt.Println("\ntrust-aware firewall (mediates on who, not which port):")
	net.Node(3).RemoveMiddlebox("port-fw")
	net.Node(3).AddMiddlebox(&middlebox.TrustFirewall{Label: "trust-fw", MinScore: 0.5, Rep: rep})
	report("alice, new app port 7777", send(alice, 7777))
	report("mallory, attack on port 80", send(mallory, 80))
	report("anonymous sender (visible)", send(anon, 80))

	// The guarantor: even admitted strangers are safe to transact with
	// because a third party caps the loss.
	fmt.Println("\nliability guarantor:")
	card := trust.NewGuarantor("acme-card", 50)
	tx := card.Charge(400)
	fmt.Printf("  alice buys $400 from an unknown shop via %s\n", card.Name)
	refund := card.Dispute(tx)
	fmt.Printf("  shop defrauds her; dispute refunds $%.0f, her loss capped at $%.0f\n",
		refund, card.BuyerLoss(tx))
}

func highPorts() map[uint16]bool {
	m := map[uint16]bool{}
	for p := uint16(1024); p <= 10000; p++ {
		m[p] = true
	}
	return m
}
