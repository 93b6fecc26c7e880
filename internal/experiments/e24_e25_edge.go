package experiments

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/routing/pathvector"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trust"
)

// E24DelegatedControls tests the §V-B technical question: "whether each
// end-node can implement sufficient trust-related controls within
// itself, or whether delegation of this control to a remote point inside
// the network is required." End-node controls work exactly when the host
// is competently administered; with host security "of variable and
// mostly poor quality", a delegated trust-aware firewall protects the
// weak hosts too — which is why "as a practical matter, the market calls
// for firewalls."
func E24DelegatedControls(seed uint64) *Result {
	res := &Result{
		ID:    "E24",
		Title: "end-node vs delegated trust controls",
		Claim: "§V-B: host security is of variable and mostly poor quality; this desire for protection leads to firewalls",
		Columns: []string{
			"compromised", "attacks-blocked", "legit-served",
		},
	}
	for _, design := range []string{"end-node", "delegated-fw", "both"} {
		for _, patchRate := range []float64{0.3, 0.9} {
			rng := sim.NewRNG(seed)
			rep := trust.NewReputation(1.0)
			for i := 0; i < 8; i++ {
				rep.Report("friend", true, nil)
				rep.Report("attacker", false, nil)
			}
			const nHosts = 200
			compromised, blocked, served := 0, 0, 0
			for h := 0; h < nHosts; h++ {
				// A competent host runs its own trust controls; a
				// neglected one accepts anything that reaches it.
				competent := rng.Bool(patchRate)
				hostFilters := design != "delegated-fw" && competent
				netFilters := design != "end-node"
				// Each host receives one attack and one legitimate
				// interaction.
				for _, sender := range []string{"attacker", "friend"} {
					// Delegated firewall: drops senders with bad
					// reputations before they reach the host.
					if netFilters && rep.Score(sender) < 0.5 {
						if sender == "attacker" {
							blocked++
						}
						continue
					}
					// End-node control: same policy, host-enforced.
					if hostFilters && rep.Score(sender) < 0.5 {
						if sender == "attacker" {
							blocked++
						}
						continue
					}
					if sender == "attacker" {
						compromised++
					} else {
						served++
					}
				}
			}
			res.AddRow(fmt.Sprintf("%s patched=%.0f%%", design, patchRate*100),
				float64(compromised), float64(blocked), float64(served))
		}
	}
	res.Finding = fmt.Sprintf(
		"with 30%% competent hosts, pure end-node control leaves %.0f of 200 hosts compromised; the delegated firewall leaves %.0f — delegation is required exactly because host quality is poor (at 90%% patching the gap shrinks: %.0f vs %.0f)",
		res.MustGet("end-node patched=30%", "compromised"),
		res.MustGet("delegated-fw patched=30%", "compromised"),
		res.MustGet("end-node patched=90%", "compromised"),
		res.MustGet("delegated-fw patched=90%", "compromised"))
	return res
}

// E25Multihoming tests the §V-A1 recommendation: "the Internet design
// should incorporate mechanisms that make it easy for a host to change
// addresses and to have and use multiple addresses. ... This would
// relieve problems with end-node mobility, improve choice in multihomed
// machines, and improve the ease of changing providers." A dual-homed
// stub holds one provider-rooted address per upstream; when a provider
// path fails, the host sources traffic from its other address and stays
// reachable.
func E25Multihoming(seed uint64) *Result {
	res := &Result{
		ID:    "E25",
		Title: "multiple addresses: availability under provider failure",
		Claim: "§V-A1: hosts should have and use multiple addresses; addresses should reflect connectivity, not identity",
		Columns: []string{
			"delivery-healthy", "delivery-failed-upstream",
		},
	}
	for _, homing := range []string{"single-homed", "dual-homed"} {
		rng := sim.NewRNG(seed)
		// Topology: two providers (2, 3) both peering with a remote
		// provider (4) hosting the correspondent; the stub (5) buys
		// transit from provider 2, and when dual-homed also from 3.
		g := topology.NewGraph()
		for i := 1; i <= 5; i++ {
			kind := topology.Transit
			if i == 5 {
				kind = topology.Stub
			}
			g.AddNode(topology.NodeID(i), kind, 1)
		}
		g.AddLink(2, 1, topology.CustomerOf, sim.Millisecond, 1)
		g.AddLink(3, 1, topology.CustomerOf, sim.Millisecond, 1)
		g.AddLink(4, 1, topology.CustomerOf, sim.Millisecond, 1)
		g.AddLink(5, 2, topology.CustomerOf, sim.Millisecond, 1)
		if homing == "dual-homed" {
			g.AddLink(5, 3, topology.CustomerOf, sim.Millisecond, 1)
		}
		sched := sim.NewScheduler()
		net := netsim.New(sched, g)
		pv := pathvector.New(g)
		if err := pv.Converge(); err != nil {
			panic(err)
		}
		for _, id := range g.NodeIDs() {
			net.Node(id).Route = pv.RouteFunc(id)
		}
		correspondent := packet.MakeAddr(4, 1)
		// The host's addresses: one per upstream provider relationship
		// (provider-rooted, §V-A1). Replies route to the provider that
		// owns the prefix, so reachability via an address requires its
		// provider link to be up.
		addrs := []packet.Addr{packet.MakeAddr(2, 500)}
		if homing == "dual-homed" {
			addrs = append(addrs, packet.MakeAddr(3, 500))
		}
		// Reply reachability: the correspondent sends to each of the
		// host's addresses; the host is reachable if any address works.
		reachable := func() bool {
			for _, a := range addrs {
				// Replies to address a route toward a's provider; the
				// host is on that provider iff the access link is up.
				prov := topology.NodeID(a.Provider())
				data, err := packet.Serialize(
					&packet.TIP{TTL: 16, Proto: packet.LayerTypeRaw, Src: correspondent, Dst: a},
					&packet.Raw{Data: []byte("reply")})
				if err != nil {
					panic(err)
				}
				// Deliver to the provider, then the provider's access
				// link to the host must be up.
				tr := net.Send(4, data)
				sched.Run()
				if tr.Delivered && !net.LinkFailed(prov, 5) {
					return true
				}
			}
			return false
		}
		healthy := 0.0
		if reachable() {
			healthy = 1
		}
		// Primary upstream (provider 2) fails.
		net.FailLink(5, 2)
		net.Node(2).Route = func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
			// Provider 2 also withdraws the prefix internally.
			if dst.Provider() == 2 && dst.Host() == 500 {
				return 0, false
			}
			return pv.RouteFunc(2)(dst, tip)
		}
		failed := 0.0
		if reachable() {
			failed = 1
		}
		res.AddRow(homing, healthy, failed)
		_ = rng
	}
	res.Finding = fmt.Sprintf(
		"both configurations are reachable when healthy; after the primary upstream fails, the single-homed host is unreachable (%.0f) while the dual-homed host stays reachable via its second provider-rooted address (%.0f)",
		res.MustGet("single-homed", "delivery-failed-upstream"),
		res.MustGet("dual-homed", "delivery-failed-upstream"))
	return res
}
