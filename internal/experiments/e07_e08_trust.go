package experiments

import (
	"fmt"

	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/trust"
)

// sender is a traffic source for the trust experiments.
type sender struct {
	name     string
	attacker bool
	scheme   uint8
}

// mkTrafficPacket builds one packet from a sender, attackers choosing
// ports to blend in.
func mkTrafficPacket(s sender, port uint16) []byte {
	tip := &packet.TIP{
		TTL: 8, Proto: packet.LayerTypeTTP,
		Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(2, 1),
	}
	switch s.scheme {
	case packet.IdentityAnonymous:
		tip.Identity = &packet.IdentityOption{Scheme: packet.IdentityAnonymous}
	case packet.IdentityCertified:
		tip.Identity = &packet.IdentityOption{Scheme: packet.IdentityCertified, ID: []byte(s.name)}
	}
	data, err := packet.Serialize(tip,
		&packet.TTP{DstPort: port, Next: packet.LayerTypeRaw},
		&packet.Raw{Data: []byte("x")})
	if err != nil {
		panic(err)
	}
	return data
}

// E7TrustFirewall tests §V-B: a firewall that mediates on *who* is
// communicating (identity + chosen reputation mediator) dominates a
// port-based filter once attackers stop using distinctive ports: the
// port filter must either over-block (breaking legitimate services) or
// under-block (admitting attacks on allowed ports).
func E7TrustFirewall(seed uint64) *Result {
	res := &Result{
		ID:    "E7",
		Title: "port-based vs trust-aware firewall",
		Claim: "§V-B: firewalls must apply constraints based on who is communicating, not just what protocols are run",
		Columns: []string{
			"attacks-admitted", "legit-blocked", "admitted-total",
		},
	}
	for _, design := range []string{"port-fw", "trust-fw"} {
		for _, attackerFrac := range []float64{0.1, 0.3} {
			rng := sim.NewRNG(seed)
			rep := trust.NewReputation(1.0)
			// Senders: attackers have a bad history, honest senders good.
			var senders []sender
			for i := 0; i < 200; i++ {
				s := sender{name: fmt.Sprintf("s%d", i), attacker: rng.Bool(attackerFrac), scheme: packet.IdentityCertified}
				for k := 0; k < 6; k++ {
					rep.Report(s.name, !s.attacker, nil)
				}
				senders = append(senders, s)
			}
			var fw netsim.Middlebox
			if design == "port-fw" {
				// Allow only well-known service ports.
				blocked := map[uint16]bool{}
				for p := uint16(1024); p < 1124; p++ {
					blocked[p] = true
				}
				fw = &middlebox.PortFirewall{Label: "pfw", BlockedPorts: blocked, BlockInbound: true}
			} else {
				fw = &middlebox.TrustFirewall{Label: "tfw", MinScore: 0.5, Rep: rep}
			}
			attacksAdmitted, legitBlocked, admitted := 0, 0, 0
			for _, s := range senders {
				// Attackers blend in: they use port 80 like everyone
				// else (the paper's arms race, ports carry no intent).
				port := uint16(80)
				if !s.attacker && rng.Bool(0.3) {
					// Some legitimate traffic uses high ports (new
					// applications!).
					port = 1024 + uint16(rng.Intn(100))
				}
				data := mkTrafficPacket(s, port)
				_, verdict := fw.Process(2, netsim.Delivering, data)
				if verdict == netsim.Accept {
					admitted++
					if s.attacker {
						attacksAdmitted++
					}
				} else if !s.attacker {
					legitBlocked++
				}
			}
			res.AddRow(fmt.Sprintf("%s attackers=%.0f%%", design, attackerFrac*100),
				float64(attacksAdmitted), float64(legitBlocked), float64(admitted))
		}
	}
	res.Finding = fmt.Sprintf(
		"at 30%% attackers the port firewall admits %.0f attacks and blocks %.0f legitimate senders; the trust-aware firewall admits %.0f attacks and blocks %.0f legitimate senders",
		res.MustGet("port-fw attackers=30%", "attacks-admitted"),
		res.MustGet("port-fw attackers=30%", "legit-blocked"),
		res.MustGet("trust-fw attackers=30%", "attacks-admitted"),
		res.MustGet("trust-fw attackers=30%", "legit-blocked"))
	return res
}

// E8Anonymity tests §V-B1: "while it will be possible to act
// anonymously, many people will choose not to communicate with you if
// you do" — but only when anonymity is *visible*. When anonymous senders
// can disguise themselves as ordinary traffic, receivers cannot refuse
// selectively and fraud rides in with everyone else.
func E8Anonymity(seed uint64) *Result {
	res := &Result{
		ID:    "E8",
		Title: "visible vs hidden anonymity",
		Claim: "§V-B1: a compromise outcome — anonymity is possible, but hard to disguise, so others can refuse it",
		Columns: []string{
			"fraud-suffered", "legit-completed", "anon-completed",
		},
	}
	for _, visibility := range []string{"visible-anon", "hidden-anon"} {
		for _, anonFrac := range []float64{0.2, 0.5} {
			rng := sim.NewRNG(seed)
			// Anonymous senders commit fraud at a higher rate (no
			// accountability); identified senders rarely (reputation at
			// stake).
			const fraudAnon, fraudIdent = 0.30, 0.02
			fraud, legitDone, anonDone := 0, 0, 0
			for i := 0; i < 1000; i++ {
				anon := rng.Bool(anonFrac)
				scheme := packet.IdentityCertified
				if anon {
					if visibility == "visible-anon" {
						scheme = packet.IdentityAnonymous
					} else {
						// Disguised: claims a throwaway certified
						// identity the receiver cannot distinguish.
						scheme = packet.IdentityCertified
					}
				}
				// Receiver policy: refuse visibly anonymous senders.
				refused := scheme == packet.IdentityAnonymous
				if refused {
					continue
				}
				if anon {
					anonDone++
					if rng.Bool(fraudAnon) {
						fraud++
					}
				} else {
					legitDone++
					if rng.Bool(fraudIdent) {
						fraud++
					}
				}
			}
			res.AddRow(fmt.Sprintf("%s anon=%.0f%%", visibility, anonFrac*100),
				float64(fraud), float64(legitDone), float64(anonDone))
		}
	}
	res.Finding = fmt.Sprintf(
		"with 50%% anonymous senders, visible anonymity lets receivers refuse them (fraud %.0f, all from identified senders); hidden anonymity forces acceptance and fraud rises to %.0f",
		res.MustGet("visible-anon anon=50%", "fraud-suffered"),
		res.MustGet("hidden-anon anon=50%", "fraud-suffered"))
	return res
}
