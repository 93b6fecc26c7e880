package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/congestion"
	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/routing/linkstate"
	"repro/internal/sim"
	"repro/internal/topology"
)

// E17Congestion tests the §II-B lead example: "TCP congestion control
// 'works' when and only when the majority of end-systems both
// participate and follow a common set of rules" — and when the balance
// shifts, "the technical design of the system will do nothing to bound
// or guide the resulting shift", unless a mechanism like fair queueing
// is placed in the design.
func E17Congestion(seed uint64) *Result {
	res := &Result{
		ID:    "E17",
		Title: "the congestion-control tussle: social pressure vs fair queueing",
		Claim: "§II-B: cooperative congestion control holds only while defectors are few; a shared FIFO bottleneck does nothing to bound the shift",
		Columns: []string{
			"cheater-share", "compliant-goodput", "loss-rate", "jain",
		},
	}
	_ = seed // the model is deterministic given its configuration
	const nFlows, capacity, rounds = 10, 100.0, 600
	for _, disc := range []congestion.Discipline{congestion.SharedFIFO, congestion.FairQueue} {
		for _, cheaters := range []int{0, 1, 3, 5} {
			var flows []*congestion.Flow
			for i := 0; i < nFlows; i++ {
				flows = append(flows, congestion.NewFlow(i < cheaters))
			}
			b := congestion.NewBottleneck(capacity, disc, flows...)
			b.Run(rounds)
			cheaterShare := b.ShareOf(func(f *congestion.Flow) bool { return f.Aggressive })
			compliantGoodput := 0.0
			for _, f := range flows {
				if !f.Aggressive {
					compliantGoodput += f.Delivered
				}
			}
			compliantGoodput /= rounds
			res.AddRow(fmt.Sprintf("%v cheaters=%d", disc, cheaters),
				cheaterShare, compliantGoodput, b.LossRate(), b.JainIndex())
		}
	}
	res.Finding = fmt.Sprintf(
		"on shared FIFO, 3 cheaters of 10 flows take %.0f%% of the link and compliant goodput collapses from %.0f to %.0f; fair queueing bounds the same cheaters to %.0f%% with compliant goodput %.0f",
		res.MustGet("shared-fifo cheaters=3", "cheater-share")*100,
		res.MustGet("shared-fifo cheaters=0", "compliant-goodput"),
		res.MustGet("shared-fifo cheaters=3", "compliant-goodput"),
		res.MustGet("fair-queue cheaters=3", "cheater-share")*100,
		res.MustGet("fair-queue cheaters=3", "compliant-goodput"))
	return res
}

// E18Byzantine tests the §II-B "one right answer" strategy (Perlman):
// designs can be made resistant to players who perceive the answer
// differently. A byzantine AS advertises falsely cheap links to attract
// traffic and blackholes it; signed, two-sided-attested advertisements
// bound the damage.
func E18Byzantine(seed uint64) *Result { return e18Byzantine(seed, nil) }

func e18Byzantine(seed uint64, reg *obs.Registry) *Result {
	res := &Result{
		ID:    "E18",
		Title: "byzantine route advertisement: trusting vs robust flooding",
		Claim: "§II-B: byzantine-robust routing resists small groups placing their interests over the design's values",
		Columns: []string{
			"delivery", "attracted-to-liar", "rejected-ads",
		},
	}
	// Every configuration runs on the same graph and keys; nothing below
	// mutates either.
	rng := sim.NewRNG(seed)
	g := topology.GenerateHierarchy(topology.DefaultHierarchy(), rng)
	keys := linkstate.GenerateKeys(g, rng)
	for _, mode := range []linkstate.VerifyMode{linkstate.TrustAll, linkstate.SignedTwoSided} {
		for _, attackers := range []int{0, 1, 2} {
			db := linkstate.NewAdDatabase(g, mode, keys)
			db.AttachObs(reg)

			// The attackers are transit nodes (stubs attract nothing).
			var liars []topology.NodeID
			for _, id := range g.NodeIDs() {
				if g.Nodes[id].Kind == topology.Transit && g.Nodes[id].Tier == 2 && len(liars) < attackers {
					liars = append(liars, id)
				}
			}
			isLiar := map[topology.NodeID]bool{}
			for _, l := range liars {
				isLiar[l] = true
			}
			for _, id := range g.NodeIDs() {
				var ad *linkstate.Advertisement
				if isLiar[id] {
					ad = linkstate.LiarAdvertisement(g, id, 0.01, nil)
				} else {
					ad = linkstate.HonestAdvertisement(g, id)
				}
				ad.Sign(keys[id])
				db.Flood(ad)
			}

			// Forwarding: each node routes by the advertised database;
			// liars blackhole transit traffic.
			sched := sim.NewScheduler()
			sched.AttachObs(reg)
			net := netsim.New(sched, g)
			net.AttachObs(reg, nil)
			tables := linkstate.Compute(db)
			for _, id := range g.NodeIDs() {
				net.Node(id).Route = tables[id].RouteFunc()
				if isLiar[id] {
					net.Node(id).AddMiddlebox(blackhole{})
				}
			}
			stubs := g.Stubs()
			var traces []*netsim.Trace
			attracted := 0
			for i := 0; i < len(stubs); i++ {
				for j := 0; j < len(stubs); j++ {
					if i == j {
						continue
					}
					src, dst := stubs[i], stubs[j]
					data, err := packet.Serialize(
						&packet.TIP{TTL: 32, Proto: packet.LayerTypeRaw,
							Src: packet.MakeAddr(uint16(src), 1), Dst: packet.MakeAddr(uint16(dst), 1)},
						&packet.Raw{Data: []byte("x")})
					if err != nil {
						panic(err)
					}
					traces = append(traces, net.Send(src, data))
				}
			}
			sched.Run()
			delivered := 0
			for _, tr := range traces {
				if tr.Delivered {
					delivered++
				} else if isLiar[tr.DropNode] {
					attracted++
				}
			}
			res.AddRow(fmt.Sprintf("%s liars=%d", modeName(mode), attackers),
				ratio(delivered, len(traces)),
				ratio(attracted, len(traces)),
				float64(db.Rejected))
		}
	}
	res.Finding = fmt.Sprintf(
		"with 2 byzantine transits, trusting flooding loses %.0f%% of traffic into blackholes; signed two-sided attestation keeps delivery at %.0f%% (vs %.0f%% clean)",
		res.MustGet("trust-all liars=2", "attracted-to-liar")*100,
		res.MustGet("signed-two-sided liars=2", "delivery")*100,
		res.MustGet("signed-two-sided liars=0", "delivery")*100)
	return res
}

func modeName(m linkstate.VerifyMode) string {
	if m == linkstate.TrustAll {
		return "trust-all"
	}
	return "signed-two-sided"
}

// blackhole silently drops everything it is asked to forward.
type blackhole struct{}

func (blackhole) Name() string { return "blackhole" }
func (blackhole) Silent() bool { return true }
func (blackhole) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	if dir == netsim.Forwarding {
		return nil, netsim.Drop
	}
	return nil, netsim.Accept
}

// E19MailChoice tests §IV-B's mail example plus its footnote: users
// choose their SMTP server for its quality; "an ISP might try to control
// what SMTP server a customer uses by redirecting packets based on the
// port number"; users respond by tunneling. The metric is the §IV-B
// payoff of choice: inbox spam experienced, and where mail actually
// flowed.
func E19MailChoice(seed uint64) *Result { return e19MailChoice(seed, nil) }

func e19MailChoice(seed uint64, reg *obs.Registry) *Result {
	res := &Result{
		ID:    "E19",
		Title: "mail server choice vs ISP redirection",
		Claim: "§IV-B: protocols must let all parties express choice; redirection re-imposes the provider's choice until users tunnel around it",
		Columns: []string{
			"via-chosen-server", "inbox-spam-rate",
		},
	}
	const nMessages = 600
	const spamFrac = 0.5
	servers := []*apps.MailServer{
		{Name: "isp-mail", Addr: packet.MakeAddr(2, 25), Reliability: 0.97, SpamFilter: 0.30, Price: 0},
		{Name: "quality-mail", Addr: packet.MakeAddr(3, 25), Reliability: 0.99, SpamFilter: 0.95, Price: 1},
	}
	prefs := apps.MailPrefs{WeightReliability: 2, WeightSpamFilter: 5, WeightPrice: 0.1}
	chosen := apps.ChooseServer(servers, prefs)

	for _, cfg := range []string{"free-choice", "isp-redirect", "redirect+tunnel"} {
		rng := sim.NewRNG(seed)
		// Topology: user at 1, ISP mail at 2, quality mail at 3; the
		// user's access ISP (node 2) can redirect port 25.
		sched := sim.NewScheduler()
		g := topology.NewGraph()
		g.AddNode(1, topology.Stub, 2)
		g.AddNode(2, topology.Transit, 1)
		g.AddNode(3, topology.Transit, 1)
		g.AddLink(1, 2, topology.CustomerOf, sim.Millisecond, 1)
		g.AddLink(2, 3, topology.PeerOf, sim.Millisecond, 1)
		sched.AttachObs(reg)
		net := netsim.New(sched, g)
		net.AttachObs(reg, nil)
		routes := map[topology.NodeID]map[uint16]topology.NodeID{
			1: {2: 2, 3: 2},
			2: {1: 1, 3: 3},
			3: {1: 2, 2: 2},
		}
		for id, tbl := range routes {
			tbl := tbl
			net.Node(id).Route = func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
				nh, ok := tbl[dst.Provider()]
				return nh, ok
			}
		}
		if cfg != "free-choice" {
			net.Node(2).AddMiddlebox(&middlebox.Redirector{
				Label: "smtp-hijack", MatchPort: 25, To: servers[0].Addr, Quiet: true,
			})
		}
		// Delivery handlers: whichever server receives the submission
		// handles the message stream.
		received := map[topology.NodeID]int{}
		for _, s := range servers {
			id := topology.NodeID(s.Addr.Provider())
			net.Node(id).Deliver = func(n *netsim.Node, tr *netsim.Trace, data []byte) {
				received[n.ID]++
			}
		}
		// The user submits messages to the *chosen* server.
		viaChosen := 0
		inboxSpam, inboxTotal := 0, 0
		for i := 0; i < nMessages; i++ {
			msg := apps.Message{Spam: rng.Bool(spamFrac)}
			useTunnel := cfg == "redirect+tunnel"
			var data []byte
			var err error
			if useTunnel {
				inner, ierr := packet.Serialize(
					&packet.TIP{TTL: 8, Proto: packet.LayerTypeTTP, Src: packet.MakeAddr(1, 1), Dst: chosen.Addr},
					&packet.TTP{DstPort: 25, Next: packet.LayerTypeRaw},
					&packet.Raw{Data: []byte("MAIL")})
				if ierr != nil {
					panic(ierr)
				}
				data, err = packet.Serialize(
					&packet.TIP{TTL: 8, Proto: packet.LayerTypeTTP, Src: packet.MakeAddr(1, 1), Dst: chosen.Addr},
					&packet.TTP{DstPort: 443, Next: packet.LayerTypeTunnel},
					&packet.Tunnel{Inner: packet.LayerTypeTIP},
					&packet.Raw{Data: inner})
			} else {
				data, err = packet.Serialize(
					&packet.TIP{TTL: 8, Proto: packet.LayerTypeTTP, Src: packet.MakeAddr(1, 1), Dst: chosen.Addr},
					&packet.TTP{DstPort: 25, Next: packet.LayerTypeRaw},
					&packet.Raw{Data: []byte("MAIL")})
			}
			if err != nil {
				panic(err)
			}
			tr := net.Send(1, data)
			sched.Run()
			if !tr.Delivered {
				continue
			}
			// Which server actually handled it?
			handler := servers[0]
			last := tr.Path()[len(tr.Path())-1]
			for _, s := range servers {
				if topology.NodeID(s.Addr.Provider()) == last {
					handler = s
				}
			}
			if handler == chosen {
				viaChosen++
			}
			if handler.Handle(msg, rng) {
				inboxTotal++
				if msg.Spam {
					inboxSpam++
				}
			}
		}
		spamRate := 0.0
		if inboxTotal > 0 {
			spamRate = float64(inboxSpam) / float64(inboxTotal)
		}
		res.AddRow(cfg, ratio(viaChosen, nMessages), spamRate)
	}
	res.Finding = fmt.Sprintf(
		"redirection forces %.0f%% of mail through the ISP server and inbox spam rises from %.2f to %.2f; tunneling restores the user's choice (%.0f%% via chosen, spam back to %.2f)",
		(1-res.MustGet("isp-redirect", "via-chosen-server"))*100,
		res.MustGet("free-choice", "inbox-spam-rate"),
		res.MustGet("isp-redirect", "inbox-spam-rate"),
		res.MustGet("redirect+tunnel", "via-chosen-server")*100,
		res.MustGet("redirect+tunnel", "inbox-spam-rate"))
	return res
}
