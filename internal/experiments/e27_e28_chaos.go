package experiments

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/qos"
	"repro/internal/routing/linkstate"
	"repro/internal/routing/overlay"
	"repro/internal/routing/pathvector"
	"repro/internal/sim"
	"repro/internal/topology"
)

// e27PlanJSON is the standard fault schedule every E27 configuration is
// measured against: a transient transit-link failure, a provider crash,
// and a full partition of the provider, each followed by recovery. It is
// the engine's JSON schema, so the same plan replays via
// `netsim -faultplan` (see README).
const e27PlanJSON = `{
  "name": "e27-standard",
  "seed": 27,
  "events": [
    {"at_ms": 300, "kind": "link-down", "a": 1, "b": 2},
    {"at_ms": 700, "kind": "link-up", "a": 1, "b": 2},
    {"at_ms": 900, "kind": "node-crash", "node": 2},
    {"at_ms": 1300, "kind": "node-recover", "node": 2},
    {"at_ms": 1500, "kind": "partition", "group": [2]},
    {"at_ms": 1800, "kind": "heal"}
  ]
}`

// E27Availability tests the §V-A1/§V-A4 recovery claims under a standard
// chaos schedule: the design should let users "have and use multiple
// addresses" and overlays are "a tool in the tussle" — both are failover
// mechanisms, and under identical faults they should buy measurably
// higher availability than a single-homed attachment. Routing is live
// path-vector with modeled reconvergence delay (stale-route windows
// included), so availability reflects what the host actually experiences
// while BGP-style news propagates.
func E27Availability(seed uint64) *Result { return e27Availability(seed, nil) }

func e27Availability(seed uint64, reg *obs.Registry) *Result {
	res := &Result{
		ID:    "E27",
		Title: "availability under a standard fault schedule",
		Claim: "§V-A1/§V-A4: multiple provider-rooted addresses and overlay relays are failover tools; under faults they should measurably out-survive a single-homed attachment",
		Columns: []string{
			"availability", "downtime-ms", "ls-reconv-ms", "route-churn",
		},
	}
	for _, cfg := range []string{"single-homed", "multi-address", "overlay-failover"} {
		// Topology: core 1; providers 2 and 3 (peered, so provider 3 can
		// reach 2 even when 2 loses its transit link); remote provider 4
		// hosting the correspondent; host stub 5 on provider 2 (also on 3
		// when multi-address); relay stub 6 on provider 3.
		g := topology.NewGraph()
		for i := 1; i <= 6; i++ {
			kind, tier := topology.Transit, 2
			if i == 1 {
				tier = 1
			}
			if i >= 5 {
				kind, tier = topology.Stub, 3
			}
			g.AddNode(topology.NodeID(i), kind, tier)
		}
		g.AddLink(2, 1, topology.CustomerOf, sim.Millisecond, 1)
		g.AddLink(3, 1, topology.CustomerOf, sim.Millisecond, 1)
		g.AddLink(4, 1, topology.CustomerOf, sim.Millisecond, 1)
		g.AddLink(2, 3, topology.PeerOf, sim.Millisecond, 1)
		g.AddLink(5, 2, topology.CustomerOf, sim.Millisecond, 1)
		if cfg == "multi-address" {
			g.AddLink(5, 3, topology.CustomerOf, sim.Millisecond, 1)
		}
		g.AddLink(6, 3, topology.CustomerOf, sim.Millisecond, 1)

		sched := sim.NewScheduler()
		net := netsim.New(sched, g)
		if reg != nil {
			sched.AttachObs(reg)
			net.AttachObs(reg, nil)
		}

		// Live routing: path-vector with delayed installs (stale windows).
		pv := pathvector.New(g)
		pvr := chaos.NewPathVectorRerouter(net, pv, true)
		pvr.AttachObs(reg)
		if err := pvr.Converge(); err != nil {
			panic(err)
		}
		// Shadow link-state instance: reports flooding-model reconvergence
		// times for the same faults without touching forwarding.
		lsr := chaos.NewLinkStateRerouter(net, linkstate.NewDatabase(g), false)
		lsr.AttachObs(reg)
		if err := lsr.Converge(); err != nil {
			panic(err)
		}

		eng := chaos.New(net, seed)
		eng.AttachObs(reg)
		eng.Observe(pvr)
		eng.Observe(lsr)
		plan, err := chaos.ParsePlan([]byte(e27PlanJSON))
		if err != nil {
			panic(err)
		}
		if err := eng.Schedule(plan); err != nil {
			panic(err)
		}

		mesh := overlay.NewMesh() // members 4, 5, 6
		mesh.InstallRelay(net, 6)

		correspondent := packet.MakeAddr(4, 1)
		addrs := []packet.Addr{packet.MakeAddr(2, 500)}
		if cfg == "multi-address" {
			addrs = append(addrs, packet.MakeAddr(3, 500))
		}
		// Reaching an address means reaching its provider while the
		// host's access link (and both ends of it) are alive.
		hostUp := func(prov topology.NodeID) bool {
			return !net.LinkFailed(prov, 5) && !net.NodeFailed(prov) && !net.NodeFailed(5)
		}
		mkProbe := func(dst packet.Addr) []byte {
			data, err := packet.Serialize(
				&packet.TIP{TTL: 16, Proto: packet.LayerTypeRaw, Src: correspondent, Dst: dst},
				&packet.Raw{Data: []byte("probe")})
			if err != nil {
				panic(err)
			}
			return data
		}

		const probeEvery = 20 * sim.Millisecond
		const horizon = 2000 * sim.Millisecond
		nProbes, avail := 0, 0
		for t := 10 * sim.Millisecond; t < horizon; t += probeEvery {
			nProbes++
			sched.At(t, func() {
				type attempt struct {
					tr   *netsim.Trace
					prov topology.NodeID
				}
				// Counter baseline before any send this round, so the
				// overlay check sees only this round's arrivals at 2.
				base := net.Node(2).Delivered
				var attempts []attempt
				for _, a := range addrs {
					attempts = append(attempts, attempt{net.Send(4, mkProbe(a)), topology.NodeID(a.Provider())})
				}
				if cfg == "overlay-failover" {
					// The correspondent also tunnels via the relay stub on
					// provider 3; the relay decapsulates and re-injects,
					// reaching 2 over the 3–2 peer link even while 2's
					// transit link is down.
					enc, err := overlay.Encapsulate(correspondent, packet.MakeAddr(6, 0), 32, mkProbe(addrs[0]))
					if err != nil {
						panic(err)
					}
					net.Send(4, enc)
				}
				sched.After(16*sim.Millisecond, func() {
					ok := false
					for _, at := range attempts {
						if at.tr.Delivered && hostUp(at.prov) {
							ok = true
						}
					}
					if cfg == "overlay-failover" &&
						net.Node(2).Delivered > base && hostUp(2) {
						ok = true
					}
					if ok {
						avail++
					}
				})
			})
		}
		sched.Run()
		res.AddRow(cfg,
			float64(avail)/float64(nProbes),
			float64(nProbes-avail)*float64(probeEvery)/float64(sim.Millisecond),
			float64(lsr.TotalDelay)/float64(sim.Millisecond),
			float64(pvr.TotalChurn))
	}
	res.Finding = fmt.Sprintf(
		"under the standard schedule the single-homed host is up %.0f%% of the time; overlay failover recovers the transit-link outage (%.0f%%) and multiple provider-rooted addresses survive every fault (%.0f%%); link-state refloods the same news in %.1fms total vs the path-vector churn of %.0f route changes",
		res.MustGet("single-homed", "availability")*100,
		res.MustGet("overlay-failover", "availability")*100,
		res.MustGet("multi-address", "availability")*100,
		res.MustGet("single-homed", "ls-reconv-ms"),
		res.MustGet("single-homed", "route-churn"))
	return res
}

// e28PlanJSON partitions core 2 away (collapsing the two parallel
// spines onto core 1), fires a signed byzantine burst from provider 4
// (phantom link to stub 10) mid-partition, and heals.
const e28PlanJSON = `{
  "name": "e28-degraded",
  "seed": 28,
  "events": [
    {"at_ms": 300, "kind": "partition", "group": [2]},
    {"at_ms": 500, "kind": "byzantine-burst", "node": 4, "count": 1, "cost": 0.001, "phantoms": [10]},
    {"at_ms": 900, "kind": "heal"}
  ]
}`

// E28Degradation tests §VI-A ("design for variation … failures of
// transparency will occur") as a graceful-degradation question: when a
// core router partitions away and an insider floods lying
// advertisements, do the QoS plane and the trust plane degrade
// gracefully or collapse? The QoS plane sheds best-effort traffic at
// congested routers to preserve gold service; the trust plane either
// swallows the byzantine burst (trust-all) or rejects it
// (signed-two-sided attestation), and the advertisement database
// re-floods honestly after the heal.
//
// The topology is a parallel-spine network built so the degradation is
// attributable by construction: two cores (1, 2), three providers —
// 3 preferring core 1, 4 (the liar) preferring core 2, 5 dual-homed —
// and stubs 6 (on 3), 7 (on 4), 8–10 (on 5), plus bulk-source stubs 11
// (on 3) and 12 (on 4). The two background bulk streams (11→8 and
// 12→9) take link-disjoint paths over different spines while healthy;
// partitioning core 2 forces both onto link 1→5, which is where the
// shedding engages.
func E28Degradation(seed uint64) *Result { return e28Degradation(seed, nil) }

func e28Degradation(seed uint64, reg *obs.Registry) *Result {
	res := &Result{
		ID:    "E28",
		Title: "graceful degradation of QoS and trust planes under partial partition",
		Claim: "§VI-A: failures of transparency will occur — design what the user sees then; shedding and attestation bound the damage",
		Columns: []string{
			"delivery-gold", "delivery-be", "shed-drops", "ads-rejected",
		},
	}
	// Phase windows bracket the plan events (partition at 300ms, burst at
	// 500ms, heal at 900ms); probes fire mid-window, counters are
	// snapshotted at the window edges.
	type phase struct {
		label      string
		start, end sim.Time
	}
	phases := []phase{
		{"healthy", 0, 300 * sim.Millisecond},
		{"degraded", 300 * sim.Millisecond, 900 * sim.Millisecond},
		{"healed", 900 * sim.Millisecond, 1200 * sim.Millisecond},
	}
	// Both modes run on the same graph and keys; nothing below mutates
	// either.
	g := topology.NewGraph()
	for i := 1; i <= 12; i++ {
		kind, tier := topology.Transit, 2
		if i <= 2 {
			tier = 1
		}
		if i >= 6 {
			kind, tier = topology.Stub, 3
		}
		g.AddNode(topology.NodeID(i), kind, tier)
	}
	g.AddLink(1, 2, topology.PeerOf, sim.Millisecond, 3)
	g.AddLink(3, 1, topology.CustomerOf, sim.Millisecond, 1)
	g.AddLink(3, 2, topology.CustomerOf, sim.Millisecond, 5)
	g.AddLink(4, 1, topology.CustomerOf, sim.Millisecond, 1.5)
	g.AddLink(4, 2, topology.CustomerOf, sim.Millisecond, 1)
	g.AddLink(5, 1, topology.CustomerOf, sim.Millisecond, 1)
	g.AddLink(5, 2, topology.CustomerOf, sim.Millisecond, 1)
	g.AddLink(6, 3, topology.CustomerOf, sim.Millisecond, 1)
	g.AddLink(7, 4, topology.CustomerOf, sim.Millisecond, 1)
	g.AddLink(8, 5, topology.CustomerOf, sim.Millisecond, 1)
	g.AddLink(9, 5, topology.CustomerOf, sim.Millisecond, 1)
	g.AddLink(10, 5, topology.CustomerOf, sim.Millisecond, 1)
	g.AddLink(11, 3, topology.CustomerOf, sim.Millisecond, 1)
	g.AddLink(12, 4, topology.CustomerOf, sim.Millisecond, 1)
	keys := linkstate.GenerateKeys(g, sim.NewRNG(seed))
	for _, mode := range []linkstate.VerifyMode{linkstate.TrustAll, linkstate.SignedTwoSided} {
		db := linkstate.NewAdDatabase(g, mode, keys)
		if reg != nil {
			db.AttachObs(reg)
		}
		sched := sim.NewScheduler()
		net := netsim.New(sched, g)
		if reg != nil {
			sched.AttachObs(reg)
			net.AttachObs(reg, nil)
		}
		adr := chaos.NewAdRerouter(net, db, keys, true)
		adr.AttachObs(reg)
		if err := adr.Converge(); err != nil {
			panic(err)
		}

		eng := chaos.New(net, seed)
		eng.AdDB = db
		eng.Keys = keys
		eng.AttachObs(reg)
		eng.Observe(adr)
		plan, err := chaos.ParsePlan([]byte(e28PlanJSON))
		if err != nil {
			panic(err)
		}
		if err := eng.Schedule(plan); err != nil {
			panic(err)
		}

		// QoS plane: every transit router sheds best-effort packets while
		// its worst outbound backlog exceeds the threshold (a single
		// full-rate stream keeps at most two 8KB segments — 160µs — in a
		// queue, so only genuine over-capacity convergence sheds).
		shedDrops := 0
		box := &shedBox{net: net, thresh: 250 * sim.Microsecond, drops: &shedDrops}
		for _, id := range g.NodeIDs() {
			if g.Nodes[id].Kind == topology.Transit {
				net.Node(id).AddMiddlebox(box)
			}
		}

		// Stubs 11 and 12 only source the background bulk; probes measure
		// the user-visible planes between the other five stubs.
		probeStubs := []topology.NodeID{6, 7, 8, 9, 10}
		mkProbe := func(src, dst topology.NodeID, class qos.Class, size int) []byte {
			data, err := packet.Serialize(
				&packet.TIP{TTL: 32, TOS: qos.ToSFor(class), Proto: packet.LayerTypeRaw,
					Src: packet.MakeAddr(uint16(src), 1), Dst: packet.MakeAddr(uint16(dst), 1)},
				&packet.Raw{Data: make([]byte, size)})
			if err != nil {
				panic(err)
			}
			return data
		}

		// One template per bulk stream: Inject copies it into a flight of
		// its own, and nothing reads the bulk's traces.
		bulk11 := mkProbe(11, 8, qos.BestEffort, 8000)
		bulk12 := mkProbe(12, 9, qos.BestEffort, 8000)

		type roundStats struct {
			gold, be     []*netsim.Trace
			shed0, shed1 int
			rej0, rej1   int
		}
		rounds := make([]*roundStats, len(phases))
		for i, ph := range phases {
			rs := &roundStats{}
			rounds[i] = rs
			mid := (ph.start + ph.end) / 2
			sched.At(ph.start, func() {
				rs.shed0, rs.rej0 = shedDrops, db.Rejected
			})
			// Background bulk (best-effort): two line-rate streams whose
			// healthy paths are link-disjoint (11→8 over core 1, 12→9 over
			// core 2). While core 2 is partitioned away both streams share
			// link 1→5 at twice its capacity, and the shed plane engages.
			sched.At(mid, func() {
				for k := 0; k < 25; k++ {
					net.Inject(11, bulk11)
					net.Inject(12, bulk12)
				}
			})
			sched.At(mid+sim.Millisecond, func() {
				// Probes launch while the bulk is still streaming, so they
				// cross the transit core at peak backlog.
				for _, s := range probeStubs {
					for _, d := range probeStubs {
						if s == d {
							continue
						}
						rs.gold = append(rs.gold, net.Send(s, mkProbe(s, d, qos.Gold, 64)))
						rs.be = append(rs.be, net.Send(s, mkProbe(s, d, qos.BestEffort, 64)))
					}
				}
			})
			sched.At(ph.end-sim.Millisecond, func() {
				rs.shed1, rs.rej1 = shedDrops, db.Rejected
			})
		}
		sched.Run()

		frac := func(traces []*netsim.Trace) float64 {
			ok := 0
			for _, tr := range traces {
				if tr.Delivered {
					ok++
				}
			}
			return float64(ok) / float64(len(traces))
		}
		for i, ph := range phases {
			rs := rounds[i]
			res.AddRow(fmt.Sprintf("%s %s", modeName(mode), ph.label),
				frac(rs.gold), frac(rs.be),
				float64(rs.shed1-rs.shed0), float64(rs.rej1-rs.rej0))
		}
	}
	res.Finding = fmt.Sprintf(
		"degradation is graceful and bounded: under the partition gold delivery holds at %.0f%% while best-effort is shed to %.0f%% (%.0f shed drops); the byzantine burst costs the trust-all plane %.0f%% of gold delivery where signed attestation rejects it (%.0f ads) and keeps %.0f%%; after the heal both planes recover (%.0f%% / %.0f%%)",
		res.MustGet("trust-all degraded", "delivery-gold")*100,
		res.MustGet("trust-all degraded", "delivery-be")*100,
		res.MustGet("trust-all degraded", "shed-drops"),
		(res.MustGet("signed-two-sided degraded", "delivery-gold")-res.MustGet("trust-all degraded", "delivery-gold"))*100,
		res.MustGet("signed-two-sided degraded", "ads-rejected"),
		res.MustGet("signed-two-sided degraded", "delivery-gold")*100,
		res.MustGet("trust-all healed", "delivery-gold")*100,
		res.MustGet("signed-two-sided healed", "delivery-gold")*100)
	return res
}

// shedBox is the QoS plane's load-shedding middlebox: while the router's
// worst outbound backlog exceeds the threshold, best-effort transit is
// dropped (disclosed as "blocked:shed") so gold traffic keeps its
// queueing budget. Delivery-direction traffic is never shed — the
// congested resource is the outbound link.
type shedBox struct {
	net    *netsim.Network
	thresh sim.Time
	drops  *int
}

// Name implements netsim.Middlebox.
func (s *shedBox) Name() string { return "shed" }

// Silent implements netsim.Middlebox.
func (s *shedBox) Silent() bool { return false }

// Process implements netsim.Middlebox.
func (s *shedBox) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	if dir != netsim.Forwarding || s.net.NodeBacklog(node) < s.thresh {
		return nil, netsim.Accept
	}
	var tip packet.TIP
	if err := tip.DecodeFrom(data); err != nil {
		return nil, netsim.Accept
	}
	if qos.ClassOfToS(tip.TOS) != qos.BestEffort {
		return nil, netsim.Accept
	}
	*s.drops++
	return nil, netsim.Drop
}
