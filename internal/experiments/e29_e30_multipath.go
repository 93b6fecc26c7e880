package experiments

import (
	"fmt"
	"sync"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport/multipath"
)

// e30PlanJSON is E30's fault schedule: a mid-transfer partition of
// provider 2 with no heal, so completion is attributable to the
// surviving paths alone.
const e30PlanJSON = `{
  "name": "e30-partition",
  "seed": 30,
  "events": [
    {"at_ms": 600, "kind": "partition", "group": [2]}
  ]
}`

// mpTopology builds the multipath experiment network: sender stub 8 and
// receiver stub 9 each homed on three peered transits, giving exactly
// three link-disjoint paths. Provider 2 is the cheapest attachment on
// both sides — the path any single-homed arrangement would pin — and it
// is exactly the provider the E27 schedule crashes and partitions: the
// tussle case where the incumbent choice is the one that fails.
func mpTopology() *topology.Graph {
	g := topology.NewGraph()
	for i := 1; i <= 3; i++ {
		g.AddNode(topology.NodeID(i), topology.Transit, 1)
	}
	g.AddNode(8, topology.Stub, 2)
	g.AddNode(9, topology.Stub, 2)
	g.AddLink(1, 2, topology.PeerOf, sim.Millisecond, 1)
	g.AddLink(2, 3, topology.PeerOf, sim.Millisecond, 1)
	for i := 1; i <= 3; i++ {
		g.AddLink(8, topology.NodeID(i), topology.CustomerOf, sim.Millisecond, 1)
	}
	g.AddLink(9, 1, topology.CustomerOf, 3*sim.Millisecond, 1)
	g.AddLink(9, 2, topology.CustomerOf, sim.Millisecond, 1)
	g.AddLink(9, 3, topology.CustomerOf, 2*sim.Millisecond, 1)
	return g
}

// mpNetwork instantiates the topology with every node honoring source
// routes (multipath is user-directed routing) plus a static forwarding
// table pinned through provider 2 — the single-path baseline's only
// route, and the fallback for unrouted traffic.
func mpNetwork(reg *obs.Registry) (*sim.Scheduler, *netsim.Network) {
	sched := sim.NewScheduler()
	net := netsim.New(sched, mpTopology())
	if reg != nil {
		sched.AttachObs(reg)
		net.AttachObs(reg, nil)
	}
	static := map[topology.NodeID]map[uint16]topology.NodeID{
		8: {9: 2, 8: 8},
		9: {8: 2, 9: 9},
		1: {8: 8, 9: 9},
		2: {8: 8, 9: 9},
		3: {8: 8, 9: 9},
	}
	for id, table := range static {
		table := table
		nd := net.Node(id)
		nd.HonorSourceRoutes = true
		nd.Route = func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
			next, ok := table[dst.Provider()]
			return next, ok
		}
	}
	return sched, net
}

// mpMultipathConfig keeps the reliability knobs identical across the
// single-path baseline and every strategy, so E29's comparison isolates
// path choice.
func mpMultipathConfig(seed uint64) multipath.Config {
	cfg := multipath.DefaultConfig()
	cfg.Window = 8
	cfg.SegmentSize = 512
	cfg.RTO = 30 * sim.Millisecond
	cfg.MaxRTO = 250 * sim.Millisecond
	cfg.MaxRetries = 40
	cfg.ProbeEvery = 100 * sim.Millisecond
	cfg.MaxProbes = 20
	cfg.Seed = seed
	return cfg
}

// sharedPayload is E29's 2 MiB payload, built once per process; E30
// streams a prefix of it. Senders only read their data (Frame copies
// it), so concurrent experiments share it safely.
var sharedPayload = sync.OnceValue(func() []byte { return mpPayload(2 << 20) })

// mpPayload returns n bytes with data[i] = byte(i*13 + i/509), filled
// one 509-byte run at a time so no byte pays for a division.
func mpPayload(n int) []byte {
	data := make([]byte, n)
	for run, i := 0, 0; i < n; run++ {
		v := byte(i*13 + run)
		for end := min(i+509, n); i < end; i++ {
			data[i] = v
			v += 13
		}
	}
	return data
}

// E29MultipathAvailability compares delivered-bytes availability and
// goodput of single-path transport against every multipath strategy
// under the standard E27 fault schedule. The paper's "design for
// choice" claim (§IV-B, §V-A4) is that a user who can redirect traffic
// in real time routes around a misbehaving or failed provider; here the
// provider that fails is the one every cost-minimizing single-path
// arrangement would have picked, and only the multipath sender keeps
// bytes flowing through the crash and the partition.
func E29MultipathAvailability(seed uint64) *Result { return e29MultipathAvailability(seed, nil) }

func e29MultipathAvailability(seed uint64, reg *obs.Registry) *Result {
	res := &Result{
		ID:    "E29",
		Title: "multipath strategy availability under the standard fault schedule",
		Claim: "§IV-B/§V-A4: design for choice — a sender striping over link-disjoint source routes keeps delivering while its best provider crashes and partitions",
		Columns: []string{
			"availability", "delivered-kb", "demotions", "promotions",
		},
	}
	const horizon = 2000 * sim.Millisecond
	const bin = 50 * sim.Millisecond
	payload := sharedPayload() // sized to outlast the horizon in every configuration

	run := func(label string, strat multipath.Strategy) {
		sched, net := mpNetwork(reg)
		eng := chaos.New(net, seed)
		if reg != nil {
			eng.AttachObs(reg)
		}
		plan, err := chaos.ParsePlan([]byte(e27PlanJSON))
		if err != nil {
			panic(err)
		}
		if err := eng.Schedule(plan); err != nil {
			panic(err)
		}

		r := multipath.InstallReceiver(net, 9, 7100)
		s := multipath.NewSender(net, strat, 8, 9, 7100, payload, mpMultipathConfig(seed))
		if reg != nil {
			s.AttachObs(reg)
		}
		s.Start()

		// Delivered-bytes availability: the fraction of 50ms bins in
		// which the receiver's in-order stream advanced.
		bins, up, last := 0, 0, 0
		var deliveredAtHorizon int
		for t := bin; t <= horizon; t += bin {
			bins++
			sched.At(t, func() {
				if d := r.Bytes; d > last {
					up++
					last = d
				}
				deliveredAtHorizon = r.Bytes // final bin's write survives
			})
		}
		sched.RunUntil(horizon)
		st := s.Stats()
		res.AddRow(label,
			float64(up)/float64(bins),
			float64(deliveredAtHorizon)/1024,
			float64(st.Demotions),
			float64(st.Promotions))
	}

	run("single-path", multipath.Routed{})
	for _, strat := range multipath.Strategies() {
		run(strat.Name(), strat)
	}

	worst, worstName := 2.0, ""
	for _, strat := range multipath.Strategies() {
		if a := res.MustGet(strat.Name(), "availability"); a < worst {
			worst, worstName = a, strat.Name()
		}
	}
	res.Finding = fmt.Sprintf(
		"the single-path transfer is up %.0f%% of the schedule while every multipath strategy stays ≥ %.0f%% (worst: %s); striping over link-disjoint source routes turns the provider crash and partition from outages into demote/promote events",
		res.MustGet("single-path", "availability")*100, worst*100, worstName)
	return res
}

// E30PartitionReconvergence measures what happens inside the multipath
// sender when a mid-transfer partition permanently removes its best
// path: how fast the dead path is demoted (reconvergence), how evenly
// the survivors share the rest of the stream (Jain fairness over
// per-path acknowledged bytes), and whether the stream completes intact
// — the zero-duplicate-delivery bar the invariant checker holds
// transports to.
func E30PartitionReconvergence(seed uint64) *Result { return e30PartitionReconvergence(seed, nil) }

func e30PartitionReconvergence(seed uint64, reg *obs.Registry) *Result {
	res := &Result{
		ID:    "E30",
		Title: "reconvergence and fairness after a mid-transfer partition",
		Claim: "§V-A4: when a provider is partitioned away mid-stream, per-path failure detection migrates the transfer to the surviving paths and finishes it intact",
		Columns: []string{
			"done", "reconv-ms", "fairness", "stream-intact",
		},
	}
	const partitionAt = 600 * sim.Millisecond
	payload := sharedPayload()[: 768<<10 : 768<<10]

	for _, strat := range multipath.Strategies() {
		sched, net := mpNetwork(reg)
		eng := chaos.New(net, seed)
		if reg != nil {
			eng.AttachObs(reg)
		}
		plan, err := chaos.ParsePlan([]byte(e30PlanJSON))
		if err != nil {
			panic(err)
		}
		if err := eng.Schedule(plan); err != nil {
			panic(err)
		}
		stream := &multipath.PrefixCheck{Want: payload}
		multipath.InstallReceiver(net, 9, 7200).Out = stream
		s := multipath.NewSender(net, strat, 8, 9, 7200, payload, mpMultipathConfig(seed))
		if reg != nil {
			s.AttachObs(reg)
		}
		s.Start()
		sched.Run()

		st := s.Stats()
		paths := s.Paths()
		// Reconvergence: the last demotion's lag behind the partition —
		// how long the sender kept trusting a path the fault had killed.
		var reconv sim.Time
		var survivors []multipath.Path
		for _, p := range paths {
			if p.Demotions > 0 && p.LastDemoteAt >= partitionAt {
				if lag := p.LastDemoteAt - partitionAt; lag > reconv {
					reconv = lag
				}
			}
			if p.State == multipath.PathActive {
				survivors = append(survivors, p)
			}
		}
		intact := 0.0
		if stream.Complete() {
			intact = 1
		}
		done := 0.0
		if st.Done {
			done = 1
		}
		res.AddRow(strat.Name(), done,
			float64(reconv)/float64(sim.Millisecond),
			multipath.Fairness(survivors), intact)
	}

	res.Finding = fmt.Sprintf(
		"all strategies finish the stream on the surviving paths with byte-exact delivery; the dead path is demoted within %.0f–%.0fms of the partition, and round-robin striping keeps the survivors' load near-even (Jain %.2f for disjointness-max)",
		minColumn(res, "reconv-ms"), maxColumn(res, "reconv-ms"),
		res.MustGet("disjointness-max", "fairness"))
	return res
}

func minColumn(res *Result, col string) float64 {
	v, first := 0.0, true
	for _, row := range res.Rows {
		if x := res.MustGet(row.Label, col); first || x < v {
			v, first = x, false
		}
	}
	return v
}

func maxColumn(res *Result, col string) float64 {
	v := 0.0
	for _, row := range res.Rows {
		if x := res.MustGet(row.Label, col); x > v {
			v = x
		}
	}
	return v
}
