// Command netsim runs standalone traffic simulations over a generated
// internetwork: path-vector routing, optional firewalls, and per-packet
// traces with fault isolation.
//
// Usage:
//
//	netsim [-seed N] [-packets N] [-fw-density F] [-srcroute] [-trace]
//	       [-faultplan FILE] [-metrics FILE] [-events FILE]
//
// -metrics writes the run's internal/obs metric snapshot as JSON;
// -events streams every forwarding-layer event (send, forward, drop,
// middlebox rewrite, deliver) as JSON lines. Both are deterministic for
// the seed.
//
// -faultplan replays a chaos plan (internal/chaos JSON schema: timed
// link failures, flaps, node crashes, partitions, packet impairment)
// while the probes are in flight; path-vector routing re-converges
// around each fault with a modeled delay. Replays at the same seed are
// byte-identical.
//
// Scale mode (-nodes N) switches to the sharded simulation core: a
// generated scale-free internetwork with static sink routing and
// fire-and-forget bulk traffic, partitioned across -shards schedulers:
//
//	netsim -shards 8 -nodes 100000
//
// Scale mode prints a deterministic digest on stdout — identical bytes
// for the same seed at any shard count, sequential or parallel — and
// timing and per-shard load (nodes and executed events) on stderr, so
// CI can diff the digest across shard counts.
//
// Multipath mode (-multipath) stripes a reliable transfer over
// link-disjoint source routes between the best-connected stub pair of
// the generated hierarchy, with a pluggable selection strategy, and
// reports each path's fate (RTT/loss estimates, demotions, promotions):
//
//	netsim -multipath -mpstrategy loss-adaptive -faultplan plan.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/routing/pathvector"
	"repro/internal/routing/srcroute"
	"repro/internal/scale"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport/multipath"
)

func main() {
	seed := flag.Uint64("seed", 1, "simulation seed")
	packets := flag.Int("packets", 200, "number of probe packets")
	fwDensity := flag.Float64("fw-density", 0, "fraction of transit nodes with restrictive firewalls")
	useSrcRoute := flag.Bool("srcroute", false, "attach user source routes (nodes honor them)")
	showTrace := flag.Bool("trace", false, "print each packet's trace")
	faultPlan := flag.String("faultplan", "", "replay a chaos fault plan (JSON) during the run")
	metricsPath := flag.String("metrics", "", "write the obs metric snapshot as JSON to this file")
	eventsPath := flag.String("events", "", "write forwarding-layer events as JSON lines to this file")
	nodes := flag.Int("nodes", 0, "scale mode: run the sharded core over a scale-free topology this big")
	shards := flag.Int("shards", 1, "scale mode: shard count")
	parallel := flag.Bool("parallel", true, "scale mode: run shards in parallel epochs (off = lockstep)")
	chaosOn := flag.Bool("chaos", false, "scale mode: inject a deterministic fault schedule")
	useMultipath := flag.Bool("multipath", false, "multipath mode: stripe a reliable transfer over disjoint source routes")
	mpStrategy := flag.String("mpstrategy", "disjointness-max", "multipath mode: path-selection strategy (shortest-k, disjointness-max, latency-weighted, loss-adaptive)")
	mpBytes := flag.Int("mpbytes", 256<<10, "multipath mode: transfer size in bytes")
	flag.Parse()

	if *useMultipath {
		runMultipath(*seed, *mpStrategy, *mpBytes, *faultPlan, *metricsPath)
		return
	}

	if *nodes > 0 {
		// -packets keeps its own default for probe mode; scale mode
		// defaults to 10 packets per node unless the flag was given.
		pk := 0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "packets" {
				pk = *packets
			}
		})
		runScale(*nodes, *shards, pk, *parallel, *chaosOn, *seed, *metricsPath)
		return
	}

	rng := sim.NewRNG(*seed)
	g := topology.GenerateHierarchy(topology.DefaultHierarchy(), rng)
	sched := sim.NewScheduler()
	net := netsim.New(sched, g)

	var reg *obs.Registry
	var sink *obs.JSONL
	if *metricsPath != "" || *eventsPath != "" {
		reg = obs.NewRegistry()
		sched.AttachObs(reg)
		var tr *obs.Tracer
		if *eventsPath != "" {
			f, err := os.Create(*eventsPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "netsim: events: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			sink = obs.NewJSONL(f)
			tr = obs.NewTracer(sink)
		}
		net.AttachObs(reg, tr)
	}

	pv := pathvector.New(g)
	pv.AttachObs(reg)
	if err := pv.Converge(); err != nil {
		fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("topology: %d nodes, %d links; path-vector converged in %d iterations\n",
		len(g.Nodes), len(g.Links), pv.Iterations)

	// With a fault plan, the engine replays timed faults and a rerouter
	// re-converges path-vector routing around them; probe sends spread
	// over the plan's duration so traffic actually meets the faults.
	var eng *chaos.Engine
	var pvr *chaos.PathVectorRerouter
	horizon := sim.Time(0)
	if *faultPlan != "" {
		buf, err := os.ReadFile(*faultPlan)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netsim: faultplan: %v\n", err)
			os.Exit(1)
		}
		plan, err := chaos.ParsePlan(buf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netsim: faultplan: %v\n", err)
			os.Exit(1)
		}
		pvr = chaos.NewPathVectorRerouter(net, pv, true)
		pvr.AttachObs(reg)
		if err := pvr.Converge(); err != nil {
			fmt.Fprintf(os.Stderr, "netsim: faultplan: %v\n", err)
			os.Exit(1)
		}
		eng = chaos.New(net, *seed)
		eng.AttachObs(reg)
		eng.Observe(pvr)
		if err := eng.Schedule(plan); err != nil {
			fmt.Fprintf(os.Stderr, "netsim: faultplan: %v\n", err)
			os.Exit(1)
		}
		for i := range plan.Events {
			if at := plan.Events[i].At(); at > horizon {
				horizon = at
			}
		}
		horizon += 200 * sim.Millisecond
		fmt.Printf("fault plan %q: %d events; probes spread over %v\n",
			plan.Name, len(plan.Events), horizon)
	}

	for _, id := range g.NodeIDs() {
		nd := net.Node(id)
		nd.Route = pv.RouteFunc(id)
		nd.HonorSourceRoutes = *useSrcRoute
		if g.Nodes[id].Kind == topology.Transit && rng.Bool(*fwDensity) {
			blocked := map[uint16]bool{}
			for p := uint16(1024); p <= 10000; p++ {
				blocked[p] = true
			}
			nd.AddMiddlebox(&middlebox.PortFirewall{Label: fmt.Sprintf("fw-%d", id), BlockedPorts: blocked})
		}
	}

	stubs := g.Stubs()
	traces := make([]*netsim.Trace, *packets)
	var hops sim.Series
	for i := 0; i < *packets; i++ {
		src := stubs[rng.Intn(len(stubs))]
		dst := stubs[rng.Intn(len(stubs))]
		for dst == src {
			dst = stubs[rng.Intn(len(stubs))]
		}
		tip := &packet.TIP{
			TTL: 32, Proto: packet.LayerTypeTTP,
			Src: packet.MakeAddr(uint16(src), 1), Dst: packet.MakeAddr(uint16(dst), 1),
		}
		if *useSrcRoute {
			if cands := srcroute.Discover(g, src, dst, 2, 7); len(cands) > 1 {
				tip.SourceRoute = cands[1].Option()
			}
		}
		// Half the traffic is mature applications on well-known ports,
		// half is new applications on high ports — the §VI-A mix.
		dstPort := []uint16{25, 80, 443}[rng.Intn(3)]
		if rng.Bool(0.5) {
			dstPort = uint16(1024 + rng.Intn(8000))
		}
		data, err := packet.Serialize(tip,
			&packet.TTP{SrcPort: 4000, DstPort: dstPort, Next: packet.LayerTypeRaw},
			&packet.Raw{Data: []byte("probe")})
		if err != nil {
			fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
			os.Exit(1)
		}
		if eng != nil {
			i, src, data := i, src, data
			sched.At(sim.Time(i)*horizon/sim.Time(*packets), func() {
				traces[i] = net.Send(src, data)
			})
		} else {
			traces[i] = net.Send(src, data)
		}
	}
	sched.Run()

	if eng != nil {
		fmt.Printf("chaos: applied %v; path-vector reconverged %d times (route churn %d, modeled delay %v)\n",
			eng.Applied, pvr.Reconverges, pvr.TotalChurn, pvr.TotalDelay)
	}

	delivered := 0
	dropReasons := sim.Counter{}
	var latency sim.Series
	for i, tr := range traces {
		if tr.Delivered {
			delivered++
			latency.Add(tr.Latency().Millis())
			hops.Add(float64(len(tr.Path()) - 1))
		} else {
			dropReasons.Inc(tr.DropReason)
		}
		if *showTrace {
			fmt.Printf("packet %d:\n", i)
			for _, e := range tr.Events {
				fmt.Printf("  %-10v node %-3d %-8s %s\n", e.At, e.Node, e.Action, e.Detail)
			}
		}
	}
	fmt.Printf("delivered %d/%d (%.1f%%)\n", delivered, len(traces),
		100*float64(delivered)/float64(len(traces)))
	if delivered > 0 {
		fmt.Printf("latency: mean %.2fms p99 %.2fms; hops: mean %.1f max %.0f\n",
			latency.Mean(), latency.Percentile(99), hops.Mean(), hops.Max())
	}
	reasons := make([]string, 0, len(dropReasons))
	for reason := range dropReasons {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		fmt.Printf("dropped (%s): %d\n", reason, dropReasons[reason])
	}
	if sink != nil {
		if err := sink.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "netsim: events: %v\n", err)
			os.Exit(1)
		}
	}
	if *metricsPath != "" {
		writeMetrics(reg, *metricsPath)
	}
}

// runScale executes the sharded scale workload. Everything on stdout is
// deterministic for (seed, nodes, packets, chaos) — independent of the
// shard count and driver — so CI diffs it across shard counts; wall
// time and throughput go to stderr.
func runScale(nodes, shards, packets int, parallel, chaosOn bool, seed uint64, metricsPath string) {
	cfg := scale.Config{
		Nodes: nodes, Packets: packets, Seed: seed,
		Shards: shards, Parallel: parallel, Chaos: chaosOn,
		Obs: metricsPath != "",
	}
	start := time.Now()
	sm := scale.Prepare(cfg)
	res := sm.Run()
	wall := time.Since(start)
	// Shard geometry is shard-count-dependent by definition, so it goes
	// to stderr with the timing, keeping stdout diffable across counts.
	// Per-shard node and event counts show a skewed partition: the
	// busiest shard bounds the parallel drain.
	var load strings.Builder
	var busiest uint64
	for i, sh := range sm.S.Shards {
		fmt.Fprintf(&load, " %d:%dn/%dev", i, sm.S.Part.Counts[i], sh.Sched.Processed)
		busiest = max(busiest, sh.Sched.Processed)
	}
	fmt.Fprintf(os.Stderr, "netsim: scale: shards=%d window=%v cross-links=%d load%s busiest=%.3fx mean\n",
		len(sm.S.Shards), res.Window, res.CrossLinks, load.String(),
		float64(busiest)*float64(len(sm.S.Shards))/float64(max(res.Processed, 1)))
	fmt.Print(res.Render())
	total := res.Delivered + res.Dropped
	fmt.Fprintf(os.Stderr, "netsim: scale: %d packets, %d events in %v (%.0f pkt/s, %.0f ev/s, GOMAXPROCS=%d)\n",
		total, res.Processed, wall.Round(time.Millisecond),
		float64(total)/wall.Seconds(), float64(res.Processed)/wall.Seconds(),
		runtime.GOMAXPROCS(0))
	if metricsPath != "" {
		writeMetrics(res.Metrics, metricsPath)
	}
}

// writeMetrics dumps a registry snapshot as indented JSON.
func writeMetrics(reg *obs.Registry, path string) {
	buf, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "netsim: metrics: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "netsim: metrics: %v\n", err)
		os.Exit(1)
	}
}

// runMultipath is multipath mode: discover disjoint source routes
// between the two most distant stubs of a generated hierarchy, stripe a
// reliable transfer across them with the chosen strategy, optionally
// replaying a chaos fault plan underneath, and report per-path fates.
// Deterministic per seed.
func runMultipath(seed uint64, strategy string, bytes int, faultPlan, metricsPath string) {
	strat, err := multipath.StrategyByName(strategy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
		os.Exit(1)
	}
	rng := sim.NewRNG(seed)
	g := topology.GenerateHierarchy(topology.DefaultHierarchy(), rng)
	sched := sim.NewScheduler()
	net := netsim.New(sched, g)

	var reg *obs.Registry
	if metricsPath != "" {
		reg = obs.NewRegistry()
		sched.AttachObs(reg)
		net.AttachObs(reg, nil)
	}

	// Path-vector gives every node a fallback table (degenerate direct
	// paths and any unrouted traffic); the source routes carry the rest.
	pv := pathvector.New(g)
	pv.AttachObs(reg)
	if err := pv.Converge(); err != nil {
		fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
		os.Exit(1)
	}
	for _, id := range g.NodeIDs() {
		nd := net.Node(id)
		nd.Route = pv.RouteFunc(id)
		nd.HonorSourceRoutes = true
	}

	if faultPlan != "" {
		buf, err := os.ReadFile(faultPlan)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netsim: faultplan: %v\n", err)
			os.Exit(1)
		}
		plan, err := chaos.ParsePlan(buf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netsim: faultplan: %v\n", err)
			os.Exit(1)
		}
		eng := chaos.New(net, seed)
		eng.AttachObs(reg)
		if err := eng.Schedule(plan); err != nil {
			fmt.Fprintf(os.Stderr, "netsim: faultplan: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("fault plan %q: %d events\n", plan.Name, len(plan.Events))
	}

	// Pick the stub pair with the richest disjoint-path set (first such
	// pair in ID order — deterministic), so the demo actually stripes.
	stubs := g.Stubs()
	src, dst, best := stubs[0], stubs[len(stubs)-1], 0
	for _, a := range stubs {
		for _, b := range stubs {
			if a >= b {
				continue
			}
			if n := len(srcroute.DisjointPaths(g, a, b, 4, 8)); n > best {
				src, dst, best = a, b, n
			}
		}
	}
	payload := make([]byte, bytes)
	for i := range payload {
		payload[i] = byte(i*11 + 3)
	}
	rcv := multipath.InstallReceiver(net, dst, 7000)
	cfg := multipath.DefaultConfig()
	cfg.Seed = seed
	snd := multipath.NewSender(net, strat, src, dst, 7000, payload, cfg)
	if reg != nil {
		snd.AttachObs(reg)
	}
	snd.Start()
	sched.Run()

	st := snd.Stats()
	fmt.Printf("multipath %s: %d -> %d, %d bytes in %d segments over %d paths\n",
		strat.Name(), src, dst, bytes, st.Segments, st.PathsUsed)
	for _, p := range snd.Paths() {
		fmt.Printf("  path %d %v: %s, sent %d acked %d retx %d timeouts %d demote %d promote %d srtt %v loss %.3f\n",
			p.Index, p.Cand.Path, p.State, p.Sent, p.Acked, p.Retx, p.Timeouts,
			p.Demotions, p.Promotions, p.SRTT, p.Loss)
	}
	switch {
	case st.Done:
		fmt.Printf("done in %v: sent %d, retx %d, probes %d, demotions %d, promotions %d, dups absorbed %d\n",
			st.Elapsed, st.Sent, st.Retransmissions, st.Probes, st.Demotions, st.Promotions, rcv.Dups)
	case st.Failed:
		fmt.Printf("FAILED after %v: %s\n", st.Elapsed, st.FailReason)
	}
	if metricsPath != "" {
		writeMetrics(reg, metricsPath)
	}
}
