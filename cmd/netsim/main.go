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
// timing, the partition's geometry (cut links, epoch window, cross-shard
// handoffs) and per-shard load (nodes and executed events) on stderr, so
// CI can diff the digest across shard counts. Set-up (topology, routing
// tables, traffic and chaos arming) is timed apart from the drain, and
// the packet and event rates are over the drain alone.
//
// Multipath mode (-multipath) stripes a reliable transfer over
// link-disjoint source routes between the best-connected stub pair of
// the generated hierarchy, with a pluggable selection strategy, and
// reports each path's fate (RTT/loss estimates, demotions, promotions):
//
//	netsim -multipath -mpstrategy loss-adaptive -faultplan plan.json
//
// Each mode reads only some of the flags. A flag set explicitly that the
// selected mode ignores (-faultplan with -nodes, -shards without it)
// exits 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, selects the mode, and runs it; it returns the process
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed         = fs.Uint64("seed", 1, "simulation seed")
		packets      = fs.Int("packets", 200, "number of probe packets")
		fwDensity    = fs.Float64("fw-density", 0, "fraction of transit nodes with restrictive firewalls")
		useSrcRoute  = fs.Bool("srcroute", false, "attach user source routes (nodes honor them)")
		showTrace    = fs.Bool("trace", false, "print each packet's trace")
		faultPlan    = fs.String("faultplan", "", "replay a chaos fault plan (JSON) during the run")
		metricsPath  = fs.String("metrics", "", "write the obs metric snapshot as JSON to this file")
		eventsPath   = fs.String("events", "", "write forwarding-layer events as JSON lines to this file")
		nodes        = fs.Int("nodes", 0, "scale mode: run the sharded core over a scale-free topology this big")
		shards       = fs.Int("shards", 1, "scale mode: shard count")
		parallel     = fs.Bool("parallel", true, "scale mode: run shards in parallel epochs (off = lockstep)")
		chaosOn      = fs.Bool("chaos", false, "scale mode: inject a deterministic fault schedule")
		useMultipath = fs.Bool("multipath", false, "multipath mode: stripe a reliable transfer over disjoint source routes")
		mpStrategy   = fs.String("mpstrategy", "disjointness-max", "multipath mode: path-selection strategy (shortest-k, disjointness-max, latency-weighted, loss-adaptive)")
		mpBytes      = fs.Int("mpbytes", 256<<10, "multipath mode: transfer size in bytes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Each mode reads only some of the flags. One set explicitly that the
	// selected mode would ignore is an error: -nodes N -faultplan p.json
	// must not run scale mode and drop the plan.
	mode, reads := "in probe mode (without -nodes or -multipath)", "seed packets fw-density srcroute trace faultplan metrics events"
	switch {
	case *useMultipath:
		mode, reads = "with -multipath", "multipath mpstrategy mpbytes seed faultplan metrics"
	case *nodes > 0:
		mode, reads = "with -nodes", "nodes shards parallel chaos packets seed metrics"
	}
	ignored, packetsSet := "", false
	fs.Visit(func(f *flag.Flag) {
		if ignored == "" && !slices.Contains(strings.Fields(reads), f.Name) {
			ignored = f.Name
		}
		packetsSet = packetsSet || f.Name == "packets"
	})
	if ignored != "" {
		fmt.Fprintf(stderr, "netsim: -%s has no effect %s\n", ignored, mode)
		return 2
	}

	switch {
	case *useMultipath:
		return runMultipath(stdout, stderr, *seed, *mpStrategy, *mpBytes, *faultPlan, *metricsPath)
	case *nodes > 0:
		// -packets keeps its own default for probe mode; scale mode
		// defaults to 10 packets per node unless the flag was given.
		pk := 0
		if packetsSet {
			pk = *packets
		}
		return runScale(stdout, stderr, *nodes, *shards, pk, *parallel, *chaosOn, *seed, *metricsPath)
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
				fmt.Fprintf(stderr, "netsim: events: %v\n", err)
				return 1
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
		fmt.Fprintf(stderr, "netsim: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "topology: %d nodes, %d links; path-vector converged in %d iterations\n",
		len(g.Nodes), len(g.Links), pv.Iterations)

	// With a fault plan, the engine replays timed faults and a rerouter
	// re-converges path-vector routing around them; probe sends spread
	// over the plan's duration so traffic actually meets the faults.
	var eng *chaos.Engine
	var pvr *chaos.Rerouter
	horizon := sim.Time(0)
	if *faultPlan != "" {
		plan, err := loadPlan(*faultPlan)
		if err != nil {
			fmt.Fprintf(stderr, "netsim: faultplan: %v\n", err)
			return 1
		}
		pvr = chaos.NewPathVectorRerouter(net, pv, true)
		pvr.AttachObs(reg)
		if err := pvr.Converge(); err != nil {
			fmt.Fprintf(stderr, "netsim: faultplan: %v\n", err)
			return 1
		}
		eng = chaos.New(net, *seed)
		eng.AttachObs(reg)
		eng.Observe(pvr)
		if err := eng.Schedule(plan); err != nil {
			fmt.Fprintf(stderr, "netsim: faultplan: %v\n", err)
			return 1
		}
		for i := range plan.Events {
			if at := plan.Events[i].At(); at > horizon {
				horizon = at
			}
		}
		horizon += 200 * sim.Millisecond
		fmt.Fprintf(stdout, "fault plan %q: %d events; probes spread over %v\n",
			plan.Name, len(plan.Events), horizon)
	}

	// Every firewall denies the same high ports; they only read the set,
	// so they share one.
	blocked := map[uint16]bool{}
	for p := uint16(1024); p <= 10000; p++ {
		blocked[p] = true
	}
	for _, id := range g.NodeIDs() {
		nd := net.Node(id)
		nd.Route = pv.RouteFunc(id)
		nd.HonorSourceRoutes = *useSrcRoute
		if g.Nodes[id].Kind == topology.Transit && rng.Bool(*fwDensity) {
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
			fmt.Fprintf(stderr, "netsim: %v\n", err)
			return 1
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
		fmt.Fprintf(stdout, "chaos: applied %v; path-vector reconverged %d times (route churn %d, modeled delay %v)\n",
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
			fmt.Fprintf(stdout, "packet %d:\n", i)
			for _, e := range tr.Events {
				fmt.Fprintf(stdout, "  %-10v node %-3d %-8s %s\n", e.At, e.Node, e.Action, e.Detail)
			}
		}
	}
	fmt.Fprintf(stdout, "delivered %d/%d (%.1f%%)\n", delivered, len(traces),
		100*float64(delivered)/float64(len(traces)))
	if delivered > 0 {
		fmt.Fprintf(stdout, "latency: mean %.2fms p99 %.2fms; hops: mean %.1f max %.0f\n",
			latency.Mean(), latency.Percentile(99), hops.Mean(), hops.Max())
	}
	reasons := make([]string, 0, len(dropReasons))
	for reason := range dropReasons {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		fmt.Fprintf(stdout, "dropped (%s): %d\n", reason, dropReasons[reason])
	}
	if sink != nil {
		if err := sink.Err(); err != nil {
			fmt.Fprintf(stderr, "netsim: events: %v\n", err)
			return 1
		}
	}
	if *metricsPath != "" {
		return writeMetrics(stderr, reg, *metricsPath)
	}
	return 0
}

// loadPlan reads and parses a chaos fault plan file.
func loadPlan(path string) (*chaos.Plan, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return chaos.ParsePlan(buf)
}

// runScale executes the sharded scale workload. Everything on stdout is
// deterministic for (seed, nodes, packets, chaos) — independent of the
// shard count and driver — so CI diffs it across shard counts; wall
// time and throughput go to stderr.
func runScale(stdout, stderr io.Writer, nodes, shards, packets int, parallel, chaosOn bool, seed uint64, metricsPath string) int {
	cfg := scale.Config{
		Nodes: nodes, Packets: packets, Seed: seed,
		Shards: shards, Parallel: parallel, Chaos: chaosOn,
		Obs: metricsPath != "",
	}
	// Each phase reports the heap bytes it allocated, live or dead: a
	// phase that runs between two collections keeps all of them resident.
	alloc := totalAlloc()
	start := time.Now()
	sm := scale.Prepare(cfg)
	setup := time.Since(start)
	setupBytes := totalAlloc() - alloc
	alloc = totalAlloc()
	start = time.Now()
	res := sm.Run()
	drain := time.Since(start)
	drainBytes := totalAlloc() - alloc
	// Shard geometry is shard-count-dependent by definition, so it goes
	// to stderr with the timing, keeping stdout diffable across counts.
	// Per-shard node and event counts show a skewed partition: the
	// busiest shard bounds the parallel drain. Handoffs are the packets
	// the drain moved between shards, each one a heap insert on another
	// shard's scheduler (under the parallel driver, by that shard's
	// goroutine at the start of the next epoch).
	var load strings.Builder
	var busiest uint64
	for i, sh := range sm.S.Shards {
		fmt.Fprintf(&load, " %d:%dn/%dev", i, sm.S.Part.Counts[i], sh.Sched.Processed)
		busiest = max(busiest, sh.Sched.Processed)
	}
	fmt.Fprintf(stderr, "netsim: scale: shards=%d window=%v cross-links=%d handoffs=%d load%s busiest=%.3fx mean\n",
		len(sm.S.Shards), res.Window, res.CrossLinks, sm.S.Handoffs(), load.String(),
		float64(busiest)*float64(len(sm.S.Shards))/float64(max(res.Processed, 1)))
	fmt.Fprint(stdout, res.Render())
	total := res.Delivered + res.Dropped
	fmt.Fprintf(stderr, "netsim: scale: set-up %v, %.1f MB allocated; drained %d packets, %d events in %v, %.1f MB allocated (%.0f pkt/s, %.0f ev/s, GOMAXPROCS=%d)\n",
		setup.Round(time.Millisecond), float64(setupBytes)/1e6, total, res.Processed,
		drain.Round(time.Millisecond), float64(drainBytes)/1e6,
		float64(total)/drain.Seconds(), float64(res.Processed)/drain.Seconds(),
		runtime.GOMAXPROCS(0))
	if metricsPath != "" {
		return writeMetrics(stderr, res.Metrics, metricsPath)
	}
	return 0
}

// totalAlloc returns the bytes the process has allocated on the heap so
// far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// writeMetrics dumps a registry snapshot as indented JSON and returns the
// exit code.
func writeMetrics(stderr io.Writer, reg *obs.Registry, path string) int {
	buf, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(buf, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "netsim: metrics: %v\n", err)
		return 1
	}
	return 0
}

// runMultipath is multipath mode: discover disjoint source routes
// between the two most distant stubs of a generated hierarchy, stripe a
// reliable transfer across them with the chosen strategy, optionally
// replaying a chaos fault plan underneath, and report per-path fates.
// Deterministic per seed.
func runMultipath(stdout, stderr io.Writer, seed uint64, strategy string, bytes int, faultPlan, metricsPath string) int {
	strat, err := multipath.StrategyByName(strategy)
	if err != nil {
		fmt.Fprintf(stderr, "netsim: %v\n", err)
		return 1
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
		fmt.Fprintf(stderr, "netsim: %v\n", err)
		return 1
	}
	for _, id := range g.NodeIDs() {
		nd := net.Node(id)
		nd.Route = pv.RouteFunc(id)
		nd.HonorSourceRoutes = true
	}

	if faultPlan != "" {
		plan, err := loadPlan(faultPlan)
		if err != nil {
			fmt.Fprintf(stderr, "netsim: faultplan: %v\n", err)
			return 1
		}
		eng := chaos.New(net, seed)
		eng.AttachObs(reg)
		if err := eng.Schedule(plan); err != nil {
			fmt.Fprintf(stderr, "netsim: faultplan: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "fault plan %q: %d events\n", plan.Name, len(plan.Events))
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
	fmt.Fprintf(stdout, "multipath %s: %d -> %d, %d bytes in %d segments over %d paths\n",
		strat.Name(), src, dst, bytes, st.Segments, st.PathsUsed)
	for _, p := range snd.Paths() {
		fmt.Fprintf(stdout, "  path %d %v: %s, sent %d acked %d retx %d timeouts %d demote %d promote %d srtt %v loss %.3f\n",
			p.Index, p.Cand.Path, p.State, p.Sent, p.Acked, p.Retx, p.Timeouts,
			p.Demotions, p.Promotions, p.SRTT, p.Loss)
	}
	switch {
	case st.Done:
		fmt.Fprintf(stdout, "done in %v: sent %d, retx %d, probes %d, demotions %d, promotions %d, dups absorbed %d\n",
			st.Elapsed, st.Sent, st.Retransmissions, st.Probes, st.Demotions, st.Promotions, rcv.Dups)
	case st.Failed:
		fmt.Fprintf(stdout, "FAILED after %v: %s\n", st.Elapsed, st.FailReason)
	}
	if metricsPath != "" {
		return writeMetrics(stderr, reg, metricsPath)
	}
	return 0
}
