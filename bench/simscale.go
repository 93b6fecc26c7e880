package main

import (
	"embed"
	"fmt"
	"runtime"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/scale"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The sim-scale workload: the sharded simulator at ISP scale — a
// 100k-node scale-free internetwork, a million packets toward 200 sinks,
// a chaos schedule of link, node and impairment faults, two shards on
// the parallel epoch driver. Each cycle prepares the scenario afresh and
// drains it; no sockets are involved.

const (
	scaleShards      = 2
	scaleSampleEvery = 64 // trace one route lookup in 64 per shard
	scaleChunks      = 8  // slices of the traffic horizon the drain runs in
)

// scaleDigests holds the committed Render() of the full-size scenario
// for the canonical seeds.
//
//go:embed testdata/scale_seed*.txt
var scaleDigests embed.FS

// scaleDropReasons are the netsim drop reasons the scenario can produce.
var scaleDropReasons = []string{"corrupt", "link-down", "node-down", "peer-down", "queue-overflow", "no-route"}

// scaleCycle is one prepare-and-drain.
type scaleCycle struct {
	setup, drain time.Duration
	cpu          time.Duration
	mem          memCounters
	res          *scale.Result
	routeCalls   int64
}

// routeProbe counts one shard's route lookups and times a sample of them.
// Each shard's goroutine writes only its own probe; the padding keeps two
// probes off one cache line.
type routeProbe struct {
	calls int64
	_     [56]byte
}

func runScale(e *env) error {
	cfg := scale.Config{
		Nodes: e.size.scaleNodes, Packets: e.size.scalePackets, Seed: e.seed,
		Chaos: true, Shards: scaleShards, Parallel: true,
	}
	var want string
	if e.size == fullSize {
		if b, err := scaleDigests.ReadFile(fmt.Sprintf("testdata/scale_seed%d.txt", e.seed)); err == nil {
			want = string(b)
		}
	}
	rep := e.rep
	var plain, traced []scaleCycle
	var ref string
	sched0 := readSched()
	start := time.Now()
	// In a traced run, cycles alternate untraced and traced (metrics
	// registries attached, route lookups wrapped).
	base := walkTimer(scaleShards)
	for i := 0; i == 0 || e.tr != nil && i < 2 || time.Since(start) < e.budget; i++ {
		on := e.tr != nil && i%2 == 1
		c := scaleRun(e, cfg, uint64(i), on, base)
		rep.attempted += int64(cfg.Packets)
		r := c.res
		render := r.Render()
		switch {
		case r.Delivered+r.Dropped != cfg.Packets+int(r.Stats["dup-injected"]):
			rep.failed += int64(cfg.Packets)
			rep.fail("sim-scale: cycle %d: delivered %d + dropped %d != %d packets + %d duplicates",
				i, r.Delivered, r.Dropped, cfg.Packets, r.Stats["dup-injected"])
			continue
		case want != "" && render != want:
			rep.failed += int64(cfg.Packets)
			rep.fail("sim-scale: cycle %d: digest differs from testdata for seed %d:\n%s", i, e.seed, render)
			continue
		case ref != "" && render != ref:
			rep.failed += int64(cfg.Packets)
			rep.fail("sim-scale: cycle %d: digest differs from cycle 0 of the same seed", i)
			continue
		}
		ref = render
		if on {
			traced = append(traced, c)
		} else {
			plain = append(plain, c)
		}
	}
	sched1 := readSched()
	if len(plain) == 0 {
		return fmt.Errorf("sim-scale: no cycle passed its checks")
	}

	var setups, rates, drains, cpuPerEvent, nsPerEvent []float64
	var events, mallocs float64
	var gcs uint32
	for _, c := range append(plain, traced...) {
		setups = append(setups, c.setup.Seconds())
	}
	for _, c := range plain {
		ev := float64(c.res.Processed)
		rates = append(rates, ev/c.drain.Seconds())
		drains = append(drains, float64(c.drain.Nanoseconds())/1e6)
		nsPerEvent = append(nsPerEvent, float64(c.drain.Nanoseconds())/ev)
		cpuPerEvent = append(cpuPerEvent, float64(c.cpu.Nanoseconds())/ev)
		events += ev
		mallocs += float64(c.mem.mallocs)
		gcs += c.mem.gcs
	}
	rep.set("setup_s", median(setups))
	rep.set("rel_time", median(nsPerEvent)/base.perStepNs())
	rep.layer("rate_per_s", median(rates))
	rep.layer("latency_ms", median(drains))
	rep.layer("baseline_us", base.perStepNs()/1e3)
	rep.layer("cpu_us_per_unit", median(cpuPerEvent)/1e3)
	r0 := plain[0].res
	rep.note("sim-scale: %d cycles, %d nodes, %d packets, delivered %d dropped %d, %d events per drain, drains %s ms",
		len(plain)+len(traced), r0.Nodes, cfg.Packets, r0.Delivered, r0.Dropped, r0.Processed, quantileNote(drains))
	rep.note("sim-scale: an event took %.3f reference steps of %.3f us (reference runs %s ns)",
		median(nsPerEvent)/base.perStepNs(), base.perStepNs()/1e3, quantileNote(base.ns))
	if e.tr == nil {
		return nil
	}

	// Per-layer: topology generation alone, the rest of Prepare, and the
	// traced drain's counters.
	gen := time.Now()
	topology.GenerateScaleFree(cfg.Nodes, 2, sim.NewRNG(cfg.Seed))
	genS := time.Since(gen).Seconds()
	rep.layer("topology.gen_s", genS)
	rep.layer("scale.tables_s", median(setups)-genS)
	t := traced[0]
	snap := map[string]int64{}
	for _, c := range t.res.Metrics.Snapshot().Counters {
		snap[c.Name] = c.Value
	}
	hops := float64(snap["netsim.forwarded"] + snap["netsim.delivered"] + snap["netsim.drops"])
	perCycleEvents := events / float64(len(plain))
	rep.layer("sim.events", perCycleEvents)
	rep.layer("sim.hops", hops)
	rep.layer("sim.events_per_hop", perCycleEvents/hops)
	rep.layer("sim.ns_per_event", median(cpuPerEvent))
	rep.layer("sim.allocs_per_hop", mallocs/float64(len(plain))/hops)
	rep.layer("netsim.route_calls", float64(t.routeCalls))
	for _, reason := range scaleDropReasons {
		rep.layer("netsim.drop."+reason, float64(snap["netsim.drop."+reason]))
	}
	rep.layer("go.gc_cycles", float64(gcs))
	rep.schedWait(sched0, sched1)
	rep.layer("trace.overhead_pct", 100*(t.drain.Seconds()-median(drains)/1e3)/(median(drains)/1e3))
	return nil
}

// scaleRun prepares and drains one cycle. A garbage collection first
// returns the previous cycle's memory, so every cycle starts alike. The
// drain runs in scaleChunks slices of the traffic horizon, then on to the
// end; in an untraced cycle the baseline takes a round between slices, so
// it samples the host all through the drain. Only the slices are timed.
func scaleRun(e *env, cfg scale.Config, i uint64, on bool, base *refTimer) scaleCycle {
	var c scaleCycle
	runtime.GC()
	cfg.Obs = on
	t0 := time.Now()
	sm := scale.Prepare(cfg)
	c.setup = time.Since(t0)
	var probes []routeProbe
	if on {
		probes = make([]routeProbe, len(sm.S.Shards))
		for _, v := range sm.G.NodeIDs() {
			nd := sm.S.Owner(v).Node(v)
			nd.Route = probeRoute(e.tr, i, &probes[sm.S.Part.ShardOf(v)], nd.Route)
		}
	}
	timed := func(drain func()) {
		cpu0, t1 := cpuTime(), time.Now()
		drain()
		c.drain += time.Since(t1)
		c.cpu += cpuTime() - cpu0
	}
	m0 := readMem()
	var d0 int64
	if on {
		d0 = e.tr.now()
	}
	for k := 1; k <= scaleChunks; k++ {
		timed(func() { sm.S.RunUntil(sm.Cfg.Horizon * sim.Time(k) / scaleChunks) })
		if !on {
			base.run()
		}
	}
	timed(func() { c.res = sm.Run() })
	c.mem = readMem().since(m0)
	if on {
		e.tr.add(span{ID: rootID(i), Req: i, Name: "sim.drain", Start: d0, End: e.tr.now()})
		for _, p := range probes {
			c.routeCalls += p.calls
		}
	}
	return c
}

// probeRoute wraps one node's route function: it counts every lookup
// and records a span for one in scaleSampleEvery on its shard.
func probeRoute(tr *tracer, req uint64, p *routeProbe, inner netsim.RouteFunc) netsim.RouteFunc {
	return func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
		p.calls++
		if p.calls%scaleSampleEvery != 0 {
			return inner(dst, tip)
		}
		t0 := tr.now()
		next, ok := inner(dst, tip)
		tr.add(span{ID: tr.childID(), Parent: rootID(req), Req: req, Name: "route", Start: t0, End: tr.now()})
		return next, ok
	}
}
