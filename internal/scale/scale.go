// Package scale is the ISP-scale workload for the sharded simulation
// core: a generated scale-free (Barabási–Albert) internetwork with wide
// packet addressing, static shortest-path routing toward a small set of
// sink nodes, and fire-and-forget traffic injection sized in millions
// of packets. Everything — topology, routing tables, send times, sink
// choices, and the optional chaos faults — is a pure function of the
// config, and the sharded core guarantees the outcome is additionally
// independent of the shard count and of sequential-vs-parallel
// execution. Render() is the byte-comparable digest CI pins.
package scale

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Config parameterizes one scale run.
type Config struct {
	// Nodes and M shape the Barabási–Albert topology (M links per new
	// node).
	Nodes int
	M     int
	// Sinks is how many nodes absorb traffic; they are spread evenly
	// across the ID space. All other nodes originate packets.
	Sinks int
	// Packets is the total packet count, split evenly across sources.
	Packets int
	// Seed drives every random choice (topology, send times, sink
	// selection, chaos).
	Seed uint64
	// Shards is the partition width; Parallel selects the epoch-barrier
	// driver over the sequential lockstep driver.
	Shards   int
	Parallel bool
	// Chaos injects a deterministic fault schedule (link failures and
	// recoveries, node crashes, packet impairments) during the run.
	Chaos bool
	// Payload is the per-packet payload size in bytes (default 64).
	Payload int
	// Horizon is the traffic injection window (default 200ms); the run
	// itself continues until all in-flight packets terminate.
	Horizon sim.Time
	// Obs attaches per-shard metric registries (merged in the Result).
	Obs bool
}

// Result is the outcome of a scale run.
type Result struct {
	Config     Config
	Nodes      int
	Links      int
	CrossLinks int
	Window     sim.Time
	Delivered  int
	Dropped    int
	Processed  uint64
	Stats      sim.Counter
	// Metrics is the merged per-shard obs registry (nil unless
	// Config.Obs).
	Metrics *obs.Registry
}

// chaosStream and trafficStream separate the seed's derived RNG streams
// so adding chaos cannot perturb traffic randomness.
const (
	trafficStream = uint64(0)
	chaosStream   = uint64(1) << 40
)

// probeStream seeds SendProbes; distinct from traffic and chaos so
// probes never perturb either.
const probeStream = uint64(1) << 41

// Sim is a prepared but not-yet-run scale scenario: topology built,
// routes installed, traffic and chaos armed. It exists so callers can
// attach extra instrumentation — an invariant checker sink, traced
// probe packets — between build and drain.
type Sim struct {
	Cfg   Config
	S     *netsim.Sharded
	G     *topology.Graph
	Sinks []topology.NodeID

	isSink []bool
	regs   []*obs.Registry
}

// Run executes one scale scenario to completion.
func Run(cfg Config) *Result { return Prepare(cfg).Run() }

// Prepare builds a scale scenario without draining it. It panics if a
// node has more than 65,535 links, the most a sink routing table entry
// can name (see nextHopTables); at 100k nodes the largest degree is
// 1,222 at seed 42 and 744 at seed 7.
func Prepare(cfg Config) *Sim {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1000
	}
	if cfg.M <= 0 {
		cfg.M = 2
	}
	// GenerateScaleFree starts from a clique of M+1 nodes; raising Nodes to
	// match here keeps the sink count and the chaos schedule in step with
	// the graph it builds.
	if cfg.Nodes < cfg.M+1 {
		cfg.Nodes = cfg.M + 1
	}
	if cfg.Sinks <= 0 {
		// Sinks scale with the topology so the aggregate sink ingress
		// capacity scales with the packet load; a handful of sinks under
		// millions of packets would just measure queue-overflow.
		cfg.Sinks = 8
		if cfg.Nodes/500 > cfg.Sinks {
			cfg.Sinks = cfg.Nodes / 500
		}
	}
	if cfg.Sinks >= cfg.Nodes {
		cfg.Sinks = cfg.Nodes / 2
	}
	if cfg.Packets <= 0 {
		cfg.Packets = 10 * cfg.Nodes
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Payload <= 0 {
		cfg.Payload = 64
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 200 * sim.Millisecond
	}

	rng := sim.NewRNG(cfg.Seed)
	g := topology.GenerateScaleFree(cfg.Nodes, cfg.M, rng)
	s := netsim.NewSharded(g, cfg.Shards)
	s.Parallel = cfg.Parallel
	for _, sh := range s.Shards {
		sh.Net.WideAddressing()
	}
	var regs []*obs.Registry
	if cfg.Obs {
		regs = s.AttachObs(nil)
	}

	ids := g.NodeIDs()
	adj := g.Freeze()
	sinks := make([]topology.NodeID, cfg.Sinks)
	isSink := make([]bool, adj.Bound())
	for i := range sinks {
		sinks[i] = ids[i*len(ids)/cfg.Sinks]
		isSink[sinks[i]] = true
	}
	rt := &sinkRoutes{sinkIdx: make([]int32, len(isSink)), next: nextHopTables(adj, sinks)}
	for i := range rt.sinkIdx {
		rt.sinkIdx[i] = -1
	}
	for i, sk := range sinks {
		rt.sinkIdx[sk] = int32(i)
	}

	// Static shortest-path routing toward sinks: each node's RouteFunc
	// is a dense double index (sink table, then node) that names a
	// position in the node's own row, no maps on the hot path.
	for _, v := range ids {
		nbrs, _ := adj.Row(v)
		s.Owner(v).Node(v).Route = func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
			d := uint32(dst)
			if d >= uint32(len(rt.sinkIdx)) {
				return 0, false
			}
			si := rt.sinkIdx[d]
			if si < 0 {
				return 0, false
			}
			p := rt.next[si][v]
			if p == 0 {
				return 0, false
			}
			return nbrs[p-1], true
		}
	}

	scheduleTraffic(s, cfg, ids, sinks, isSink)
	if cfg.Chaos {
		scheduleChaos(s, cfg, g)
	}

	return &Sim{Cfg: cfg, S: s, G: g, Sinks: sinks, isSink: isSink, regs: regs}
}

// AttachSink attaches one shared tracer sink to every shard's network
// (alongside any metric registry from Config.Obs). A shared sink is not
// safe under the parallel driver, so this forces the lockstep driver —
// which additionally delivers the sink a single globally time-ordered
// event stream, exactly what the invariant checker consumes.
func (sm *Sim) AttachSink(sink obs.Sink) {
	sm.S.Parallel = false
	tr := obs.NewTracer(sink)
	for i, sh := range sm.S.Shards {
		var reg *obs.Registry
		if sm.regs != nil {
			reg = sm.regs[i]
		}
		sh.Net.AttachObs(reg, tr)
	}
}

// SendProbes sends k fully-traced packets at time zero from sources
// spread deterministically across the ID space, each targeting a
// random sink. Unlike the fire-and-forget bulk traffic, probes keep
// their hop-by-hop traces, so a checker can audit complete paths.
func (sm *Sim) SendProbes(k int) []*netsim.Trace {
	rng := sim.NewRNG(sim.SeedStream(sm.Cfg.Seed, probeStream))
	ids := sm.G.NodeIDs()
	traces := make([]*netsim.Trace, 0, k)
	for len(traces) < k {
		src := ids[rng.Intn(len(ids))]
		if sm.isSink[src] {
			continue
		}
		sink := sm.Sinks[rng.Intn(len(sm.Sinks))]
		data, err := packet.Serialize(
			&packet.TIP{TTL: 64, Proto: packet.LayerTypeRaw,
				Src: sm.S.Owner(src).AddrOf(src), Dst: sm.S.Owner(src).AddrOf(sink)},
			&packet.Raw{Data: []byte("probe")})
		if err != nil {
			panic(err)
		}
		traces = append(traces, sm.S.Send(src, data))
	}
	return traces
}

// Run drains the prepared scenario and summarizes it.
func (sm *Sim) Run() *Result {
	cfg, s, g := sm.Cfg, sm.S, sm.G
	s.Run()

	res := &Result{
		Config:     cfg,
		Nodes:      len(g.Nodes),
		Links:      len(g.Links),
		CrossLinks: s.Part.CrossLinks(g),
		Window:     s.Window,
		Delivered:  s.Delivered(),
		Dropped:    s.Dropped(),
		Processed:  s.Processed(),
		Stats:      s.Stats(),
	}
	if cfg.Obs {
		res.Metrics = netsim.MergedObs(sm.regs)
	}
	return res
}

// sinkRoutes is what every node's route closure reads: the table index
// of each sink, -1 for every other node ID, and the tables themselves.
type sinkRoutes struct {
	sinkIdx []int32
	next    [][]uint16
}

// maxDegree is the most links a node may have: a table entry is a
// uint16 holding 1 + a position in the node's row.
const maxDegree = 1<<16 - 1

// nextHopTables runs one BFS per sink over the graph's frozen
// adjacency, producing dense node -> next-hop-toward-sink tables. An
// entry is 1 + the next hop's position in the node's own adjacency row,
// and 0 means no hop (the sink itself, or unreachable), so a table is
// half the size a NodeID per node would take and a fresh, zeroed table
// needs no fill. Rows are sorted by neighbour and every node takes the
// first node that reached it as its next hop, so the traversal order,
// and with it every table, is deterministic. It panics if a node has
// more than maxDegree links.
//
// The sinks are shared out among GOMAXPROCS workers, each with its own
// seen-set and queue. The walks only read, and each table has exactly
// one writer, so no table depends on the worker count or on which worker
// built it. The workers' seen-sets share one allocation, and so do their
// queues, which keeps a small graph's build to a handful of allocations
// beside its tables.
func nextHopTables(adj *topology.Adjacency, sinks []topology.NodeID) [][]uint16 {
	bound := adj.Bound()
	start, twin := twins(adj)
	out := make([][]uint16, len(sinks))
	for i := range out {
		out[i] = make([]uint16, bound)
	}
	workers := min(runtime.GOMAXPROCS(0), len(sinks))
	seen := make([]uint8, workers*bound)
	queue := make([]hop, workers*(bound+1))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := seen[w*bound : (w+1)*bound]
			queue := queue[w*(bound+1) : (w+1)*(bound+1)]
			for i := int(next.Add(1) - 1); i < len(sinks); i = int(next.Add(1) - 1) {
				walk(adj, start, twin, sinks[i], seen, queue, out[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// twins numbers the adjacency's entries row by row, in O(Bound + links).
// start[v] is the number of node v's first entry, and for the
// entry of the link from v to u, twin holds the position in u's row of
// the same link's entry back to v. Rows are sorted by neighbour, so
// reading them in node order reaches each row's entries for v in the
// order they sit in that row: a per-node cursor hands out positions, and
// pairs the k-th of several parallel links between two nodes with the
// k-th, which rows also sort by link index.
func twins(adj *topology.Adjacency) (start []int32, twin []uint16) {
	bound := adj.Bound()
	start = make([]int32, bound)
	entries := 0
	for v := range bound {
		nbrs, _ := adj.Row(topology.NodeID(v))
		if len(nbrs) > maxDegree {
			panic(fmt.Sprintf("scale: node %d has %d links; sink routing tables name at most %d", v, len(nbrs), maxDegree))
		}
		start[v] = int32(entries)
		entries += len(nbrs)
	}
	twin = make([]uint16, entries)
	cursor := make([]uint16, bound)
	e := 0
	for v := range bound {
		nbrs, _ := adj.Row(topology.NodeID(v))
		for _, u := range nbrs {
			twin[e] = cursor[u]
			cursor[u]++
			e++
		}
	}
	return start, twin
}

// hop is one entry of a walk's queue: a node, and the number of the
// adjacency entry that first reached it, the link from its next hop
// toward the walk's sink.
type hop struct {
	node  topology.NodeID
	entry int32
}

// walk fills tbl with each node's next hop toward sink, as 1 + its
// position in the node's row. The neighbour loop has no branch: it
// writes every neighbour at the queue's tail and moves the tail past it
// only if it was not yet seen, so the next neighbour overwrites a seen
// one. The queue keeps first-in, first-out order, so each node keeps the
// same first discoverer as in a branching BFS. The fill then turns each
// discovering entry into the position of its twin. seen must have length
// Bound, and queue one more than that for the write past the last node
// reached.
func walk(adj *topology.Adjacency, start []int32, twin []uint16, sink topology.NodeID, seen []uint8, queue []hop, tbl []uint16) {
	clear(seen)
	seen[sink] = 1
	queue[0] = hop{node: sink}
	tail := 1
	for head := 0; head < tail; head++ {
		v := queue[head].node
		nbrs, _ := adj.Row(v)
		e := start[v]
		for i, nb := range nbrs {
			queue[tail] = hop{nb, e + int32(i)}
			was := seen[nb]
			seen[nb] = 1
			tail += 1 - int(was)
		}
	}
	for _, h := range queue[1:tail] {
		tbl[h.node] = twin[h.entry] + 1
	}
}

// scheduleTraffic arms one fire-and-forget send chain per source node.
// Every chain draws from its own per-node RNG stream
// (SeedStream(seed, node)), so send times and sink choices are a pure
// function of (seed, node) — never of the partition. One pre-serialized
// template packet per shard is retargeted in place (packet.SetDst) for
// every send; Inject copies it into a flight-owned buffer, so the
// steady state allocates nothing. The chains' state is one generator
// per source, all in one slice.
func scheduleTraffic(s *netsim.Sharded, cfg Config, ids, sinks []topology.NodeID, isSink []bool) {
	sources := make([]topology.NodeID, 0, len(ids)-len(sinks))
	for _, id := range ids {
		if !isSink[id] {
			sources = append(sources, id)
		}
	}
	if len(sources) == 0 {
		return
	}
	shards := make([]trafficShard, len(s.Shards))
	for i, sh := range s.Shards {
		data, err := packet.Serialize(
			&packet.TIP{TTL: 64, Proto: packet.LayerTypeRaw,
				Src: packet.MakeAddr(0, 1), Dst: packet.AddrNone},
			&packet.Raw{Data: make([]byte, cfg.Payload)})
		if err != nil {
			panic(err)
		}
		shards[i] = trafficShard{net: sh.Net, buf: data, sinks: sinks}
	}
	gens := make([]generator, len(sources))
	base, rem := cfg.Packets/len(sources), cfg.Packets%len(sources)
	for si, src := range sources {
		quota := base
		if si < rem {
			quota++
		}
		if quota == 0 {
			continue
		}
		g := &gens[si]
		*g = generator{
			shard: &shards[s.Part.ShardOf(src)],
			rng:   *sim.NewRNG(sim.SeedStream(cfg.Seed, trafficStream|uint64(src))),
			mean:  float64(cfg.Horizon) / float64(quota),
			left:  quota,
			src:   src,
		}
		g.fire = g.send
		g.shard.net.AtNode(g.gap(), src, g.fire)
	}
}

// trafficShard is what a shard's generators share: the shard's network,
// its template packet and the sinks.
type trafficShard struct {
	net   *netsim.Network
	buf   []byte
	sinks []topology.NodeID
}

// generator is one source's send chain. fire, the method value of send
// bound once, is the callback every send re-arms, so a send allocates
// nothing.
type generator struct {
	shard *trafficShard
	rng   sim.RNG
	mean  float64
	fire  func()
	left  int
	src   topology.NodeID
}

// gap draws the time to the next send: uniform in [0.2, 1.8) times the
// mean gap, and at least 1ns.
func (g *generator) gap() sim.Time {
	t := sim.Time(g.rng.Range(0.2, 1.8) * g.mean)
	if t < 1 {
		t = 1
	}
	return t
}

// send retargets the shard's template at a random sink, injects it, and
// arms the next send until the quota is spent.
func (g *generator) send() {
	sh := g.shard
	sink := sh.sinks[g.rng.Intn(len(sh.sinks))]
	if err := packet.SetDst(sh.buf, sh.net.AddrOf(sink)); err != nil {
		panic(err)
	}
	sh.net.Inject(g.src, sh.buf)
	g.left--
	if g.left > 0 {
		sh.net.AtNode(sh.net.Sched.Now()+g.gap(), g.src, g.fire)
	}
}

// scheduleChaos derives a deterministic fault schedule from the seed:
// link failures with recovery, node crashes with recovery, and packet
// impairments, all concentrated inside the traffic horizon so faults
// actually meet traffic. Fault times and subjects come from a dedicated
// RNG stream, and every mutation is replicated to all shards through
// FaultAt, so the schedule is shard-count-independent.
func scheduleChaos(s *netsim.Sharded, cfg Config, g *topology.Graph) {
	rng := sim.NewRNG(sim.SeedStream(cfg.Seed, chaosStream))
	h := float64(cfg.Horizon)
	nLinkFaults := 4 + cfg.Nodes/1000
	for i := 0; i < nLinkFaults; i++ {
		l := g.Links[rng.Intn(len(g.Links))]
		t0 := sim.Time(rng.Range(0.05, 0.6) * h)
		t1 := t0 + sim.Time(rng.Range(0.05, 0.3)*h)
		a, b := l.A, l.B
		s.FaultAt(t0, func(n *netsim.Network) { n.FailLink(a, b) })
		s.FaultAt(t1, func(n *netsim.Network) { n.RestoreLink(a, b) })
	}
	nCrashes := 2 + cfg.Nodes/2000
	for i := 0; i < nCrashes; i++ {
		v := topology.NodeID(1 + rng.Intn(cfg.Nodes))
		t0 := sim.Time(rng.Range(0.05, 0.6) * h)
		t1 := t0 + sim.Time(rng.Range(0.05, 0.3)*h)
		s.FaultAt(t0, func(n *netsim.Network) { n.FailNode(v) })
		s.FaultAt(t1, func(n *netsim.Network) { n.RecoverNode(v) })
	}
	nImpair := 2 + cfg.Nodes/2000
	for i := 0; i < nImpair; i++ {
		l := g.Links[rng.Intn(len(g.Links))]
		t0 := sim.Time(rng.Range(0.05, 0.4) * h)
		a, b := l.A, l.B
		imp := netsim.LinkImpairment{
			Corrupt:       rng.Range(0.01, 0.05),
			Duplicate:     rng.Range(0.01, 0.05),
			ReorderProb:   rng.Range(0.05, 0.2),
			ReorderJitter: sim.Time(rng.Range(0.5, 2)) * sim.Millisecond,
		}
		// The impairment RNG seed is derived outside the closure so all
		// shards install byte-identical generators.
		impSeed := rng.Uint64()
		s.FaultAt(t0, func(n *netsim.Network) {
			n.ImpairLink(a, b, imp, sim.NewRNG(impSeed))
		})
	}
}

// Render is the deterministic digest of a run: identical bytes for
// identical configs at any shard count, sequential or parallel. Event
// counts are intentionally excluded (replicated fault events scale with
// the shard count); every packet-visible quantity is included.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scale: nodes=%d links=%d sinks=%d packets=%d seed=%d chaos=%v\n",
		r.Nodes, r.Links, r.Config.Sinks, r.Config.Packets, r.Config.Seed, r.Config.Chaos)
	fmt.Fprintf(&b, "delivered=%d dropped=%d ratio=%.6f\n",
		r.Delivered, r.Dropped,
		float64(r.Delivered)/float64(max(1, r.Delivered+r.Dropped)))
	keys := make([]string, 0, len(r.Stats))
	for k := range r.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "stat %s=%d\n", k, r.Stats[k])
	}
	return b.String()
}
