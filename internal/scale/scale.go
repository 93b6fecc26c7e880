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
	Sinks      int // nodes that absorbed traffic (see Prepare)
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

// payload is the per-packet payload size in bytes.
const payload = 64

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

// Prepare builds a scale scenario without draining it. Each node routes
// by its entry in the sink routing tables (see nextHopTables): a node
// with at most 255 links reads one byte per sink, and a hub, a node with
// more, reads its own row of 16-bit entries, so neither route function
// branches on the encoding. It panics if a node has more than 65,535
// links, the most a 16-bit entry can name; at 100k nodes the largest
// degree is 1,222 at seed 42 and 744 at seed 7, and 14 and 8 nodes are
// hubs.
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
	if cfg.Packets <= 0 {
		cfg.Packets = 10 * cfg.Nodes
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
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
	// Sinks absorb the traffic; every other node originates packets. They
	// scale with the topology so the aggregate sink ingress capacity
	// scales with the packet load (a handful of sinks under millions of
	// packets would just measure queue-overflow), and they are spread
	// evenly across the ID space.
	nsinks := max(8, cfg.Nodes/500)
	if nsinks >= cfg.Nodes {
		nsinks = cfg.Nodes / 2
	}
	sinks := make([]topology.NodeID, nsinks)
	isSink := make([]bool, adj.Bound())
	for i := range sinks {
		sinks[i] = ids[i*len(ids)/nsinks]
		isSink[sinks[i]] = true
	}
	tables := nextHopTables(adj, sinks)
	rt := &sinkRoutes{sinkIdx: make([]int32, len(isSink)), next: tables.next}
	for i := range rt.sinkIdx {
		rt.sinkIdx[i] = -1
	}
	for i, sk := range sinks {
		rt.sinkIdx[sk] = int32(i)
	}

	// Static shortest-path routing toward sinks: each node's RouteFunc
	// is a dense double index (sink, then node) that names a position in
	// the node's own row, no maps on the hot path. A hub's function reads
	// its own row of the hub table; hub rows are in ascending ID order,
	// the order ids walks them in.
	hub := 0
	for _, v := range ids {
		nbrs, _ := adj.Row(v)
		nd := s.Owner(v).Node(v)
		if len(nbrs) > maxByteDegree {
			row := tables.hubs[hub*nsinks : (hub+1)*nsinks]
			hub++
			nd.Route = func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
				si := rt.index(dst)
				if si < 0 {
					return 0, false
				}
				p := row[si]
				if p == 0 {
					return 0, false
				}
				return nbrs[p-1], true
			}
			continue
		}
		nd.Route = func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
			si := rt.index(dst)
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
		Sinks:      len(sm.Sinks),
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

// sinkRoutes is what the route closures read: the table index of each
// sink, -1 for every other node ID, and the byte tables.
type sinkRoutes struct {
	sinkIdx []int32
	next    [][]uint8
}

// index returns the table index of the sink dst names, or -1 when dst
// names no sink.
func (rt *sinkRoutes) index(dst packet.Addr) int32 {
	if d := uint32(dst); d < uint32(len(rt.sinkIdx)) {
		return rt.sinkIdx[d]
	}
	return -1
}

// maxByteDegree is the most links a node may have to keep its entries in
// the byte tables, and maxDegree the most any node may have: an entry
// holds 1 + a position in the node's row.
const (
	maxByteDegree = 1<<8 - 1
	maxDegree     = 1<<16 - 1
)

// sinkTables are the next-hop tables toward every sink. An entry is 1 +
// the next hop's position in the node's own adjacency row, and 0 means
// no hop (the sink itself, or unreachable), so a fresh, zeroed table
// needs no fill.
type sinkTables struct {
	// next holds one table per sink, indexed by NodeID, with the entries
	// of every node that has at most maxByteDegree links. A hub's entries
	// here stay 0.
	next [][]uint8
	// hubs holds the hubs' entries, hub-major: the k-th hub in ascending
	// ID order has its entry for sink i at k*len(next) + i.
	hubs []uint16
}

// nextHopTables runs one BFS per sink over a relabelled copy of the
// graph's frozen adjacency (see relabel), producing dense node ->
// next-hop-toward-sink tables. Rows keep the adjacency's order, sorted by
// neighbour, and every node takes the first node that reached it as its
// next hop, so the traversal order, and with it every table, is
// deterministic and the same as a BFS over the adjacency itself. It
// panics if a node has more than maxDegree links.
//
// The sinks are shared out among GOMAXPROCS workers, each with its own
// seen-set and queue. The walks only read, each byte table has exactly
// one writer, and so does each hub entry, so no table depends on the
// worker count or on which worker built it. The workers' seen-sets share
// one allocation, and so do their queues, which keeps a small graph's
// build to a handful of allocations beside its tables.
func nextHopTables(adj *topology.Adjacency, sinks []topology.NodeID) sinkTables {
	r := relabel(adj)
	bound := adj.Bound()
	t := sinkTables{next: make([][]uint8, len(sinks)), hubs: make([]uint16, int(r.hubs)*len(sinks))}
	for i := range t.next {
		t.next[i] = make([]uint8, bound)
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
				walk(r, t, i, r.num[sinks[i]], seen, queue)
			}
		}()
	}
	wg.Wait()
	return t
}

// rows is a copy of an adjacency's rows with every ID below Bound given
// a new number, so that nodes a walk reaches together sit together in
// memory. Each row keeps its entries in the adjacency's order, so a
// position in a row means the same in both, and each entry carries its
// twin: for the entry of the link from v to u, the position in u's row of
// the same link's entry back to v.
type rows struct {
	off  []int32           // node k's entries are [off[k], off[k+1])
	nbr  []int32           // each entry's neighbour, by number
	twin []uint16          // each entry's twin's position
	num  []int32           // each NodeID's number
	old  []topology.NodeID // each number's NodeID
	hubs int32             // the hubs, and only they, are numbered below this
}

// relabel builds the copy of adj's rows that the walks read, in
// O(Bound + links). The hubs, nodes with more than maxByteDegree links,
// take the first numbers, in ascending ID order; the rest are numbered
// breadth-first from the hubs, and when that search runs dry, from the
// lowest ID not yet numbered. The order decides only locality: the
// walks give every node the same next hop in any order. It panics if a
// node has more than maxDegree links.
//
// Rows are sorted by neighbour, so reading them in ID order reaches each
// row's entries for v in the order they sit in that row: a per-node
// cursor hands out the twin positions, and pairs the k-th of several
// parallel links between two nodes with the k-th, which rows also sort by
// link index.
func relabel(adj *topology.Adjacency) *rows {
	bound := adj.Bound()
	r := &rows{
		off: make([]int32, bound+1),
		num: make([]int32, bound),
		old: make([]topology.NodeID, 0, bound),
	}
	// r.old is the search's queue: a node is numbered as it is queued.
	number := func(v topology.NodeID) {
		if r.num[v] < 0 {
			r.num[v] = int32(len(r.old))
			r.old = append(r.old, v)
		}
	}
	for v := range bound {
		r.num[v] = -1
		nbrs, _ := adj.Row(topology.NodeID(v))
		if len(nbrs) > maxDegree {
			panic(fmt.Sprintf("scale: node %d has %d links; sink routing tables name at most %d", v, len(nbrs), maxDegree))
		}
		if len(nbrs) > maxByteDegree {
			number(topology.NodeID(v))
		}
	}
	r.hubs = int32(len(r.old))
	lowest := 0
	for head := 0; head < bound; head++ {
		if head == len(r.old) {
			for r.num[lowest] >= 0 {
				lowest++
			}
			number(topology.NodeID(lowest))
		}
		nbrs, _ := adj.Row(r.old[head])
		for _, u := range nbrs {
			number(u)
		}
		r.off[head+1] = r.off[head] + int32(len(nbrs))
	}
	entries := r.off[bound]
	r.nbr = make([]int32, entries)
	r.twin = make([]uint16, entries)
	cursor := make([]uint16, bound)
	for v := range bound {
		nbrs, _ := adj.Row(topology.NodeID(v))
		e := r.off[r.num[v]]
		for _, u := range nbrs {
			r.nbr[e] = r.num[u]
			r.twin[e] = cursor[u]
			cursor[u]++
			e++
		}
	}
	return r
}

// hop is one entry of a walk's queue: a node's number, and the number of
// the entry that first reached it, the link from its next hop toward the
// walk's sink.
type hop struct {
	node  int32
	entry int32
}

// walk fills sink i's entries in t, each node's next hop toward the sink
// numbered sink, as 1 + its position in the node's row. The neighbour
// loop has no branch: it writes every neighbour at the queue's tail and
// moves the tail past it only if it was not yet seen, so the next
// neighbour overwrites a seen one. The queue keeps first-in, first-out
// order, so each node keeps the same first discoverer as in a branching
// BFS. The fill then turns each discovering entry into the position of
// its twin, and writes it to the node's hub row or, by its NodeID, to the
// sink's byte table. seen must have length Bound, and queue one more than
// that for the write past the last node reached.
func walk(r *rows, t sinkTables, i int, sink int32, seen []uint8, queue []hop) {
	clear(seen)
	seen[sink] = 1
	queue[0] = hop{node: sink}
	tail := 1
	for head := 0; head < tail; head++ {
		v := queue[head].node
		lo, hi := r.off[v], r.off[v+1]
		for j, nb := range r.nbr[lo:hi] {
			queue[tail] = hop{nb, lo + int32(j)}
			was := seen[nb]
			seen[nb] = 1
			tail += 1 - int(was)
		}
	}
	tbl, sinks := t.next[i], len(t.next)
	for _, h := range queue[1:tail] {
		p := r.twin[h.entry] + 1
		if h.node < r.hubs {
			t.hubs[int(h.node)*sinks+i] = p
		} else {
			tbl[r.old[h.node]] = uint8(p)
		}
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
			&packet.Raw{Data: make([]byte, payload)})
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
		r.Nodes, r.Links, r.Sinks, r.Config.Packets, r.Config.Seed, r.Config.Chaos)
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
