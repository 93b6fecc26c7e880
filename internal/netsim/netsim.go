// Package netsim is the hop-by-hop packet forwarding simulator: nodes (one
// per autonomous system) connected by latency/bandwidth links, each with a
// pluggable routing function, a stack of middleboxes, and a local delivery
// handler. It runs on the deterministic event scheduler in internal/sim
// and carries the self-describing datagrams of internal/packet.
//
// Per-packet traces record the path taken and, on failure, where and why
// the packet died — the "tools to resolve and isolate faults" that §IV-C
// and §VI-A of the paper call for. A middlebox may be configured silent,
// in which case the trace records only an anonymous loss, reproducing the
// diagnostic asymmetry the paper warns about ("some devices that impair
// transparency may intentionally give no error information").
//
// # Forwarding fast path
//
// A packet in flight is carried by a pooled flight context: the TIP
// header is decoded once at Send and the decoded form rides alongside the
// bytes from hop to hop. The two representations are kept coherent — any
// in-place byte patch (TTL decrement, source-route advance) is mirrored
// into the decoded header, and a middlebox transform (non-nil return from
// Process) forces a re-decode. Link lookups go through a dense per-node
// adjacency table instead of the Graph's map, and each hop re-schedules
// the flight's single preallocated closure, so a steady-state forward hop
// (no transform, no drop) performs zero heap allocations.
package netsim

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Direction tells a middlebox how the packet is moving relative to the
// node evaluating it.
type Direction uint8

// Packet directions at a node.
const (
	// Forwarding: the packet is transiting this node.
	Forwarding Direction = iota
	// Delivering: the packet terminates at this node.
	Delivering
	// Sending: the packet originates at this node.
	Sending
)

func (d Direction) String() string {
	switch d {
	case Forwarding:
		return "forward"
	case Delivering:
		return "deliver"
	default:
		return "send"
	}
}

// Verdict is a middlebox's decision about a packet.
type Verdict uint8

// Middlebox verdicts.
const (
	// Accept passes the (possibly transformed) packet on.
	Accept Verdict = iota
	// Drop discards the packet.
	Drop
)

// Middlebox inspects and possibly transforms or drops packets at a node.
// Implementations live in internal/middlebox; the interface is defined
// here so the simulator does not depend on them.
//
// A node's middlebox chain is single-pass: each device runs at most once
// per packet per node, in installation order. If a transform rewrites the
// destination so that the packet's direction flips (Delivering ↔
// Forwarding), devices later in the chain observe the new direction, but
// devices earlier in the chain are NOT re-run — a transform cannot route
// a packet back through the filters it already passed.
type Middlebox interface {
	// Name identifies the device in traces (when it is not silent).
	Name() string
	// Process examines data and returns the bytes to continue with and
	// a verdict. Returning different bytes models transformation (NAT,
	// redirection, cache answer). Returning nil bytes means "unmodified":
	// the simulator keeps forwarding the original packet without
	// re-decoding its headers, which is what keeps the fast path fast —
	// implementations must return nil rather than an identical copy when
	// they leave the packet alone.
	Process(node topology.NodeID, dir Direction, data []byte) ([]byte, Verdict)
	// Silent devices do not reveal themselves in drop reports.
	Silent() bool
}

// RouteFunc decides the next hop for a packet at a node. It receives the
// destination and the decoded network header (for policy-sensitive
// routing, e.g. ToS-aware or source-route-aware decisions). ok=false
// means "no route". The *packet.TIP is owned by the simulator and valid
// only for the duration of the call; implementations must not retain it
// or its option structs.
type RouteFunc func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool)

// DeliverFunc handles a packet that reached its destination node.
type DeliverFunc func(n *Node, t *Trace, data []byte)

// Node is one forwarding element (an AS border router): a Forwarder
// (identity, routing, source-route admission, middleboxes, counters)
// placed in a simulated Network.
type Node struct {
	Forwarder
	Net *Network

	// Deliver handles locally-destined traffic (after middleboxes).
	Deliver DeliverFunc
}

// adjEntry is one neighbor in a node's dense adjacency row.
type adjEntry struct {
	to   topology.NodeID
	link int32 // index into Graph.Links
}

// linkTable is the dense forwarding-plane view of the topology: per-node
// adjacency rows (sorted by neighbor ID), per-directed-link transmission
// backlog, and per-link failure flags. It is derived from the Graph at
// construction and rebuilt whenever the Graph's link count changes (see
// Network.InvalidateTopology); the failure map on Network remains the
// source of truth for fault state across rebuilds.
type linkTable struct {
	adj    [][]adjEntry // indexed by NodeID
	busy   []sim.Time   // indexed by 2*linkIdx (+1 for the B→A direction)
	failed []bool       // indexed by linkIdx
	nlinks int          // Graph.Links length at build time (staleness check)
}

// Network is the assembled simulator.
//
// Node state lives in a flat arena ([]Node) indexed through the dense
// nodesByID table; the nodes map is a build-time input only (it seeds the
// arena in New and survives for rebuilds), never touched on the
// forwarding fast path. The same struct-of-arrays discipline covers the
// rest of the hot state: transmit backlogs, link-failure flags, node-down
// flags, impairments, and the per-node key counters all live in
// contiguous slices indexed by the dense node or link index.
type Network struct {
	Sched *sim.Scheduler
	Graph *topology.Graph
	nodes map[topology.NodeID]*Node
	// nodeArr is the contiguous node arena; nodes and nodesByID point
	// into it. Allocated once in New — node addresses are stable.
	nodeArr []Node
	// nodesByID is the dense mirror of nodes for hot-path lookup.
	nodesByID []*Node

	// LinkRate is bytes/second of every link (serialization delay).
	LinkRate float64
	// MaxQueue is the maximum per-link backlog (waiting plus in-service
	// transmission time) a newly admitted packet may leave behind it. A
	// packet is tail-dropped when admitting it would push the link's
	// backlog beyond MaxQueue, so the bound is never exceeded.
	MaxQueue sim.Time
	// HopProcessing is fixed per-hop processing latency.
	HopProcessing sim.Time
	// TraceEventCap pre-sizes each Trace's event slab; traces longer
	// than this grow by the usual append doubling. Tune it to the
	// expected path length (send + hops + terminal) to keep steady-state
	// forwarding allocation-free for longer paths.
	TraceEventCap int

	lt     linkTable
	failed map[[2]topology.NodeID]bool

	// downNodes is the source of truth for crashed nodes; nodeDown is its
	// dense mirror (indexed by NodeID) for the forwarding fast path. Both
	// follow the same rebuild contract as the link failure map/mirror.
	downNodes map[topology.NodeID]bool
	nodeDown  []bool

	// impairments is the source of truth for per-link packet impairment
	// (corruption/duplication/reordering); impair is its dense mirror
	// indexed by link index, nil when no link is impaired so the healthy
	// fast path pays a single nil check.
	impairments map[[2]topology.NodeID]*LinkImpairment
	impair      []*LinkImpairment

	// obs/tracer are the observability hooks; both nil when disabled,
	// and every instrumented site is a single nil check so the
	// zero-alloc forwarding invariant holds with obs off.
	obs    *netObs
	tracer *obs.Tracer

	// addrShift maps a packet address to its destination node: the node
	// for address a is uint32(a) >> addrShift. The default (ProviderShift)
	// is the classic provider-number scheme — the top 16 bits of the
	// address name the node. WideAddressing sets it to 0, making the full
	// 32-bit address the node number, so wide simulations address 10^5+
	// nodes without changing the wire format.
	addrShift uint8

	// keyed switches the network to deterministic keyed event ordering:
	// every arrival is scheduled with a key derived from (origin node,
	// per-origin sequence) instead of relying on the scheduler's global
	// FIFO tie-break. Same-time ordering then depends only on the
	// simulation itself, never on how nodes are partitioned across
	// shard schedulers. Enabled by the sharded driver (at every shard
	// count, including 1); legacy single-scheduler networks leave it off
	// so their golden outputs are untouched.
	keyed bool
	// keySeq is the per-origin-node key sequence counter (dense).
	keySeq []uint32

	// shardOf/shardID/handoff wire this network into a sharded group:
	// shardOf is the dense NodeID->shard table (nil when unsharded),
	// shardID is this network's own shard, and handoff receives flights
	// whose next hop is owned by another shard. See Sharded.
	shardOf []int32
	shardID int32
	handoff func(f *flight, to topology.NodeID, arrive sim.Time, key uint64)

	// flightFree recycles flight contexts between packets.
	flightFree []*flight
	// traceFree recycles traces for fire-and-forget Inject traffic.
	traceFree []*Trace

	// dropKeys/blockedKeys/malformedKeys intern hot-path counter and
	// trace strings so drops do not concatenate on every packet.
	dropKeys      *sim.KeyCache
	blockedKeys   *sim.KeyCache
	malformedKeys *sim.KeyCache

	// Stats aggregates network-wide counters.
	Stats sim.Counter
	// Delivered and Dropped tally packet fates.
	Delivered, Dropped int
}

// New builds a Network over a topology. All nodes start with no routes,
// no middleboxes, and no delivery handler.
func New(sched *sim.Scheduler, g *topology.Graph) *Network {
	return build(sched, g, false)
}

// NewLean builds a Network without per-node Counters maps: node counter
// increments become no-ops. At ISP scale (10^5+ nodes) the per-node maps
// dominate construction cost and add a map write to every hop; lean
// networks keep the network-wide Stats, obs metrics, and traces, which
// is what the scale scenarios read.
func NewLean(sched *sim.Scheduler, g *topology.Graph) *Network {
	return build(sched, g, true)
}

func build(sched *sim.Scheduler, g *topology.Graph, lean bool) *Network {
	n := &Network{
		Sched:         sched,
		Graph:         g,
		nodes:         make(map[topology.NodeID]*Node, len(g.Nodes)),
		LinkRate:      1e8, // 800 Mbit/s
		MaxQueue:      100 * sim.Millisecond,
		HopProcessing: 10 * sim.Microsecond,
		TraceEventCap: 8,
		addrShift:     ProviderShift,
		Stats:         sim.Counter{},
		dropKeys:      sim.NewKeyCache("drop:"),
		blockedKeys:   sim.NewKeyCache("blocked:"),
		malformedKeys: sim.NewKeyCache("malformed-after:"),
	}
	// Flat node arena in ascending ID order; the map indexes into it.
	ids := g.NodeIDs()
	n.nodeArr = make([]Node, len(ids))
	for i, id := range ids {
		nd := &n.nodeArr[i]
		nd.ID = id
		nd.Net = n
		if !lean {
			nd.Counters = sim.Counter{}
		}
		n.nodes[id] = nd
	}
	n.InvalidateTopology()
	return n
}

// WideAddressing switches the network to wide packet addressing: the full
// 32-bit TIP address is the destination node number (instead of only the
// top 16 provider bits). Call it before any traffic is sent. Wide mode is
// for generated ISP-scale topologies; source-route options still carry
// provider-style waypoints and are not supported in wide mode.
func (n *Network) WideAddressing() { n.addrShift = 0 }

// AddrOf returns the packet address a packet must carry to be delivered
// at node id under the network's addressing mode.
func (n *Network) AddrOf(id topology.NodeID) packet.Addr {
	return packet.Addr(uint32(id) << n.addrShift)
}

// nextKey allocates the next deterministic ordering key for an event
// originating at node v: (origin node, per-origin sequence). Keys are
// unique per origin and allocated in the origin's own execution order,
// so they are identical at any shard count.
func (n *Network) nextKey(v topology.NodeID) uint64 {
	k := uint64(v)<<32 | uint64(n.keySeq[v])
	n.keySeq[v]++
	return k
}

// netObs bundles the forwarding plane's instruments. Drop counters are
// per-reason and created lazily (drops are off the fast path); the rest
// are pre-bound handles touched once per packet or per hop.
type netObs struct {
	reg       *obs.Registry
	sends     *obs.Counter
	delivered *obs.Counter
	forwarded *obs.Counter
	drops     *obs.Counter
	mboxRuns  *obs.Counter
	rewrites  *obs.Counter
	mboxDrops *obs.Counter
	latency   *obs.Histogram // delivered packets' transit time, sim ns
	hops      *obs.Histogram // delivered packets' forward-hop count
	dropBy    map[string]*obs.Counter
}

// dropCounter returns the per-reason drop counter, creating it on first
// use. reason is always an interned string (KeyCache or literal), so
// the map never accumulates duplicates.
func (o *netObs) dropCounter(reason string) *obs.Counter {
	if c, ok := o.dropBy[reason]; ok {
		return c
	}
	c := o.reg.Counter("netsim.drop." + reason)
	o.dropBy[reason] = c
	return c
}

// AttachObs enables forwarding-plane observability: counters for every
// packet fate (sends, forwards, deliveries, drops by reason), middlebox
// traversal and rewrite counts, and histograms of delivered packets'
// transit time and hop count. tr, when non-nil, additionally receives a
// structured event stream — sends, forwards, deliveries, middlebox
// rewrites, and drops with their reasons — in simulated-time order (the
// run-time contest visibility of §IV-C). Passing a nil registry and nil
// tracer disables observability again.
func (n *Network) AttachObs(reg *obs.Registry, tr *obs.Tracer) {
	n.tracer = tr
	if reg == nil {
		n.obs = nil
		return
	}
	n.obs = &netObs{
		reg:       reg,
		sends:     reg.Counter("netsim.sends"),
		delivered: reg.Counter("netsim.delivered"),
		forwarded: reg.Counter("netsim.forwarded"),
		drops:     reg.Counter("netsim.drops"),
		mboxRuns:  reg.Counter("netsim.mbox.runs"),
		rewrites:  reg.Counter("netsim.mbox.rewrites"),
		mboxDrops: reg.Counter("netsim.mbox.drops"),
		latency:   reg.Histogram("netsim.packet_latency_ns", obs.TimeBucketsNs),
		hops:      reg.Histogram("netsim.packet_hops", obs.CountBuckets),
		dropBy:    make(map[string]*obs.Counter),
	}
}

// InvalidateTopology rebuilds the dense adjacency/link-state table from
// the Graph. It must be called after links are added to the Graph of a
// live Network (adding links through the Graph directly does not notify
// the simulator; as a backstop, the table also rebuilds itself when it
// notices the Graph's link count changed). Per-link backlog is preserved
// across rebuilds (link indices are append-only), and fault state — link
// failures, node crashes, and link impairments — is re-derived from the
// FailLink/FailNode/ImpairLink maps, so in-flight traffic and injected
// faults survive a rebuild.
func (n *Network) InvalidateTopology() {
	g := n.Graph
	maxID := topology.NodeID(0)
	for id := range g.Nodes {
		if id > maxID {
			maxID = id
		}
	}
	for _, l := range g.Links {
		if l.A > maxID {
			maxID = l.A
		}
		if l.B > maxID {
			maxID = l.B
		}
	}
	adj := make([][]adjEntry, maxID+1)
	for i, l := range g.Links {
		adj[l.A] = insertAdj(adj[l.A], adjEntry{to: l.B, link: int32(i)})
		adj[l.B] = insertAdj(adj[l.B], adjEntry{to: l.A, link: int32(i)})
	}
	busy := make([]sim.Time, 2*len(g.Links))
	copy(busy, n.lt.busy)
	failed := make([]bool, len(g.Links))
	for i, l := range g.Links {
		if n.failed[linkKey(l.A, l.B)] {
			failed[i] = true
		}
	}
	n.lt = linkTable{adj: adj, busy: busy, failed: failed, nlinks: len(g.Links)}

	nodeDown := make([]bool, maxID+1)
	for id := range n.downNodes {
		if int(id) < len(nodeDown) {
			nodeDown[id] = true
		}
	}
	n.nodeDown = nodeDown
	n.impair = nil
	if len(n.impairments) > 0 {
		impair := make([]*LinkImpairment, len(g.Links))
		for i, l := range g.Links {
			impair[i] = n.impairments[linkKey(l.A, l.B)]
		}
		n.impair = impair
	}

	nodesByID := make([]*Node, maxID+1)
	for id, nd := range n.nodes {
		if int(id) < len(nodesByID) {
			nodesByID[id] = nd
		}
	}
	n.nodesByID = nodesByID

	if len(n.keySeq) < int(maxID)+1 {
		keySeq := make([]uint32, maxID+1)
		copy(keySeq, n.keySeq)
		n.keySeq = keySeq
	}
}

// insertAdj inserts e into row keeping it sorted by neighbor ID, so
// lookups and iteration stay deterministic.
func insertAdj(row []adjEntry, e adjEntry) []adjEntry {
	i := len(row)
	for i > 0 && row[i-1].to > e.to {
		i--
	}
	row = append(row, adjEntry{})
	copy(row[i+1:], row[i:])
	row[i] = e
	return row
}

// linkIndex returns the Graph.Links index of the from→to adjacency, or
// -1 when the nodes are not adjacent. It transparently rebuilds the dense
// table if links were added behind the simulator's back.
func (n *Network) linkIndex(from, to topology.NodeID) int32 {
	if n.lt.nlinks != len(n.Graph.Links) {
		n.InvalidateTopology()
	}
	if int(from) >= len(n.lt.adj) {
		return -1
	}
	for _, e := range n.lt.adj[from] {
		if e.to == to {
			return e.link
		}
	}
	return -1
}

// Node returns the node for id; it panics on unknown IDs (a wiring bug).
func (n *Network) Node(id topology.NodeID) *Node {
	if int(id) < len(n.nodesByID) {
		if nd := n.nodesByID[id]; nd != nil {
			return nd
		}
	}
	if nd, ok := n.nodes[id]; ok {
		return nd
	}
	panic(fmt.Sprintf("netsim: unknown node %d", id))
}

// TraceEvent is one step in a packet's life.
type TraceEvent struct {
	At     sim.Time
	Node   topology.NodeID
	Action string // "send", "forward", "deliver", "drop"
	Detail string // drop reason or middlebox name; empty when silent
}

// Trace is the per-packet record: the fault-isolation tool.
type Trace struct {
	Events    []TraceEvent
	Delivered bool
	// DropNode/DropReason are set when the packet died. For a silent
	// middlebox the reason is "lost" and the responsible device is not
	// identified — diagnosis must fall back on path inference.
	DropNode   topology.NodeID
	DropReason string
	SentAt     sim.Time
	DoneAt     sim.Time
}

// Path returns the sequence of nodes the packet visited.
func (t *Trace) Path() []topology.NodeID {
	var p []topology.NodeID
	for _, e := range t.Events {
		if e.Action != "drop" {
			p = append(p, e.Node)
		}
	}
	return p
}

// Latency returns the packet's network transit time (zero if undelivered).
func (t *Trace) Latency() sim.Time {
	if !t.Delivered {
		return 0
	}
	return t.DoneAt - t.SentAt
}

func (t *Trace) record(at sim.Time, node topology.NodeID, action, detail string) {
	t.Events = append(t.Events, TraceEvent{At: at, Node: node, Action: action, Detail: detail})
}

// flight carries one packet through the network: the bytes, the decoded
// network header (kept coherent with the bytes — see the package
// comment), the trace, and the node the packet is headed to. The struct
// and its single scheduling closure are allocated once and recycled
// through Network.flightFree, so per-hop scheduling allocates nothing.
type flight struct {
	net  *Network
	t    *Trace
	data []byte
	tip  packet.TIP
	node *Node
	dir  Direction
	hops int    // forward hops taken, for the obs hop histogram
	run  func() // method value for f.step, created once per flight

	// buf is the flight-owned byte buffer used by Inject: the packet is
	// copied into it so the caller's buffer can be reused immediately,
	// and it is retained across recycles so steady-state injection does
	// not allocate.
	buf []byte
	// pooled marks fire-and-forget flights whose Trace returns to the
	// network's trace pool on termination.
	pooled bool
	// undecoded marks a launched flight whose bytes the first step must
	// decode (tip is stale until then).
	undecoded bool
}

// newFlight returns a recycled or fresh flight context.
func (n *Network) newFlight() *flight {
	if k := len(n.flightFree); k > 0 {
		f := n.flightFree[k-1]
		n.flightFree = n.flightFree[:k-1]
		return f
	}
	f := &flight{net: n}
	f.run = f.step
	return f
}

// releaseFlight recycles a terminated flight. The decoded TIP keeps its
// option structs so DecodeReuse on the next tenant is allocation-free;
// flight-owned buffers (Inject) are likewise retained.
func (n *Network) releaseFlight(f *flight) {
	if f.pooled && f.t != nil {
		n.traceFree = append(n.traceFree, f.t)
		f.pooled = false
	}
	f.t = nil
	f.data = nil
	f.node = nil
	n.flightFree = append(n.flightFree, f)
}

// newTrace returns a pooled or fresh Trace initialized for a send now.
func (n *Network) newTrace() *Trace {
	if k := len(n.traceFree); k > 0 {
		t := n.traceFree[k-1]
		n.traceFree = n.traceFree[:k-1]
		*t = Trace{Events: t.Events[:0], SentAt: n.Sched.Now()}
		return t
	}
	return &Trace{SentAt: n.Sched.Now(), Events: make([]TraceEvent, 0, n.TraceEventCap)}
}

// step runs the flight's packet through the node it has arrived at. It is
// scheduled via f.run for every hop.
func (f *flight) step() {
	if f.undecoded {
		f.undecoded = false
		if f.dir == Sending && !f.pooled {
			f.t.record(f.net.Sched.Now(), f.node.ID, "send", "")
		}
		if err := f.tip.DecodeReuse(f.data); err != nil {
			f.net.dropFlight(f, f.node.ID, "malformed")
			return
		}
	}
	f.node.process(f)
}

// Send injects a packet at node src. The returned Trace fills in as the
// simulation runs; inspect it after the scheduler drains.
func (n *Network) Send(src topology.NodeID, data []byte) *Trace {
	return n.launch(src, Sending, data, false, false)
}

// Inject sends a packet at src fire-and-forget: the bytes are copied
// into a flight-owned buffer (the caller's slice may be reused
// immediately) and the Trace is drawn from and returned to a pool when
// the packet terminates. Scale scenarios injecting 10^7 packets use it
// to keep steady-state traffic free of per-packet allocation.
func (n *Network) Inject(src topology.NodeID, data []byte) {
	n.launch(src, Sending, data, true, true)
}

// InjectArrival presents raw wire bytes to node id exactly as a transit
// arrival: the node decodes them, runs its middlebox chain, and then
// delivers, forwards, or drops — the same decision sequence a live UDP
// engine makes for a datagram hitting that node's socket. This is the
// differential-twin seam: internal/wire feeds identical bytes to its
// dataplane and to InjectArrival and asserts the decision logs match.
//
// As with Send, the bytes are decoded before any processing, so
// malformed input terminates with a "malformed" drop at id — mirroring
// the wire engine's decode rejections. Unlike Send, the node treats the
// packet as a transit arrival: no "send" trace event, and the TTL is
// decremented when it forwards. The bytes are copied; the caller's slice
// may be reused immediately. The returned Trace fills in as the
// scheduler runs.
func (n *Network) InjectArrival(id topology.NodeID, data []byte) *Trace {
	return n.launch(id, Forwarding, data, true, false)
}

// launch starts a packet at node id now, on a fresh flight whose first
// step decodes the bytes. copyData copies them into the flight's own
// buffer so the caller's slice may be reused at once; pooled draws the
// Trace from the trace pool and returns it there when the packet
// terminates, so the caller must not keep it.
func (n *Network) launch(id topology.NodeID, dir Direction, data []byte, copyData, pooled bool) *Trace {
	f := n.newFlight()
	if pooled {
		f.t = n.newTrace()
	} else {
		f.t = &Trace{SentAt: n.Sched.Now(), Events: make([]TraceEvent, 0, n.TraceEventCap)}
	}
	f.pooled = pooled
	f.data = data
	if copyData {
		f.buf = append(f.buf[:0], data...)
		f.data = f.buf
	}
	f.node = n.Node(id)
	f.dir = dir
	f.hops = 0
	f.undecoded = true
	if n.obs != nil {
		n.obs.sends.Inc()
	}
	if n.tracer.Enabled() {
		// Arrivals enter the network without an originating Send; the
		// "send" event keeps packet conservation accountable for them
		// too (every termination stems from exactly one send, dup, or
		// arrival).
		n.tracer.Emit(obs.Event{Time: int64(n.Sched.Now()), Scope: "netsim", Kind: "send", Node: int64(id)})
	}
	if n.keyed {
		n.Sched.AtKeyed(n.Sched.Now(), n.nextKey(id), f.run)
	} else {
		n.Sched.After(0, f.run)
	}
	return f.t
}

// AtNode schedules a user callback (typically a traffic generator's next
// send) at time t, ordered by an event key allocated from node v. In
// keyed (sharded) mode this is what makes generator callbacks interleave
// with packet arrivals identically at every shard count; unkeyed
// networks fall back to plain At.
func (n *Network) AtNode(t sim.Time, v topology.NodeID, fn func()) {
	if n.keyed {
		n.Sched.AtKeyed(t, n.nextKey(v), fn)
	} else {
		n.Sched.At(t, fn)
	}
}

func (n *Network) drop(t *Trace, node topology.NodeID, reason string, quiet bool) {
	n.Dropped++
	n.Stats.Inc(n.dropKeys.Key(reason))
	if n.obs != nil {
		n.obs.drops.Inc()
		n.obs.dropCounter(reason).Inc()
	}
	if n.tracer.Enabled() {
		n.tracer.Emit(obs.Event{Time: int64(n.Sched.Now()), Scope: "netsim", Kind: "drop", Node: int64(node), Detail: reason})
	}
	t.DropNode = node
	t.DropReason = reason
	t.DoneAt = n.Sched.Now()
	if !quiet {
		t.record(n.Sched.Now(), node, "drop", reason)
	}
}

// dropFlight terminates a flight with a drop and recycles its context.
func (n *Network) dropFlight(f *flight, node topology.NodeID, reason string) {
	n.drop(f.t, node, reason, f.pooled)
	n.releaseFlight(f)
}

// process runs a packet through a node: the forwarding kernel decides,
// then the simulator does its bookkeeping and delivers, transmits, or
// drops. The flight's decoded header is trusted (no per-hop decode); the
// kernel re-decodes it only after a middlebox transform.
func (nd *Node) process(f *flight) {
	n := nd.Net
	// A crashed node neither forwards, delivers, nor originates. The drop
	// is silent from the outside ("node-down" never names a responding
	// device): a dead router cannot send error reports, so diagnosis must
	// come from the upstream neighbor's "peer-down" detection instead.
	if n.nodeDown[nd.ID] {
		n.dropFlight(f, nd.ID, "node-down")
		return
	}
	dec := nd.Decide(f.data, &f.tip, f.dir, n.addrShift, n)
	if n.obs != nil {
		ran := len(nd.Middleboxes)
		if dec.Kind == Dropped {
			switch dec.Drop {
			case DropBlocked, DropLost:
				n.obs.mboxDrops.Inc()
				ran = dec.Mbox + 1
			case DropMalformedAfter:
				ran = dec.Mbox + 1
			}
		}
		n.obs.mboxRuns.Add(int64(ran))
	}
	switch dec.Kind {
	case Deliver:
		f.data = dec.Data
		n.Delivered++
		t := f.t
		t.Delivered = true
		t.DoneAt = n.Sched.Now()
		if !f.pooled {
			t.record(n.Sched.Now(), nd.ID, "deliver", "")
		}
		if n.obs != nil {
			n.obs.delivered.Inc()
			n.obs.latency.Observe(float64(t.DoneAt - t.SentAt))
			n.obs.hops.Observe(float64(f.hops))
		}
		if n.tracer.Enabled() {
			n.tracer.Emit(obs.Event{Time: int64(t.DoneAt), Scope: "netsim", Kind: "deliver", Node: int64(nd.ID), Value: float64(t.DoneAt - t.SentAt)})
		}
		if nd.Deliver != nil {
			nd.Deliver(nd, t, f.data)
		}
		n.releaseFlight(f)
	case Forward:
		f.data = dec.Data
		if f.dir != Sending {
			n.forwarded(f, nd.ID)
		}
		li := n.linkIndex(nd.ID, dec.Next)
		if li < 0 {
			n.dropFlight(f, nd.ID, "bad-next-hop")
			return
		}
		n.transmit(f, nd.ID, dec.Next, li)
	default:
		reason := dec.Reason
		switch dec.Drop {
		case DropNoRoute:
			if f.dir != Sending {
				// The hop was taken before routing failed.
				n.forwarded(f, nd.ID)
			}
		case DropBlocked:
			reason = n.blockedKeys.Key(nd.Middleboxes[dec.Mbox].Name())
		case DropMalformedAfter:
			reason = n.malformedKeys.Key(nd.Middleboxes[dec.Mbox].Name())
		}
		n.dropFlight(f, nd.ID, reason)
	}
}

// forwarded records a forwarding hop at node: the packet passed its TTL
// check there and was routed onward.
func (n *Network) forwarded(f *flight, node topology.NodeID) {
	if !f.pooled {
		f.t.record(n.Sched.Now(), node, "forward", "")
	}
	f.hops++
	if n.obs != nil {
		n.obs.forwarded.Inc()
	}
}

// adjacent and rewrote make the Network the forwarding kernel's
// substrate.
func (n *Network) adjacent(from, to topology.NodeID) bool { return n.linkIndex(from, to) >= 0 }

func (n *Network) rewrote(node topology.NodeID, m Middlebox) {
	if n.obs != nil {
		n.obs.rewrites.Inc()
	}
	if n.tracer.Enabled() {
		// A silent device's rewrite stays anonymous in the event
		// stream, mirroring the drop-report rule.
		detail := ""
		if !m.Silent() {
			detail = m.Name()
		}
		n.tracer.Emit(obs.Event{Time: int64(n.Sched.Now()), Scope: "netsim", Kind: "mbox-rewrite", Node: int64(node), Detail: detail})
	}
}

// transmit models link serialization + propagation + queueing. li is the
// Graph.Links index of the from→to adjacency (already validated).
func (n *Network) transmit(f *flight, from, to topology.NodeID, li int32) {
	if n.lt.failed[li] {
		n.dropFlight(f, from, "link-down")
		return
	}
	// A dead adjacency is detected by the live endpoint (keepalive loss),
	// so the drop is attributed to the upstream node — this is what lets
	// traceroute localize a crashed node to one hop.
	if n.nodeDown[to] {
		n.dropFlight(f, from, "peer-down")
		return
	}
	link := &n.Graph.Links[li]
	di := 2 * int(li)
	if link.A != from {
		di++
	}
	now := n.Sched.Now()
	busy := n.lt.busy[di]
	if busy < now {
		busy = now
	}
	txTime := sim.Time(float64(len(f.data)) / n.LinkRate * float64(sim.Second))
	// Tail-drop admission: the packet is accepted only if the backlog it
	// leaves behind (waiting + its own serialization) fits in MaxQueue,
	// so the bound cannot be exceeded. (An earlier revision compared the
	// pre-admission backlog, letting the queue overshoot by one packet.)
	if busy-now+txTime > n.MaxQueue {
		n.dropFlight(f, from, "queue-overflow")
		return
	}
	busy += txTime
	n.lt.busy[di] = busy
	if n.tracer.Enabled() {
		// Value is the backlog the admitted packet leaves behind (waiting
		// plus its own serialization) — the quantity MaxQueue bounds, so
		// an invariant checker can verify admission never exceeds it.
		n.tracer.Emit(obs.Event{Time: int64(now), Scope: "netsim", Kind: "enqueue", Node: int64(from), Value: float64(busy - now)})
	}
	arrive := busy + link.Latency + n.HopProcessing
	if n.impair != nil {
		if imp := n.impair[li]; imp != nil && !imp.apply(n, f, from, to, di&1, arrive, txTime, &arrive) {
			return
		}
	}
	n.schedArrival(f, from, to, arrive)
}

// schedArrival hands an in-flight packet to its next node: through the
// local scheduler, or through the sharded handoff when the next hop is
// owned by another shard. In keyed mode the event key is allocated from
// the sending node in the sender's own execution order, so same-time
// arrival ordering is identical at every shard count.
func (n *Network) schedArrival(f *flight, from, to topology.NodeID, arrive sim.Time) {
	if !n.keyed {
		f.node = n.Node(to)
		f.dir = Forwarding
		n.Sched.At(arrive, f.run)
		return
	}
	key := n.nextKey(from)
	if n.shardOf != nil && n.shardOf[to] != n.shardID {
		n.handoff(f, to, arrive, key)
		return
	}
	f.node = n.Node(to)
	f.dir = Forwarding
	n.Sched.AtKeyed(arrive, key, f.run)
}

// apply runs one impaired link's coin flips on a transiting packet.
// Returns false when the packet was consumed (corrupted and dropped);
// otherwise *out holds the possibly-jittered arrival time. dir is the
// directed-link bit (0 for A→B, 1 for B→A). On an unkeyed network a
// single RNG is owned by the impairment and advances once per
// probability configured, so outcomes are a pure function of the
// impairment seed and the order of transmissions over the link. Keyed
// (sharded) networks use a per-direction fork instead: each direction's
// transmissions are executed by the sender's shard in an order that is
// shard-count-independent, while the interleaving of the two directions
// is not — forking the stream per direction removes that dependence.
func (imp *LinkImpairment) apply(n *Network, f *flight, from, to topology.NodeID, dir int, arrive, txTime sim.Time, out *sim.Time) bool {
	rng := imp.rng
	if imp.dirRNG[dir] != nil {
		rng = imp.dirRNG[dir]
	}
	if imp.Corrupt > 0 && rng.Bool(imp.Corrupt) {
		// The corruption is detected by the receiver's checksum: the drop
		// is attributed to the downstream end, reason "corrupt".
		n.dropFlight(f, to, "corrupt")
		return false
	}
	if imp.Duplicate > 0 && rng.Bool(imp.Duplicate) {
		n.duplicate(f, from, to, arrive+txTime)
	}
	if imp.ReorderProb > 0 && rng.Bool(imp.ReorderProb) && imp.ReorderJitter > 0 {
		*out = arrive + sim.Time(rng.Float64()*float64(imp.ReorderJitter))
	}
	return true
}

// duplicate injects a copy of a transiting packet, arriving one extra
// serialization time behind the original. The copy gets its own flight
// and internal trace; its fate shows up in the usual delivery/drop
// counters (tagged by the "dup-injected" stat), not in the original
// packet's trace.
func (n *Network) duplicate(f *flight, from, to topology.NodeID, arrive sim.Time) {
	g := n.newFlight()
	g.t = &Trace{SentAt: f.t.SentAt, Events: make([]TraceEvent, 0, n.TraceEventCap)}
	g.data = append(g.buf[:0], f.data...)
	g.buf = g.data
	if err := g.tip.DecodeReuse(g.data); err != nil {
		n.releaseFlight(g)
		return
	}
	g.hops = f.hops
	n.Stats.Inc("dup-injected")
	if n.tracer.Enabled() {
		// Duplicates enter the network without a "send" event; the "dup"
		// event keeps packet conservation accountable: every termination
		// (deliver or drop) stems from exactly one send or dup.
		n.tracer.Emit(obs.Event{Time: int64(n.Sched.Now()), Scope: "netsim", Kind: "dup", Node: int64(to)})
	}
	n.schedArrival(g, from, to, arrive)
}

// DeliveryRatio returns delivered / (delivered + dropped), or 0 when no
// packets have terminated.
func (n *Network) DeliveryRatio() float64 {
	total := n.Delivered + n.Dropped
	if total == 0 {
		return 0
	}
	return float64(n.Delivered) / float64(total)
}
