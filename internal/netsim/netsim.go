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
// Process) forces a re-decode. Link lookups read the Graph's frozen
// adjacency (topology.Adjacency) directly, and each hop re-schedules
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

	// keySeq is the node's per-origin event-key sequence (see nextKey).
	// out is the index in the network's backlog table of
	// the node's first row entry: the backlog toward the neighbour at
	// position p of the node's adjacency row is busy[out+p].
	keySeq uint32
	out    int32
}

// linkTable is the dense forwarding-plane view of the topology: the
// graph's frozen adjacency, the transmission backlog of each directed
// link out of a node the network runs, and per-link fault flags. It is
// built once from the Graph in New; the topology is fixed from then on.
type linkTable struct {
	adj  *topology.Adjacency // shared with the Graph and every shard
	busy []sim.Time          // by Node.out plus row position
	// flags holds each link's linkDown and linkImpaired bits, indexed by
	// link index. Every shard keeps a full copy (see Sharded).
	flags []uint8
}

// Link fault flags.
const (
	linkDown     uint8 = 1 << iota // the link is failed: transit drops "link-down"
	linkImpaired                   // the link has an entry in Network.impair
)

// Slot table entries below zero: IDs a network does not run.
const (
	notNode int32 = -1 // the topology has no such node
	remote  int32 = -2 // another shard of the group runs the node
)

// Network is the assembled simulator.
//
// A Network runs a set of nodes: every node of the topology, or, as a
// shard of a Sharded group, the nodes its partition assigns it. Their
// state lives in a flat arena ([]Node) indexed through the dense slot
// table, and the per-node state the forwarding path writes (the key
// counter, the first backlog entry) lives in the Node itself. The rest
// of the hot state follows the same struct-of-arrays discipline:
// transmit backlogs are sized by the run nodes' adjacency rows, while
// the fault state every node reads (link flags, node-down flags) covers
// the whole topology. Each is the only copy of that state.
type Network struct {
	Sched *sim.Scheduler
	Graph *topology.Graph
	// nodeArr is the arena of the nodes this network runs, in ascending ID
	// order, allocated once at construction, so node addresses are stable.
	// slot maps a NodeID to its arena index, or to notNode or remote.
	nodeArr []Node
	slot    []int32

	// LinkRate is bytes/second of every link (serialization delay).
	LinkRate float64
	// MaxQueue is the maximum per-link backlog (waiting plus in-service
	// transmission time) a newly admitted packet may leave behind it. A
	// packet is tail-dropped when admitting it would push the link's
	// backlog beyond MaxQueue, so the bound is never exceeded.
	MaxQueue sim.Time
	// HopProcessing is fixed per-hop processing latency.
	HopProcessing sim.Time
	// TraceEventCap pre-sizes the event slab of each Trace that Send and
	// InjectArrival return; traces longer than this grow by the usual
	// append doubling. Tune it to the expected path length (send + hops +
	// terminal) to keep steady-state forwarding allocation-free for
	// longer paths. Inject and duplicated packets record no events, so
	// their traces have no slab.
	TraceEventCap int

	lt linkTable
	// nodeDown flags crashed nodes, indexed by NodeID.
	nodeDown []bool
	// impair holds the installed packet impairments (corruption,
	// duplication, reordering) by link index. A link's linkImpaired flag
	// says whether it has one, so the healthy fast path reads no more than
	// the link's flags.
	impair map[int32]*LinkImpairment

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

	// handoff wires this network into a sharded group: it receives flights
	// whose next hop another shard runs. See Sharded. handoffs counts those
	// flights; only this shard's goroutine writes it. handback receives
	// the flights that end here but another shard's network made, to go
	// back to that network's free list. shard is the network's index in
	// its group.
	handoff  func(f *flight, to topology.NodeID, arrive sim.Time, key uint64)
	handoffs int
	handback func(f *flight)
	shard    int32

	// freeFlights heads the chain of this network's recycled flights,
	// linked through flight.nextFree.
	freeFlights *flight

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

// New builds a Network that runs every node of a topology. All nodes
// start with no routes, no middleboxes, and no delivery handler. The
// Network freezes g and sizes its dense tables from it once, here: g must
// not gain nodes or links afterwards.
func New(sched *sim.Scheduler, g *topology.Graph) *Network { return newNetwork(sched, g, nil, 0) }

// newNetwork is New for the nodes part assigns to shard, or for every
// node when part is nil. The arena and the backlog table hold only those
// nodes; the fault tables cover the whole topology.
func newNetwork(sched *sim.Scheduler, g *topology.Graph, part *topology.Partition, shard int32) *Network {
	n := &Network{
		Sched:         sched,
		Graph:         g,
		LinkRate:      1e8, // 800 Mbit/s
		MaxQueue:      100 * sim.Millisecond,
		HopProcessing: 10 * sim.Microsecond,
		TraceEventCap: 8,
		addrShift:     ProviderShift,
		shard:         shard,
		Stats:         sim.Counter{},
		dropKeys:      sim.NewKeyCache("drop:"),
		blockedKeys:   sim.NewKeyCache("blocked:"),
		malformedKeys: sim.NewKeyCache("malformed-after:"),
	}
	// Flat node arena in ascending ID order; the slot and node-down tables
	// are indexed by NodeID, up to the largest. Freezing the graph here,
	// before any shard goroutine starts, leaves the shards only reads of
	// it.
	adj := g.Freeze()
	ids := g.NodeIDs()
	run := len(ids)
	if part != nil {
		run = part.Counts[shard]
	}
	n.nodeArr = make([]Node, 0, run)
	n.slot = make([]int32, adj.Bound())
	for id := range n.slot {
		n.slot[id] = notNode
	}
	entries := 0
	for _, id := range ids {
		if part != nil && part.ShardOf(id) != shard {
			n.slot[id] = remote
			continue
		}
		n.slot[id] = int32(len(n.nodeArr))
		n.nodeArr = append(n.nodeArr, Node{Forwarder: Forwarder{ID: id}, Net: n, out: int32(entries)})
		nbr, _ := adj.Row(id)
		entries += len(nbr)
	}
	n.lt = linkTable{
		adj:   adj,
		busy:  make([]sim.Time, entries),
		flags: make([]uint8, len(g.Links)),
	}
	n.nodeDown = make([]bool, adj.Bound())
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
// originating at node nd: (origin node, per-origin sequence). Keys are
// unique per origin and allocated in the origin's own execution order,
// so they are identical at any shard count.
func nextKey(nd *Node) uint64 {
	k := uint64(nd.ID)<<32 | uint64(nd.keySeq)
	nd.keySeq++
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

// linkIndex returns the Graph.Links index of the from→to adjacency, or
// -1 when the nodes are not adjacent.
func (n *Network) linkIndex(from, to topology.NodeID) int32 {
	_, li := n.lt.adj.LinkIndex(from, to)
	return li
}

// Node returns the node for id. It panics on an ID the topology lacks and
// on a node another shard runs (wiring bugs: a shard's copy of a node it
// does not run would never execute).
func (n *Network) Node(id topology.NodeID) *Node {
	if int(id) < len(n.slot) {
		switch s := n.slot[id]; {
		case s >= 0:
			return &n.nodeArr[s]
		case s == remote:
			panic(fmt.Sprintf("netsim: node %d runs on another shard", id))
		}
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
// through the free list of home, the network that made it, so per-hop
// scheduling allocates nothing. In a sharded group the packet may end on
// another shard, which hands the flight back (see Sharded); the network
// a flight is at is always node.Net.
type flight struct {
	home *Network
	t    *Trace
	data []byte
	tip  packet.TIP
	node *Node
	dir  Direction
	// quiet marks a flight whose trace is own: it records no events, only
	// the packet's fate, which a DeliverFunc may read during delivery.
	quiet bool
	// undecoded marks a launched flight whose bytes the first step must
	// decode (tip is stale until then).
	undecoded bool
	// hops counts forward hops taken, for the obs hop histogram. It
	// shares a word with the flags before it: a flight is 248 bytes, in
	// the 256-byte size class.
	hops int32
	run  func() // method value for f.step, created once per flight
	// nextFree links a recycled flight to the next on its free list.
	nextFree *flight

	// buf is the flight-owned byte buffer used by Inject: the packet is
	// copied into it so the caller's buffer can be reused immediately,
	// and it is retained across recycles so steady-state injection does
	// not allocate.
	buf []byte
	// own is the trace of a fire-and-forget flight (Inject, and the copies
	// duplicate makes), which no caller keeps: t points at it while the
	// packet is in flight, so such a packet allocates no Trace. It comes
	// last, after every field a hop reads.
	own Trace
}

// newFlight returns a recycled or fresh flight context, the last
// recycled first.
func (n *Network) newFlight() *flight {
	if f := n.freeFlights; f != nil {
		n.freeFlights = f.nextFree
		return f
	}
	f := &flight{home: n}
	f.run = f.step
	return f
}

// releaseFlight recycles a terminated flight: onto this network's free
// list if it made the flight, or else through handback toward the shard
// that did. The decoded TIP keeps its option structs so DecodeReuse on
// the next tenant is allocation-free; flight-owned buffers (Inject) are
// likewise retained.
func (n *Network) releaseFlight(f *flight) {
	f.t = nil
	f.quiet = false
	f.data = nil
	f.node = nil
	if f.home != n {
		n.handback(f)
		return
	}
	n.recycle(f)
}

// recycle pushes f onto the network's free list.
func (n *Network) recycle(f *flight) {
	f.nextFree = n.freeFlights
	n.freeFlights = f
}

// quietTrace points f's trace at its own, reset for a packet sent at
// sentAt, and marks the flight quiet.
func (f *flight) quietTrace(sentAt sim.Time) {
	f.own = Trace{SentAt: sentAt}
	f.t = &f.own
	f.quiet = true
}

// step runs the flight's packet through the node it has arrived at. It is
// scheduled via f.run for every hop.
func (f *flight) step() {
	if f.undecoded {
		f.undecoded = false
		n := f.node.Net
		if f.dir == Sending && !f.quiet {
			f.t.record(n.Sched.Now(), f.node.ID, "send", "")
		}
		if err := f.tip.DecodeReuse(f.data); err != nil {
			n.dropFlight(f, f.node.ID, "malformed")
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
// immediately), and the packet's Trace is the flight's own and records
// no events: only its fate, for the DeliverFunc that receives it. Scale
// scenarios injecting 10^7 packets use it to keep steady-state traffic
// free of per-packet allocation.
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
// buffer so the caller's slice may be reused at once; quiet gives the
// packet the flight's own trace, which records no events and is reused
// with the flight, so the caller must not keep it.
func (n *Network) launch(id topology.NodeID, dir Direction, data []byte, copyData, quiet bool) *Trace {
	f := n.newFlight()
	if quiet {
		f.quietTrace(n.Sched.Now())
	} else {
		f.t = &Trace{SentAt: n.Sched.Now(), Events: make([]TraceEvent, 0, n.TraceEventCap)}
	}
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
		n.Sched.AtKeyed(n.Sched.Now(), nextKey(f.node), f.run)
	} else {
		n.Sched.After(0, f.run)
	}
	return f.t
}

// AtNode schedules a user callback (typically a traffic generator's next
// send) at time t, ordered by an event key allocated from node v. In
// keyed (sharded) mode this is what makes generator callbacks interleave
// with packet arrivals identically at every shard count, and v must be a
// node this network runs; unkeyed networks fall back to plain At.
func (n *Network) AtNode(t sim.Time, v topology.NodeID, fn func()) {
	if n.keyed {
		n.Sched.AtKeyed(t, nextKey(n.Node(v)), fn)
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
	n.drop(f.t, node, reason, f.quiet)
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
		if !f.quiet {
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
		pos, li := n.lt.adj.LinkIndex(nd.ID, dec.Next)
		if li < 0 {
			n.dropFlight(f, nd.ID, "bad-next-hop")
			return
		}
		n.transmit(f, nd, dec.Next, pos, li)
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
	if !f.quiet {
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

// transmit models link serialization + propagation + queueing. pos and li
// are the position of to in from's row and the Graph.Links index of the
// from→to adjacency (already validated).
func (n *Network) transmit(f *flight, from *Node, to topology.NodeID, pos int, li int32) {
	flags := n.lt.flags[li]
	if flags&linkDown != 0 {
		n.dropFlight(f, from.ID, "link-down")
		return
	}
	// A dead adjacency is detected by the live endpoint (keepalive loss),
	// so the drop is attributed to the upstream node — this is what lets
	// a trace localize a crashed node to one hop.
	if n.nodeDown[to] {
		n.dropFlight(f, from.ID, "peer-down")
		return
	}
	link := &n.Graph.Links[li]
	bi := int(from.out) + pos
	now := n.Sched.Now()
	busy := n.lt.busy[bi]
	if busy < now {
		busy = now
	}
	txTime := sim.Time(float64(len(f.data)) / n.LinkRate * float64(sim.Second))
	// Tail-drop admission: the packet is accepted only if the backlog it
	// leaves behind (waiting + its own serialization) fits in MaxQueue,
	// so the bound cannot be exceeded. (An earlier revision compared the
	// pre-admission backlog, letting the queue overshoot by one packet.)
	if busy-now+txTime > n.MaxQueue {
		n.dropFlight(f, from.ID, "queue-overflow")
		return
	}
	busy += txTime
	n.lt.busy[bi] = busy
	if n.tracer.Enabled() {
		// Value is the backlog the admitted packet leaves behind (waiting
		// plus its own serialization) — the quantity MaxQueue bounds, so
		// an invariant checker can verify admission never exceeds it.
		n.tracer.Emit(obs.Event{Time: int64(now), Scope: "netsim", Kind: "enqueue", Node: int64(from.ID), Value: float64(busy - now)})
	}
	arrive := busy + link.Latency + n.HopProcessing
	if flags&linkImpaired != 0 {
		dir := 0
		if link.A != from.ID {
			dir = 1
		}
		if !n.impair[li].apply(n, f, from, to, dir, arrive, txTime, &arrive) {
			return
		}
	}
	n.schedArrival(f, from, to, arrive)
}

// schedArrival hands an in-flight packet to its next node: through the
// local scheduler, or through the sharded handoff when another shard runs
// the next hop. In keyed mode the event key is allocated from the sending
// node in the sender's own execution order, so same-time arrival ordering
// is identical at every shard count. to is adjacent to from, so it is a
// node of the topology and its slot is an arena index or remote.
func (n *Network) schedArrival(f *flight, from *Node, to topology.NodeID, arrive sim.Time) {
	if !n.keyed {
		f.node = &n.nodeArr[n.slot[to]]
		f.dir = Forwarding
		n.Sched.At(arrive, f.run)
		return
	}
	key := nextKey(from)
	s := n.slot[to]
	if s < 0 {
		n.handoffs++
		n.handoff(f, to, arrive, key)
		return
	}
	f.node = &n.nodeArr[s]
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
func (imp *LinkImpairment) apply(n *Network, f *flight, from *Node, to topology.NodeID, dir int, arrive, txTime sim.Time, out *sim.Time) bool {
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
// serialization time behind the original. The copy gets its own quiet
// flight, as an Inject does; its fate shows up in the usual
// delivery/drop counters (tagged by the "dup-injected" stat), not in the
// original packet's trace.
func (n *Network) duplicate(f *flight, from *Node, to topology.NodeID, arrive sim.Time) {
	g := n.newFlight()
	g.quietTrace(f.t.SentAt)
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
