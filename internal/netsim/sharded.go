package netsim

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
)

// This file is the sharded simulation core: one logical simulation
// partitioned across K shard networks, each with its own scheduler and
// holding only the nodes it runs, synchronized by conservative lookahead
// on the minimum cross-shard link latency.
//
// # Why the output is byte-identical at any shard count
//
// Every event in a sharded run carries a deterministic ordering key
// allocated from its origin node in the origin's own execution order
// (see nextKey), and each shard's heap dispatches by (time,
// key). The simulation state is node-partitioned: a node's middleboxes,
// counters, key sequence and outbound directed-link backlogs exist only
// on the shard that owns the node. Fault state (link failures, node
// crashes, impairments) is replicated — FaultAt schedules the same
// mutation on every shard at the same (time, key) — so reads of remote
// fault flags (the "peer-down" check) see identical values everywhere.
// Same-time events on different shards therefore touch disjoint state
// and commute; the only ordering that matters is the per-shard (time,
// key) order, and the keys are a pure function of the simulation, not
// of the partition. Running the K schedulers in lockstep (a global
// (time, key) merge) or in parallel epochs produces the same state.
//
// # Conservative lookahead
//
// A packet crossing shards cannot arrive earlier than the smallest
// cross-shard link latency W after it was sent. The parallel driver
// therefore runs epochs of width W: every shard executes its local
// events in [T, T+W) concurrently, buffering cross-shard arrivals in
// per-sender outboxes. Each shard's goroutine schedules the arrivals
// addressed to it at the start of the next epoch, before it runs its
// own events, so nothing is inserted serially at the barrier. Any
// arrival produced in the epoch lands at time >= T+W — never inside the
// epoch that produced it — and the next epoch's start T' counts the
// earliest buffered arrival, so no shard ever receives an event in its
// past.
//
// # Flights go home
//
// A flight is recycled by the network that made it. When its packet ends
// on another shard, that shard hands it back: at once under the lockstep
// driver, which runs one shard at a time, and in a parallel epoch by
// chaining it, with no lock and no allocation, on a list per (epoch
// parity, home shard) that the home shard splices onto its free list
// when it takes the next epoch's arrivals. Were flights kept where their
// packets end, a shard that launches more packets than it ends would
// allocate flights while another hoarded them.

// arrival is one cross-shard packet handoff, buffered in an outbox
// until the epoch after the one that produced it.
type arrival struct {
	f      *flight
	to     topology.NodeID
	arrive sim.Time
	key    uint64
}

// Shard is one partition of a sharded simulation: its own scheduler and a
// network that holds only the nodes the shard owns. Its fault tables
// still cover the whole topology.
type Shard struct {
	ID    int32
	Sched *sim.Scheduler
	Net   *Network
	// out buffers cross-shard arrivals during parallel epochs, in two
	// sets by epoch parity, each indexed by destination shard. In an
	// epoch this shard's goroutine appends to the set of the epoch's
	// parity, while each destination's goroutine empties its box in the
	// other set, the one the previous epoch filled.
	out [2][][]arrival
	// back chains the flights that ended on this shard during parallel
	// epochs but another shard made, in two sets by epoch parity as out
	// is, each indexed by the shard that made them.
	back [2][]flightChain
	// early is the earliest arrival time buffered in the current epoch
	// (noArrival if none); written only by this shard's goroutine.
	early sim.Time
}

// flightChain is a list of flights linked through flight.nextFree.
type flightChain struct{ head, tail *flight }

// noArrival is Shard.early when a shard has buffered nothing.
const noArrival = sim.Time(1<<63 - 1)

// Sharded is a simulation partitioned across K shards.
type Sharded struct {
	Part   *topology.Partition
	Shards []*Shard
	// Window is the conservative lookahead (minimum cross-shard link
	// latency); zero when the partition has no cross-shard links (the
	// shards are then fully independent).
	Window sim.Time
	// Parallel selects the epoch-barrier driver (one goroutine per
	// shard per epoch) instead of the sequential lockstep driver. Both
	// produce identical results; lockstep additionally yields a single
	// globally time-ordered event stream, which is what the invariant
	// checker consumes.
	Parallel bool

	hasCross   bool
	inParallel bool
	parity     int // the outbox set the running epoch fills
	faultSeq   uint32
}

// faultKeyFlag marks replicated fault events: it is above every
// arrival key (origin node < 2^31 keeps arrival keys below 2^63), so
// faults at time t deterministically run after all arrivals at t.
const faultKeyFlag = uint64(1) << 63

// NewSharded partitions g across k shards, balanced by node degree
// (topology.PartitionBalanced), and builds one keyed network per shard.
// The partition decides only which shard runs a node's events, so it
// moves wall-clock time, never output. Callers wire
// routes/middleboxes/delivery on the owning shard's network (see Owner)
// before sending traffic.
func NewSharded(g *topology.Graph, k int) *Sharded {
	part := topology.PartitionBalanced(g, k)
	s := &Sharded{Part: part}
	s.Window, s.hasCross = part.MinCrossLatency(g)
	s.Shards = make([]*Shard, part.K)
	for i := 0; i < part.K; i++ {
		sched := sim.NewScheduler()
		net := newNetwork(sched, g, part, int32(i))
		net.keyed = true
		sh := &Shard{ID: int32(i), Sched: sched, Net: net, early: noArrival}
		sh.out = [2][][]arrival{make([][]arrival, part.K), make([][]arrival, part.K)}
		sh.back = [2][]flightChain{make([]flightChain, part.K), make([]flightChain, part.K)}
		net.handoff = func(f *flight, to topology.NodeID, arrive sim.Time, key uint64) {
			d := s.Part.ShardOf(to)
			a := arrival{f: f, to: to, arrive: arrive, key: key}
			if !s.inParallel {
				s.insertArrival(s.Shards[d], a)
				return
			}
			box := &sh.out[s.parity][d]
			*box = append(*box, a)
			sh.early = min(sh.early, arrive)
		}
		net.handback = func(f *flight) {
			if !s.inParallel {
				f.home.recycle(f)
				return
			}
			c := &sh.back[s.parity][f.home.shard]
			if c.head == nil {
				c.tail = f
			}
			f.nextFree = c.head
			c.head = f
		}
		s.Shards[i] = sh
	}
	return s
}

// insertArrival moves a handed-off flight to its node on the destination
// shard and schedules it there. Insertion order across arrivals is
// irrelevant: the heap dispatches by (time, key) and keys are unique.
func (s *Sharded) insertArrival(dst *Shard, a arrival) {
	f := a.f
	f.node = dst.Net.Node(a.to)
	f.dir = Forwarding
	dst.Sched.AtKeyed(a.arrive, a.key, f.run)
}

// Owner returns the shard network owning node id; routes, middleboxes,
// and delivery handlers for id belong on it.
func (s *Sharded) Owner(id topology.NodeID) *Network {
	return s.Shards[s.Part.ShardOf(id)].Net
}

// Send injects a packet at src on its owning shard and returns the
// live trace (valid to read after the run drains).
func (s *Sharded) Send(src topology.NodeID, data []byte) *Trace {
	return s.Owner(src).Send(src, data)
}

// FaultAt schedules a fault mutation at time t on every shard: fn runs
// once per shard against that shard's network, so replicated fault
// state (failures, crashes, impairments) stays identical everywhere.
// All shards use the same flagged key, so the mutation is ordered after
// every packet arrival at time t on every shard, at every shard count.
func (s *Sharded) FaultAt(t sim.Time, fn func(n *Network)) {
	key := faultKeyFlag | uint64(s.faultSeq)
	s.faultSeq++
	for _, sh := range s.Shards {
		net := sh.Net
		sh.Sched.AtKeyed(t, key, func() { fn(net) })
	}
}

// Run drains the simulation: lockstep by default, epoch-parallel when
// Parallel is set.
func (s *Sharded) Run() { s.RunUntil(sim.Time(1<<62 - 1)) }

// RunUntil executes all events with timestamps <= deadline and advances
// every shard clock to deadline.
func (s *Sharded) RunUntil(deadline sim.Time) {
	if s.Parallel && len(s.Shards) > 1 && (!s.hasCross || s.Window > 0) {
		s.runParallel(deadline)
	} else {
		s.runLockstep(deadline)
	}
	for _, sh := range s.Shards {
		if sh.Sched.Now() < deadline && deadline < sim.Time(1<<62-1) {
			sh.Sched.RunUntil(deadline)
		}
	}
}

// runLockstep merges the K shard heaps into one global (time, key)
// dispatch order and executes events one at a time on the owning
// shard's scheduler. Ties across shards (replicated faults share (t,
// key)) break by shard ID; the copies mutate disjoint state, so the
// tie-break does not affect output.
func (s *Sharded) runLockstep(deadline sim.Time) {
	for {
		var best *Shard
		var bat sim.Time
		var bkey uint64
		for _, sh := range s.Shards {
			at, key, ok := sh.Sched.PeekNext()
			if !ok {
				continue
			}
			if best == nil || at < bat || (at == bat && key < bkey) {
				best, bat, bkey = sh, at, key
			}
		}
		if best == nil || bat > deadline {
			return
		}
		best.Sched.Step()
	}
}

// runParallel runs conservative-lookahead epochs: all shards execute
// [T, T+W) concurrently, each first scheduling the arrivals the previous
// epoch buffered for it. Before it returns, it schedules the last
// epoch's arrivals too, so that between calls every pending event is in
// a shard heap.
func (s *Sharded) runParallel(deadline sim.Time) {
	var wg sync.WaitGroup
	for {
		start, found := s.epochStart()
		if !found || start > deadline {
			break
		}
		// Epoch [start, end): no cross-shard links means one epoch
		// suffices (the shards never interact).
		end := deadline + 1
		if s.hasCross && start+s.Window < end {
			end = start + s.Window
		}
		filled := s.parity
		s.parity ^= 1
		s.inParallel = true
		wg.Add(len(s.Shards))
		for _, sh := range s.Shards {
			go func(sh *Shard) {
				defer wg.Done()
				s.receive(sh, filled)
				sh.Sched.RunUntil(end - 1)
			}(sh)
		}
		wg.Wait()
		s.inParallel = false
	}
	for _, sh := range s.Shards {
		s.receive(sh, s.parity)
	}
}

// epochStart returns the time of the earliest pending event on any
// shard, counting the arrivals buffered in the epoch just run, and
// resets every shard's buffered minimum for the next epoch. found is
// false when nothing is pending anywhere.
func (s *Sharded) epochStart() (start sim.Time, found bool) {
	start = noArrival
	for _, sh := range s.Shards {
		if at, _, ok := sh.Sched.PeekNext(); ok {
			start, found = min(start, at), true
		}
		if sh.early != noArrival {
			start, found = min(start, sh.early), true
			sh.early = noArrival
		}
	}
	return start, found
}

// receive schedules on dst the arrivals every shard buffered for it in
// outbox set p, splices the flights they handed back to dst in set p
// onto its free list, and empties those boxes and lists.
func (s *Sharded) receive(dst *Shard, p int) {
	for _, src := range s.Shards {
		box := src.out[p][dst.ID]
		for _, a := range box {
			s.insertArrival(dst, a)
		}
		src.out[p][dst.ID] = box[:0]
		if c := &src.back[p][dst.ID]; c.head != nil {
			c.tail.nextFree = dst.Net.freeFlights
			dst.Net.freeFlights = c.head
			*c = flightChain{}
		}
	}
}

// Delivered sums delivered packets across shards.
func (s *Sharded) Delivered() int {
	sum := 0
	for _, sh := range s.Shards {
		sum += sh.Net.Delivered
	}
	return sum
}

// Dropped sums dropped packets across shards.
func (s *Sharded) Dropped() int {
	sum := 0
	for _, sh := range s.Shards {
		sum += sh.Net.Dropped
	}
	return sum
}

// Stats merges the per-shard network counters into one map.
func (s *Sharded) Stats() sim.Counter {
	out := sim.Counter{}
	for _, sh := range s.Shards {
		for k, v := range sh.Net.Stats {
			out[k] += v
		}
	}
	return out
}

// Handoffs sums the packets handed from one shard to another, each
// counted by the shard that sent it. The count depends on the partition,
// never on the driver: lockstep and parallel runs hand off the same
// packets.
func (s *Sharded) Handoffs() int {
	sum := 0
	for _, sh := range s.Shards {
		sum += sh.Net.handoffs
	}
	return sum
}

// Processed sums events executed across shard schedulers.
func (s *Sharded) Processed() uint64 {
	var sum uint64
	for _, sh := range s.Shards {
		sum += sh.Sched.Processed
	}
	return sum
}

// AttachObs gives every shard its own registry (and optionally a tracer
// sink) and returns the per-shard registries. Merge them with
// MergedObs after the run; Registry.Merge is commutative, so the
// aggregate is shard-count-independent.
func (s *Sharded) AttachObs(mkTracer func(shard int32) *obs.Tracer) []*obs.Registry {
	regs := make([]*obs.Registry, len(s.Shards))
	for i, sh := range s.Shards {
		regs[i] = obs.NewRegistry()
		var tr *obs.Tracer
		if mkTracer != nil {
			tr = mkTracer(sh.ID)
		}
		sh.Net.AttachObs(regs[i], tr)
	}
	return regs
}

// MergedObs merges per-shard registries into one.
func MergedObs(regs []*obs.Registry) *obs.Registry {
	out := obs.NewRegistry()
	for _, r := range regs {
		out.Merge(r)
	}
	return out
}
