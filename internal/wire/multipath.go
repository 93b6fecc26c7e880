package wire

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/routing/srcroute"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport/multipath"
)

// This file ports the multipath transport onto the wire engine: the
// identical demotion / probation / promotion state machine from
// internal/transport/multipath, driven by the Clock/Driver seam, with
// real UDP sockets underneath. Framing lives in that core, shared with
// the simulator: per-path segment headers and per-echo ACK templates
// built once through packet.Serialize and patched in place (the TIP
// checksum covers only the TIP header, so stamping TTP fields costs no
// checksum work). The substrate obligations live here — ring slots the
// core frames into, flushed through sendmmsg, and an ACK read loop
// feeding each recvmmsg batch through HandleAck under one acquisition
// of the wall clock's lock and flushing once — so the steady-state
// striping path allocates nothing per packet and issues one sendmmsg
// per ACK batch, not per ACK.

// MPPath describes one wire path: the source-route waypoints the TIP
// header will carry, the UDP address of the first hop, and an a-priori
// latency estimate for strategies that order candidates by it.
type MPPath struct {
	// Hops are the interior waypoint nodes (empty = direct path).
	Hops []topology.NodeID
	// Via is the UDP address the path's datagrams are sent to.
	Via netip.AddrPort
	// Latency is the a-priori path latency estimate.
	Latency sim.Time
}

// MultipathSenderConfig assembles a wire multipath sender.
type MultipathSenderConfig struct {
	// Transport tunes the shared state machine (multipath.Config).
	Transport multipath.Config
	// Strategy picks the path per segment; nil means the canonical
	// first strategy (shortest-k round-robin).
	Strategy multipath.Strategy
	// Src and Dst are the endpoint node IDs (they feed the TIP
	// addresses and the jitter-seed mix, exactly as in the simulator).
	Src, Dst topology.NodeID
	// Port is the receiver's TTP port.
	Port uint16
	// Paths are the wire paths to stripe across. Required.
	Paths []MPPath
	// Clock overrides the timer substrate; nil means a fresh WallClock.
	// The differential harness passes a SimClock to replay scripted ACK
	// streams in virtual time.
	Clock multipath.Clock
}

// MultipathSender stripes one reliable stream across wire paths. All
// state-machine entry points run under mu (the WallClock shares it for
// timer callbacks), so the shared core sees a serial world.
type MultipathSender struct {
	mu   sync.Locker
	wall *WallClock // nil when cfg.Clock overrides the substrate
	core *multipath.Sender
	cfg  MultipathSenderConfig
	// inBatch defers the end-of-entry-point flush while readLoop feeds
	// a whole recvmmsg batch of ACKs to the core.
	inBatch bool

	conn  *net.UDPConn
	tx    *txBatch
	rx    *rxBatch
	rxBuf [][]byte
	txq   []txEntry

	ring   [][]byte
	ringAt int

	emit func(path int, pkt []byte) // test capture; nil on real sockets

	done     chan struct{}
	doneOnce sync.Once
	closed   atomic.Bool
	wg       sync.WaitGroup
}

// NewMultipathSender opens a client socket and prepares the transfer.
// Call Start to begin, Wait to block for the outcome, Close to tear
// down. Segments are transmitted straight from payload, which must not
// be modified until the transfer ends.
func NewMultipathSender(cfg MultipathSenderConfig, payload []byte) (*MultipathSender, error) {
	s, err := newMultipathSender(cfg, payload, nil)
	if err != nil {
		return nil, err
	}
	wild := "0.0.0.0:0"
	if len(cfg.Paths) > 0 && cfg.Paths[0].Via.Addr().Is6() {
		wild = "[::]:0"
	}
	pc, err := net.ListenPacket("udp", wild)
	if err != nil {
		return nil, fmt.Errorf("wire: multipath socket: %w", err)
	}
	s.conn = pc.(*net.UDPConn)
	if s.tx, err = newTxBatch(s.conn, Batch); err != nil {
		s.conn.Close()
		return nil, err
	}
	bufs := make([][]byte, Batch)
	slab := make([]byte, Batch*slotSize)
	for i := range bufs {
		bufs[i] = slab[i*slotSize : (i+1)*slotSize]
	}
	s.rxBuf = bufs
	if s.rx, err = newRxBatch(s.conn, bufs); err != nil {
		s.conn.Close()
		return nil, err
	}
	return s, nil
}

// newMultipathSender builds the sender without I/O; emit, when set,
// captures outgoing datagrams instead (the differential harness and
// the fuzz target run the full template/patch path this way).
func newMultipathSender(cfg MultipathSenderConfig, payload []byte, emit func(int, []byte)) (*MultipathSender, error) {
	if len(cfg.Paths) == 0 {
		return nil, errors.New("wire: multipath sender needs at least one path")
	}
	if cfg.Strategy == nil {
		cfg.Strategy = multipath.Strategies()[0]
	}
	s := &MultipathSender{cfg: cfg, emit: emit, done: make(chan struct{})}
	clk := cfg.Clock
	if clk == nil {
		s.wall = NewWallClock()
		clk = s.wall
		s.mu = s.wall
	} else {
		s.mu = &sync.Mutex{}
	}
	cands := make([]srcroute.Candidate, len(cfg.Paths))
	for i, p := range cfg.Paths {
		route := make([]topology.NodeID, 0, len(p.Hops)+2)
		route = append(route, cfg.Src)
		route = append(route, p.Hops...)
		route = append(route, cfg.Dst)
		cands[i] = srcroute.Candidate{Path: route, Latency: p.Latency}
	}
	s.core = multipath.NewDriverSender(
		multipath.Driver{Clock: clk, Xmit: s.xmit, Flush: s.endEntry, OnDone: s.onDone},
		cfg.Strategy, cands, cfg.Src, cfg.Dst, cfg.Port, payload, cfg.Transport)
	if err := s.core.FrameErr(); err != nil {
		return nil, fmt.Errorf("wire: multipath template %w", err)
	}
	s.ring = make([][]byte, 2*Batch)
	slab := make([]byte, 2*Batch*slotSize)
	for i := range s.ring {
		s.ring[i] = slab[i*slotSize : (i+1)*slotSize : (i+1)*slotSize]
	}
	s.txq = make([]txEntry, 0, Batch)
	return s, nil
}

// xmit is the Driver transmission hook: frame the segment into a ring
// slot and queue (or capture) it. Zero allocations in the steady state.
func (s *MultipathSender) xmit(p *multipath.Path, seq uint32) error {
	pkt, err := s.core.Frame(s.ring[s.ringAt][:0], p, seq)
	if err != nil {
		return err
	}
	s.ringAt++
	if s.ringAt == len(s.ring) {
		s.ringAt = 0
	}
	if s.emit != nil {
		s.emit(p.Index, pkt)
		return nil
	}
	s.txq = append(s.txq, txEntry{addr: s.cfg.Paths[p.Index].Via, data: pkt})
	if len(s.txq) == cap(s.txq) {
		s.flush()
	}
	return nil
}

// endEntry is Driver.Flush, run at the end of every state-machine entry
// point: flush, unless readLoop is mid-batch and flushes once after it.
func (s *MultipathSender) endEntry() {
	if !s.inBatch {
		s.flush()
	}
}

// flush pushes the queued datagrams through sendmmsg. Runs at the end
// of every state-machine entry point and when the queue fills
// mid-burst.
func (s *MultipathSender) flush() {
	if s.conn == nil || len(s.txq) == 0 {
		s.txq = s.txq[:0]
		return
	}
	for off := 0; off < len(s.txq); {
		sent, errs := s.tx.send(s.txq[off:])
		if sent+errs == 0 {
			break
		}
		off += sent + errs
	}
	s.txq = s.txq[:0]
}

func (s *MultipathSender) onDone() { s.doneOnce.Do(func() { close(s.done) }) }

// Start launches the ACK read loop and begins the transfer.
func (s *MultipathSender) Start() {
	if s.conn != nil {
		s.wg.Add(1)
		go s.readLoop()
	}
	s.mu.Lock()
	s.core.Start()
	s.mu.Unlock()
}

func (s *MultipathSender) readLoop() {
	defer s.wg.Done()
	for {
		n, err := s.rx.recv()
		if err != nil {
			return // socket closed
		}
		s.mu.Lock()
		s.inBatch = true
		for i := 0; i < n; i++ {
			s.core.HandleAck(s.rxBuf[i][:s.rx.length(i)])
		}
		s.inBatch = false
		s.flush()
		s.mu.Unlock()
	}
}

// HandleAck feeds one ACK datagram through the state machine under the
// sender lock — the harness ingress (the socket read loop uses the same
// path).
func (s *MultipathSender) HandleAck(data []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.HandleAck(data)
}

// SetTrace installs the decision-log hook on the shared core. Install
// before Start.
func (s *MultipathSender) SetTrace(fn func(string)) { s.core.SetTrace(fn) }

// AttachObs binds the core's transfer and per-path counters (the
// multipath.* names) to a registry. Attach before Start; the counters
// mutate only under the sender lock.
func (s *MultipathSender) AttachObs(reg *obs.Registry) { s.core.AttachObs(reg) }

// Wait blocks until the transfer completes or fails, or the timeout
// elapses (false).
func (s *MultipathSender) Wait(timeout time.Duration) bool {
	select {
	case <-s.done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Stats snapshots the transfer summary.
func (s *MultipathSender) Stats() multipath.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Stats()
}

// Paths snapshots every path's state.
func (s *MultipathSender) Paths() []multipath.Path {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Paths()
}

// Close tears down the socket, waits for the read loop, cancels the
// transfer's timers and stops the wall clock, so an unfinished transfer
// sends nothing more once Close returns.
func (s *MultipathSender) Close() {
	if s.closed.Swap(true) {
		return
	}
	if s.conn != nil {
		s.conn.Close()
	}
	s.wg.Wait()
	s.mu.Lock()
	s.core.Stop()
	s.mu.Unlock()
	if s.wall != nil {
		s.wall.Stop()
	}
	s.onDone()
}

// MultipathReceiver reassembles a striped stream inside the wire
// engine: install its Deliver method as Config.Deliver and every
// accepted data segment is answered with a cumulative ACK that the
// core frames from its per-echo template into a ring slot, handed back
// to the worker's transmit batch. The lock serializes workers; the
// ring must therefore hold at least workers×batch slots so a slot is
// not reused before every worker's current batch has flushed. The
// core streams the in-order bytes into a running SHA-256 as they
// complete and keeps none of them, so memory stays bounded by the
// out-of-order buffer however long the stream runs.
type MultipathReceiver struct {
	mu   sync.Mutex
	core *multipath.Receiver
	hash hash.Hash // the core's Out

	ring   [][]byte
	ringAt int
}

// mpAckSlot is the ring slot size: a TIP header with the longest
// source route an ACK can carry plus the TTP header fits comfortably.
const mpAckSlot = 128

// NewMultipathReceiver builds a receiver for node's port with slots
// ACK ring entries (≥ the engine's workers×batch; default 256).
func NewMultipathReceiver(node topology.NodeID, port uint16, slots int) *MultipathReceiver {
	if slots <= 0 {
		slots = 256
	}
	r := &MultipathReceiver{
		core: multipath.NewReceiverCore(node, port),
		hash: sha256.New(),
		ring: make([][]byte, slots),
	}
	r.core.Out = r.hash
	slab := make([]byte, slots*mpAckSlot)
	for i := range r.ring {
		r.ring[i] = slab[i*mpAckSlot : (i+1)*mpAckSlot : (i+1)*mpAckSlot]
	}
	return r
}

// Deliver is the engine hook (Config.Deliver): ingest a delivered
// datagram, reply with an ACK when it is a data segment for our port,
// nil otherwise. The returned slice stays valid until len(ring) further
// replies have been built.
func (r *MultipathReceiver) Deliver(data []byte, from netip.AddrPort) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	ack, _ := r.core.Receive(r.ring[r.ringAt][:0], data)
	if ack != nil {
		r.ringAt++
		if r.ringAt == len(r.ring) {
			r.ringAt = 0
		}
	}
	return ack
}

// MPRecvSummary is a receiver snapshot for stats output.
type MPRecvSummary struct {
	// Bytes is the reassembled in-order stream length; SHA256 hashes
	// the stream (the smoke test's byte-exactness check).
	Bytes  int
	SHA256 [32]byte
	// Acks counts acknowledgments built; Dups counts redundant data
	// segments.
	Acks uint64
	Dups int
	// PathSegments counts accepted segments by on-wire path ID.
	PathSegments map[int]int
}

// Summary snapshots the receiver.
func (r *MultipathReceiver) Summary() MPRecvSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	per := make(map[int]int, len(r.core.PathSegments))
	for k, v := range r.core.PathSegments {
		per[k] = v
	}
	sum := MPRecvSummary{
		Bytes:        r.core.Bytes,
		Acks:         uint64(r.core.Acks),
		Dups:         r.core.Dups,
		PathSegments: per,
	}
	r.hash.Sum(sum.SHA256[:0])
	return sum
}

// PublishObs copies the receiver's final counters into a registry so
// they ride the standard obs snapshot schema next to the sender's
// multipath.* counters. Call at shutdown (it takes the lock once).
func (r *MultipathReceiver) PublishObs(reg *obs.Registry) {
	sum := r.Summary()
	reg.Counter("wiremp.recv.bytes").Add(int64(sum.Bytes))
	reg.Counter("wiremp.recv.acks").Add(int64(sum.Acks))
	reg.Counter("wiremp.recv.dups").Add(int64(sum.Dups))
	for id, n := range sum.PathSegments {
		reg.Counter(fmt.Sprintf("wiremp.recv.path%d.segments", id)).Add(int64(n))
	}
}

// PathImpairment is a middlebox that, while enabled, silently drops
// data segments whose on-wire path echo (TTP Window) matches PathID —
// the smoke test's mid-run impairment toggle. It is stateless apart
// from the atomic flag, so one instance may be shared across every
// worker's dataplane chain; when disabled it costs one atomic load per
// packet.
type PathImpairment struct {
	// PathID is the 1-based on-wire path label to kill.
	PathID int
	// Port restricts the impairment to one TTP destination port
	// (0 = any).
	Port uint16

	on      atomic.Bool
	dropped atomic.Uint64
}

// SetEnabled toggles the impairment.
func (p *PathImpairment) SetEnabled(v bool) { p.on.Store(v) }

// Enabled reports the toggle state.
func (p *PathImpairment) Enabled() bool { return p.on.Load() }

// Dropped counts segments killed so far.
func (p *PathImpairment) Dropped() uint64 { return p.dropped.Load() }

// Name implements netsim.Middlebox.
func (p *PathImpairment) Name() string { return "path-impair" }

// Silent implements netsim.Middlebox: the impairment models a path
// fault, not a policy, so it does not reveal itself in drop reports.
func (p *PathImpairment) Silent() bool { return true }

// Process implements netsim.Middlebox.
func (p *PathImpairment) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	if !p.on.Load() {
		return nil, netsim.Accept
	}
	var tip packet.TIP
	if err := tip.DecodeReuse(data); err != nil || tip.Proto != packet.LayerTypeTTP {
		return nil, netsim.Accept
	}
	var ttp packet.TTP
	if err := ttp.DecodeFrom(tip.LayerPayload()); err != nil {
		return nil, netsim.Accept
	}
	if ttp.Flags&packet.FlagACK != 0 || int(ttp.Window) != p.PathID {
		return nil, netsim.Accept
	}
	if p.Port != 0 && ttp.DstPort != p.Port {
		return nil, netsim.Accept
	}
	p.dropped.Add(1)
	return nil, netsim.Drop
}
