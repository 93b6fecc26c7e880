// Package multipath implements reliable transport over one or more
// paths, with per-path failure detection and failover. Striped across k
// user-discovered source routes, it is the data-plane half of the
// paper's "design for choice" prescription (§IV-B, §V-A4): the sender
// holds several link-disjoint routes at once and reacts to each path's
// fate independently — a link flap, a provider crash, or a partition
// kills at most the paths that cross it, and the stream migrates to the
// survivors within a few retransmission timeouts instead of stalling for
// the fault's duration. With the Routed strategy it is the single-path
// end-to-end ARQ of the end-to-end arguments (§VI-A): one path that
// follows whatever route the network's routing tussle produces, and
// retransmits with backoff until it gives up. internal/transport holds
// the hop-by-hop link models that E21 weighs against it.
//
// Per-path machinery, mirroring a real multipath transport in
// miniature:
//
//   - RTO: per-path retransmission timeouts seeded from measured SRTT
//     (Jacobson-style SRTT/RTTVAR from unambiguous ACK samples, Karn's
//     rule on retransmitted segments), exponential backoff with seeded
//     jitter;
//   - loss: an EWMA over timeout/delivery outcomes per path, fed to
//     loss-adaptive scheduling;
//   - demotion: consecutive timeouts demote a path to probation, where
//     it carries no new data — unless it is the sender's only path,
//     which has nowhere to move its traffic and keeps retransmitting;
//   - probation probing: a demoted path is probed with duplicate
//     copies of the lowest unacknowledged segment (harmless to the
//     receiver, which deduplicates) until it answers or exhausts its
//     probe budget and is declared dead;
//   - promotion: an ACK echoing a probation path's ID proves the path
//     delivers again and returns it to the active set.
//
// ACKs echo the path ID that carried the triggering data segment in the
// (otherwise unused) TTP Window field, and the receiver source-routes
// each ACK back along the reverse of the arrival route, so both
// directions of a path are exercised and credited together.
//
// The state machine is substrate-independent: it runs against the
// Clock/Driver seam in clock.go, so the identical demotion / probation /
// promotion code drives both the simulator (NewSender, on the event
// scheduler) and real UDP sockets (internal/wire's MultipathSender, on
// the wall clock). All randomness (RTO jitter) derives from the
// configured seed through one RNG stream per path — never from draw
// order across paths — so the same seed reproduces the same decisions
// on both substrates. Framing is shared too: Sender.Frame and
// Receiver.Receive build every segment and ACK from headers serialized
// once, so both substrates put the same bytes on the wire.
package multipath

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/routing/srcroute"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Config tunes a multipath transfer.
type Config struct {
	// Paths is the number of concurrent paths to request from the
	// strategy (strategies may select fewer, or more for
	// disjointness-max).
	Paths int
	// MaxPathLen bounds discovered paths in nodes.
	MaxPathLen int
	// Window is the transfer-wide sending window in segments.
	Window int
	// SegmentSize is payload bytes per segment.
	SegmentSize int
	// RTO is the floor retransmission timeout; per-path timeouts use
	// max(RTO, SRTT+4·RTTVAR) once a path has RTT samples.
	RTO sim.Time
	// MaxRetries gives up on the transfer after this many
	// retransmissions of a single segment.
	MaxRetries int
	// Backoff multiplies the timeout per successive retransmission of a
	// segment; MaxRTO caps it; JitterFrac stretches each timeout by a
	// seeded uniform factor in [1, 1+JitterFrac).
	Backoff    float64
	MaxRTO     sim.Time
	JitterFrac float64
	// DemoteAfter is the consecutive-timeout count that demotes a path
	// to probation.
	DemoteAfter int
	// ProbeEvery is the probation probe interval; MaxProbes unanswered
	// probes declare the path dead.
	ProbeEvery sim.Time
	MaxProbes  int
	// Seed drives the jitter RNGs (mixed with the endpoints, so
	// concurrent transfers jitter independently, then forked once per
	// path).
	Seed uint64
	// ContentType declares what the stream carries (TTP.Next).
	ContentType packet.LayerType
}

// DefaultConfig returns laptop-scale defaults: exponential backoff
// (doubling from 60ms, capped at one second) with 10% deterministic
// jitter, three paths, a demotion trigger fast enough to migrate within
// two RTOs, and probing that revives a healed path in ~150ms.
func DefaultConfig() Config {
	return Config{
		Paths: 3, MaxPathLen: 8, Window: 16, SegmentSize: 512,
		RTO: 60 * sim.Millisecond, MaxRetries: 30,
		Backoff: 2, MaxRTO: sim.Second, JitterFrac: 0.1,
		DemoteAfter: 2, ProbeEvery: 150 * sim.Millisecond, MaxProbes: 12,
		ContentType: packet.LayerTypeRaw,
	}
}

// withDefaults fills unset knobs, exactly as NewSender always has.
func (cfg Config) withDefaults() Config {
	if cfg.Window <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.Paths <= 0 {
		cfg.Paths = 3
	}
	if cfg.MaxPathLen <= 0 {
		cfg.MaxPathLen = 8
	}
	if cfg.DemoteAfter <= 0 {
		cfg.DemoteAfter = 2
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 150 * sim.Millisecond
	}
	if cfg.MaxProbes <= 0 {
		cfg.MaxProbes = 12
	}
	return cfg
}

// PathState is a path's position in the demotion state machine.
type PathState uint8

const (
	// PathActive paths carry new data.
	PathActive PathState = iota
	// PathProbation paths carry only probes until one is answered.
	PathProbation
	// PathDead paths exhausted their probe budget.
	PathDead
)

// String renders the state for stats output.
func (st PathState) String() string {
	switch st {
	case PathActive:
		return "active"
	case PathProbation:
		return "probation"
	default:
		return "dead"
	}
}

// Path is one source route's live state. Fields are exported for
// experiments and stats snapshots; they are owned by the sender and
// must not be mutated elsewhere.
type Path struct {
	// Index is the path's position in the sender's set (and its on-wire
	// ID, echoed by ACKs as Index+1).
	Index int
	// Cand is the discovered route.
	Cand srcroute.Candidate
	// State is the demotion state machine's position.
	State PathState
	// SRTT/RTTVar are the Jacobson estimators (zero until the first
	// unambiguous sample).
	SRTT   sim.Time
	RTTVar sim.Time
	// Loss is the EWMA loss estimate: timeouts push it toward 1,
	// acknowledged deliveries decay it toward 0.
	Loss float64
	// Consec counts consecutive timeouts since the last credit.
	Consec int

	// Counters.
	Sent, Acked, Retx, Timeouts, Probes int
	Demotions, Promotions               int
	AckedBytes                          int
	LastDemoteAt                        sim.Time

	// full and tail are the prebuilt headers of full-size and tail
	// segments: the TIP total length is checksummed, so the two lengths
	// need separately checksummed headers.
	full, tail segHeader
	probeTimer sim.EventID
	probes     int // unanswered probes this probation
	wrrCredit  float64
	rng        *sim.RNG // per-path jitter stream: sim.SeedStream(base, Index)
}

// segHeader is one prebuilt segment header — the bytes in front of a
// payload of one length — or why it could not be built.
type segHeader struct {
	hdr []byte
	err error
}

// Stats summarizes a transfer.
type Stats struct {
	// Done reports full delivery; Failed reports give-up, with
	// FailReason saying why.
	Done       bool
	Failed     bool
	FailReason string
	// Segments is the stream's segment count; Sent counts transmissions
	// including retransmissions and probes; Retransmissions counts
	// re-sent data segments; Probes counts probation probes.
	Segments, Sent, Retransmissions, Probes int
	// Demotions/Promotions count path state transitions.
	Demotions, Promotions int
	// PathsUsed is the discovered path count.
	PathsUsed int
	// Elapsed is the transfer duration (to completion or failure).
	Elapsed sim.Time
}

// flight is one outstanding segment's transmission state. Flights live
// in a ring indexed by seq modulo its length and are recycled in place,
// each with its timeout callback bound once, so transmitting allocates
// nothing.
type flight struct {
	seq     uint32
	live    bool // the slot holds an unacknowledged segment
	parked  bool // timed out with no active path; waiting on promotion
	retx    bool // retransmitted at least once: no RTT sample (Karn)
	path    int
	timer   sim.EventID
	sentAt  sim.Time
	retries int
	fire    func() // bound once: this flight's timeout
}

// Sender drives a multipath transfer.
type Sender struct {
	cfg   Config
	strat Strategy
	drv   Driver
	net   *netsim.Network // nil for driver (wire/harness) senders
	node  topology.NodeID
	addr  packet.Addr
	dst   packet.Addr
	port  uint16
	src   uint16

	paths    []*Path
	probeFns []func() // per path, bound once: probe that path
	el       []*Path  // eligible() scratch
	data     []byte   // the caller's payload; segments are views into it
	xbuf     []byte   // simXmit's frame buffer, reused: Inject copies it
	nseg     int
	acked    uint32
	nextSend uint32
	// flights covers every unacknowledged sequence number: they all lie
	// in [acked, nextSend), which the window bounds by len(flights).
	flights []flight
	dupAcks int

	stats      Stats
	started    sim.Time
	failed     bool
	failReason string

	// ACK decode scratch, reused so the steady-state ACK path allocates
	// nothing on either substrate.
	ackTip packet.TIP
	ackTTP packet.TTP

	// Pre-bound obs handles; nil (zero-cost no-ops) unless AttachObs ran.
	obsSent, obsRetx, obsProbe       *obs.Counter
	obsDemote, obsPromote, obsGiveup *obs.Counter
	obsPathSent, obsPathAcked        []*obs.Counter
}

// NewSender prepares a transfer of data from node src to node dst's
// port, striped across the paths the strategy discovers on the
// network's topology map, driven by the network's scheduler. The sender
// transmits straight from data, so the caller must not modify it until
// the transfer ends.
func NewSender(net *netsim.Network, strat Strategy, src, dst topology.NodeID, port uint16, data []byte, cfg Config) *Sender {
	cfg = cfg.withDefaults()
	cands := strat.Discover(net.Graph, src, dst, cfg.Paths, cfg.MaxPathLen)
	s := NewDriverSender(Driver{}, strat, cands, src, dst, port, data, cfg)
	s.net = net
	s.drv = Driver{Clock: SimClock{net.Sched}, Xmit: s.simXmit}
	return s
}

// NewDriverSender prepares a transfer over an explicit candidate set on
// an explicit substrate — the constructor behind both the simulator
// wrapper above and the wire engine's MultipathSender. src/dst/port
// feed the jitter-seed mix exactly as in the simulator, so a wire
// sender with matching endpoints draws the same per-path jitter
// streams. The Driver may be zero at construction as long as Clock and
// Xmit are set before Start. Segments are views into data, which must
// not be modified until the transfer ends.
func NewDriverSender(drv Driver, strat Strategy, cands []srcroute.Candidate, src, dst topology.NodeID, port uint16, data []byte, cfg Config) *Sender {
	cfg = cfg.withDefaults()
	s := &Sender{
		cfg: cfg, strat: strat, drv: drv, node: src,
		addr: packet.MakeAddr(uint16(src), 1), dst: packet.MakeAddr(uint16(dst), 1),
		port: port, src: 41000,
		data: data, nseg: (len(data) + cfg.SegmentSize - 1) / cfg.SegmentSize,
	}
	base := cfg.Seed<<20 ^ uint64(src)<<36 ^ uint64(dst)<<8 ^ uint64(port)<<16 ^ 0x6d70617468
	tail := len(data) - (s.nseg-1)*cfg.SegmentSize // the last segment's length
	for _, c := range cands {
		p := &Path{
			Index: len(s.paths), Cand: c,
			rng: sim.NewRNG(sim.SeedStream(base, uint64(len(s.paths)))),
		}
		opt := c.Option()
		p.full, p.tail = s.header(p.Index, opt, cfg.SegmentSize), s.header(p.Index, opt, tail)
		s.paths = append(s.paths, p)
		s.probeFns = append(s.probeFns, func() { s.probe(p) })
	}
	s.el = make([]*Path, 0, len(s.paths))
	s.flights = make([]flight, max(1, min(cfg.Window, s.nseg)))
	for i := range s.flights {
		fl := &s.flights[i]
		fl.fire = func() { s.timeout(fl) }
	}
	s.stats.Segments = s.nseg
	s.stats.PathsUsed = len(s.paths)
	return s
}

// header serializes path idx's segment header for an n-byte payload
// through packet.Serialize, the reference encoder, so both substrates
// frame exactly the bytes it would.
func (s *Sender) header(idx int, opt *packet.SourceRouteOption, n int) segHeader {
	pkt, err := packet.Serialize(
		&packet.TIP{TTL: 32, Proto: packet.LayerTypeTTP, Src: s.addr, Dst: s.dst, SourceRoute: opt},
		&packet.TTP{SrcPort: s.src, DstPort: s.port, Window: uint16(idx) + 1, Next: s.contentType()},
		&packet.Raw{Data: make([]byte, n)})
	if err != nil {
		return segHeader{err: err}
	}
	return segHeader{hdr: pkt[:len(pkt)-n]}
}

// Frame appends segment seq's datagram on path p to dst and returns it:
// the path's prebuilt full or tail header with Seq stamped in place,
// then the payload. It is the one framing path of both substrates.
func (s *Sender) Frame(dst []byte, p *Path, seq uint32) ([]byte, error) {
	seg := s.segment(seq)
	h := &p.full
	if len(seg) != s.cfg.SegmentSize {
		h = &p.tail
	}
	if h.err != nil {
		return dst, h.err
	}
	pkt := append(append(dst, h.hdr...), seg...)
	// The header holds whole TIP and TTP headers, so the patch cannot fail.
	_ = packet.PatchTTPSeq(pkt[len(dst):], seq)
	return pkt, nil
}

// FrameErr reports the first path whose segment headers could not be
// built, or nil. The simulator meets the error when the path first
// transmits, failing the transfer; the wire sender rejects it at
// construction.
func (s *Sender) FrameErr() error {
	for _, p := range s.paths {
		if err := cmp.Or(p.full.err, p.tail.err); err != nil {
			return fmt.Errorf("path %d: %w", p.Index, err)
		}
	}
	return nil
}

// simXmit is the netsim substrate's transmission hook: frame into the
// reused buffer and inject at the sending node, which copies it.
func (s *Sender) simXmit(p *Path, seq uint32) error {
	pkt, err := s.Frame(s.xbuf[:0], p, seq)
	if err != nil {
		return err
	}
	s.xbuf = pkt
	s.net.Inject(s.node, pkt)
	return nil
}

// SetTrace installs a decision-log hook (see Driver.Trace). Install
// before Start.
func (s *Sender) SetTrace(fn func(string)) { s.drv.Trace = fn }

// AttachObs binds the sender's metrics to a registry: aggregate
// transfer counters plus per-path send/ack counters. Never attached
// (the default), every handle stays nil and the hot paths cost one nil
// check each, mirroring netsim's instrumentation.
func (s *Sender) AttachObs(reg *obs.Registry) {
	s.obsSent = reg.Counter("multipath.sent")
	s.obsRetx = reg.Counter("multipath.retx")
	s.obsProbe = reg.Counter("multipath.probes")
	s.obsDemote = reg.Counter("multipath.demotions")
	s.obsPromote = reg.Counter("multipath.promotions")
	s.obsGiveup = reg.Counter("multipath.giveup")
	s.obsPathSent = make([]*obs.Counter, len(s.paths))
	s.obsPathAcked = make([]*obs.Counter, len(s.paths))
	for i := range s.paths {
		s.obsPathSent[i] = reg.Counter(fmt.Sprintf("multipath.path%d.sent", i))
		s.obsPathAcked[i] = reg.Counter(fmt.Sprintf("multipath.path%d.acked", i))
	}
}

// Start begins the transfer. On the netsim substrate it also hooks ACK
// reception at the sending node; driver senders feed ACKs through
// HandleAck themselves. A sender with no discovered paths fails
// immediately.
func (s *Sender) Start() {
	s.started = s.now()
	if len(s.paths) == 0 {
		s.fail("no paths discovered")
		return
	}
	if s.net != nil {
		nd := s.net.Node(s.node)
		prev := nd.Deliver
		nd.Deliver = func(n *netsim.Node, tr *netsim.Trace, data []byte) {
			if !s.HandleAck(data) && prev != nil {
				prev(n, tr, data)
			}
		}
	}
	s.pump()
	s.doFlush()
}

// Done reports whether every segment is acknowledged.
func (s *Sender) Done() bool { return int(s.acked) >= s.nseg }

// Failed reports whether the transfer gave up.
func (s *Sender) Failed() bool { return s.failed }

// segment returns segment seq's payload: a view into the transfer's
// data, which Frame copies from.
func (s *Sender) segment(seq uint32) []byte {
	off := int(seq) * s.cfg.SegmentSize
	end := min(off+s.cfg.SegmentSize, len(s.data))
	return s.data[off:end:end]
}

// Stats returns the transfer summary.
func (s *Sender) Stats() Stats {
	st := s.stats
	st.Done = s.Done()
	st.Failed = s.failed
	st.FailReason = s.failReason
	return st
}

// Paths returns a snapshot of every path's state (copies; safe to
// keep).
func (s *Sender) Paths() []Path {
	out := make([]Path, len(s.paths))
	for i, p := range s.paths {
		out[i] = *p
	}
	return out
}

func (s *Sender) now() sim.Time { return s.drv.Clock.Now() }

func (s *Sender) doFlush() {
	if s.drv.Flush != nil {
		s.drv.Flush()
	}
}

// tracef emits one decision-log line, prefixed with the clock reading.
// Callers guard with s.drv.Trace != nil so the disabled path costs one
// nil check and boxes no arguments.
func (s *Sender) tracef(format string, args ...any) {
	s.drv.Trace(fmt.Sprintf("t=%d ", int64(s.now())) + fmt.Sprintf(format, args...))
}

func (s *Sender) contentType() packet.LayerType {
	if s.cfg.ContentType == packet.LayerTypeNone {
		return packet.LayerTypeRaw
	}
	return s.cfg.ContentType
}

// eligible returns the active paths in index order. The slice is
// scratch, valid until the next call.
func (s *Sender) eligible() []*Path {
	out := s.el[:0]
	for _, p := range s.paths {
		if p.State == PathActive {
			out = append(out, p)
		}
	}
	s.el = out
	return out
}

// inflight returns seq's flight, or nil when seq is not outstanding.
func (s *Sender) inflight(seq uint32) *flight {
	fl := &s.flights[seq%uint32(len(s.flights))]
	if !fl.live || fl.seq != seq {
		return nil
	}
	return fl
}

func (s *Sender) allDead() bool {
	for _, p := range s.paths {
		if p.State != PathDead {
			return false
		}
	}
	return true
}

// pump dispatches parked retransmissions, then fills the window with
// new segments, as long as an active path exists.
func (s *Sender) pump() {
	if s.failed || s.Done() {
		return
	}
	el := s.eligible()
	if len(el) == 0 {
		return // every path demoted; probes will call back on promotion
	}
	for seq := s.acked; seq < s.nextSend; seq++ {
		if fl := s.inflight(seq); fl != nil && fl.parked {
			fl.parked = false
			s.transmit(seq, s.strat.Pick(el), true)
		}
	}
	for int(s.nextSend) < s.nseg && s.nextSend < s.acked+uint32(s.cfg.Window) {
		s.transmit(s.nextSend, s.strat.Pick(el), false)
		s.nextSend++
	}
}

// transmit sends segment seq over path p and (re)arms its timer. retx
// marks a retransmission (counted, and excluded from RTT sampling). A
// failed transfer sends nothing more: fail cancelled every timer, and
// none may be re-armed.
func (s *Sender) transmit(seq uint32, p *Path, retx bool) {
	if s.failed {
		return
	}
	if err := s.drv.Xmit(p, seq); err != nil {
		s.fail("serialize: " + err.Error())
		return
	}
	fl := s.inflight(seq)
	if fl == nil {
		fl = &s.flights[seq%uint32(len(s.flights))]
		fl.seq, fl.live, fl.parked, fl.retx, fl.retries = seq, true, false, false, 0
	}
	fl.path = p.Index
	fl.sentAt = s.now()
	fl.retx = fl.retx || retx
	s.stats.Sent++
	p.Sent++
	s.obsSent.Inc()
	if p.Index < len(s.obsPathSent) {
		s.obsPathSent[p.Index].Inc()
	}
	if retx {
		p.Retx++
	}
	d := s.rto(p, fl.retries)
	if s.drv.Trace != nil {
		s.tracef("tx seq=%d path=%d retx=%t rto=%d", seq, p.Index, retx, int64(d))
	}
	s.drv.Clock.Cancel(fl.timer)
	fl.timer = s.drv.Clock.After(d, fl.fire)
}

// rto computes a path's timeout for a segment's attempt'th
// retransmission: max(configured floor, SRTT+4·RTTVAR), backed off
// exponentially and stretched by jitter from the path's own seeded RNG
// stream — never a shared stream, so the draw sequence (and therefore
// the decision log) does not depend on the order in which paths happen
// to arm timers, and simultaneous losses on two paths never produce
// identical retransmit ticks.
func (s *Sender) rto(p *Path, attempt int) sim.Time {
	d := s.cfg.RTO
	if p.SRTT > 0 {
		if est := p.SRTT + 4*p.RTTVar; est > d {
			d = est
		}
	}
	if s.cfg.Backoff > 1 {
		for i := 0; i < attempt; i++ {
			d = sim.Time(float64(d) * s.cfg.Backoff)
			if s.cfg.MaxRTO > 0 && d >= s.cfg.MaxRTO {
				d = s.cfg.MaxRTO
				break
			}
		}
	}
	if s.cfg.JitterFrac > 0 {
		d += sim.Time(p.rng.Float64() * s.cfg.JitterFrac * float64(d))
	}
	return d
}

// timeout handles a segment's retransmission timer: charge the path,
// demote it when it keeps timing out, and re-send the segment over a
// (possibly different) active path — or park it until probing revives
// one. Acknowledgment and termination cancel the timer exactly, so it
// only ever fires for a live flight.
func (s *Sender) timeout(fl *flight) {
	defer s.doFlush()
	fl.timer = sim.EventID{}
	seq := fl.seq
	p := s.paths[fl.path]
	p.Timeouts++
	p.Consec++
	p.Loss = 0.75*p.Loss + 0.25
	if s.drv.Trace != nil {
		s.tracef("timeout seq=%d path=%d consec=%d loss=%.4f", seq, p.Index, p.Consec, p.Loss)
	}
	// Demotion moves traffic to another path; a sender's only path has
	// none, so it keeps retransmitting with backoff until MaxRetries.
	if p.State == PathActive && p.Consec >= s.cfg.DemoteAfter && len(s.paths) > 1 {
		s.demote(p)
	}
	fl.retries++
	if fl.retries > s.cfg.MaxRetries {
		s.fail(fmt.Sprintf("segment %d unacknowledged after %d retransmissions", seq, s.cfg.MaxRetries))
		return
	}
	s.stats.Retransmissions++
	s.obsRetx.Inc()
	el := s.eligible()
	if len(el) == 0 {
		if s.allDead() {
			s.fail("all paths dead")
			return
		}
		fl.parked = true
		if s.drv.Trace != nil {
			s.tracef("park seq=%d", seq)
		}
		return
	}
	s.transmit(seq, s.strat.Pick(el), true)
}

// demote moves an active path to probation and starts probing it.
func (s *Sender) demote(p *Path) {
	p.State = PathProbation
	p.Demotions++
	p.LastDemoteAt = s.now()
	p.probes = 0
	s.stats.Demotions++
	s.obsDemote.Inc()
	if s.drv.Trace != nil {
		s.tracef("demote path=%d", p.Index)
	}
	s.armProbe(p)
}

func (s *Sender) armProbe(p *Path) {
	p.probeTimer = s.drv.Clock.After(s.cfg.ProbeEvery, s.probeFns[p.Index])
}

// probe sends a duplicate copy of the lowest unacknowledged segment
// over a probation path. The receiver deduplicates, so the probe's only
// effect is the ACK whose path echo proves the route delivers again.
// MaxProbes unanswered probes declare the path dead. Promotion and
// termination cancel the probe timer exactly, so it only fires while
// the path is on probation in a running transfer.
func (s *Sender) probe(p *Path) {
	p.probeTimer = sim.EventID{}
	defer s.doFlush()
	if p.probes >= s.cfg.MaxProbes {
		p.State = PathDead
		if s.drv.Trace != nil {
			s.tracef("dead path=%d", p.Index)
		}
		if s.allDead() {
			s.fail("all paths dead")
		}
		return
	}
	p.probes++
	p.Probes++
	s.stats.Probes++
	s.obsProbe.Inc()
	seq := s.acked
	if int(seq) >= s.nseg {
		return
	}
	if err := s.drv.Xmit(p, seq); err != nil {
		s.fail("serialize: " + err.Error())
		return
	}
	s.stats.Sent++
	p.Sent++
	s.obsSent.Inc()
	if p.Index < len(s.obsPathSent) {
		s.obsPathSent[p.Index].Inc()
	}
	if s.drv.Trace != nil {
		s.tracef("probe seq=%d path=%d n=%d", seq, p.Index, p.probes)
	}
	s.armProbe(p)
}

// promote returns a probation (or dead) path to the active set and
// restarts striping onto it.
func (s *Sender) promote(p *Path) {
	s.drv.Clock.Cancel(p.probeTimer)
	p.probeTimer = sim.EventID{}
	p.State = PathActive
	p.Consec = 0
	p.probes = 0
	p.Promotions++
	s.stats.Promotions++
	s.obsPromote.Inc()
	if s.drv.Trace != nil {
		s.tracef("promote path=%d", p.Index)
	}
	s.pump()
}

// credit records path-level evidence of delivery from an ACK echo.
func (s *Sender) credit(p *Path) {
	p.Consec = 0
	p.Loss *= 0.75
	if p.State != PathActive {
		s.promote(p)
	}
}

// HandleAck consumes ACKs for our connection — those sent to the
// sender's source port from its destination port, since senders on one
// node share the source port — and returns false for unrelated
// traffic. It is the driver senders' ingress (the wire engine's read
// loop calls it under the sender lock); on the netsim substrate Start
// wires it to the node's delivery hook. Hostile input
// is tolerated: a cumulative ACK beyond the stream, an out-of-range
// path echo, or a replayed sequence number cannot poison the
// estimators or panic (FuzzMultipathAck pins this).
func (s *Sender) HandleAck(data []byte) bool {
	tip := &s.ackTip
	if err := tip.DecodeReuse(data); err != nil || tip.Proto != packet.LayerTypeTTP {
		return false
	}
	ttp := &s.ackTTP
	if err := ttp.DecodeFrom(tip.LayerPayload()); err != nil {
		return false
	}
	if ttp.Flags&packet.FlagACK == 0 || ttp.DstPort != s.src || ttp.SrcPort != s.port {
		return false
	}
	if s.failed {
		return true
	}
	defer s.doFlush()
	if s.drv.Trace != nil {
		s.tracef("ack cum=%d echo=%d", ttp.Ack, ttp.Window)
	}
	if echo := int(ttp.Window); echo >= 1 && echo <= len(s.paths) {
		s.credit(s.paths[echo-1])
		if s.failed {
			return true
		}
	}
	if ttp.Ack > uint32(s.nseg) {
		return true // forged cumulative ACK beyond the stream: ignore
	}
	now := s.now()
	switch {
	case ttp.Ack > s.acked:
		for seq := s.acked; seq < ttp.Ack; seq++ {
			if fl := s.inflight(seq); fl != nil {
				s.release(fl)
				p := s.paths[fl.path]
				p.Acked++
				p.AckedBytes += len(s.segment(seq))
				if fl.path < len(s.obsPathAcked) {
					s.obsPathAcked[fl.path].Inc()
				}
				if !fl.retx {
					s.rttSample(p, now-fl.sentAt)
				}
			}
		}
		s.acked = ttp.Ack
		s.dupAcks = 0
		if s.Done() {
			s.finish()
			return true
		}
		s.pump()
	case ttp.Ack == s.acked && !s.Done():
		// Duplicate cumulative ACK: an out-of-order segment arrived, so
		// the window's head is likely lost. Three duplicates trigger one
		// fast retransmission per window (no backoff charge — this is
		// recovery, not congestion evidence).
		s.dupAcks++
		if s.dupAcks == 3 {
			el := s.eligible()
			// No flight is parked here: parking needs every path
			// inactive, and the promotion that re-activated one
			// unparked them all.
			if len(el) > 0 && s.inflight(s.acked) != nil {
				s.stats.Retransmissions++
				s.obsRetx.Inc()
				if s.drv.Trace != nil {
					s.tracef("fast-retx seq=%d", s.acked)
				}
				s.transmit(s.acked, s.strat.Pick(el), true)
			}
		}
	}
	return true
}

// rttSample folds an unambiguous RTT measurement into a path's
// Jacobson estimators.
func (s *Sender) rttSample(p *Path, sample sim.Time) {
	if sample <= 0 {
		return
	}
	if p.SRTT == 0 {
		p.SRTT = sample
		p.RTTVar = sample / 2
		return
	}
	diff := p.SRTT - sample
	if diff < 0 {
		diff = -diff
	}
	p.RTTVar = (3*p.RTTVar + diff) / 4
	p.SRTT = (7*p.SRTT + sample) / 8
}

// finish closes out a completed transfer: record the duration and
// cancel every outstanding timer so the transfer stops occupying
// scheduler slots.
func (s *Sender) finish() {
	s.stats.Elapsed = s.now() - s.started
	if s.drv.Trace != nil {
		s.tracef("done sent=%d retx=%d", s.stats.Sent, s.stats.Retransmissions)
	}
	s.cancelAll()
	if s.drv.OnDone != nil {
		s.drv.OnDone()
	}
}

// fail records the first terminal failure and cancels all timers.
func (s *Sender) fail(reason string) {
	if s.failed {
		return
	}
	s.failed = true
	s.failReason = reason
	s.stats.Elapsed = s.now() - s.started
	s.obsGiveup.Inc()
	if s.drv.Trace != nil {
		s.tracef("fail reason=%q", reason)
	}
	s.cancelAll()
	if s.drv.OnDone != nil {
		s.drv.OnDone()
	}
}

// Stop cancels every pending timer without recording an outcome, so a
// driver tearing down an unfinished transfer leaves nothing armed on its
// clock. The sender must not be driven after Stop.
func (s *Sender) Stop() { s.cancelAll() }

func (s *Sender) cancelAll() {
	for i := range s.flights {
		if fl := &s.flights[i]; fl.live {
			s.release(fl)
		}
	}
	for _, p := range s.paths {
		s.drv.Clock.Cancel(p.probeTimer)
		p.probeTimer = sim.EventID{}
	}
}

// release retires an acknowledged or abandoned flight and disarms its
// timer.
func (s *Sender) release(fl *flight) {
	s.drv.Clock.Cancel(fl.timer)
	fl.timer = sim.EventID{}
	fl.live, fl.parked = false, false
}

// Receiver reassembles a striped stream and acknowledges every data
// segment with the cumulative next-expected sequence number, echoing
// the carrying path's ID and source-routing the ACK back along the
// reverse of the arrival route (so the ACK exercises the same path).
type Receiver struct {
	// Port is the listening TTP port.
	Port uint16
	// Bytes counts the in-order stream delivered so far.
	Bytes int
	// Out, when set, receives the in-order stream as it completes: each
	// segment's payload once, in sequence order, never a duplicate. The
	// receiver keeps none of the stream itself. Out must not fail, as a
	// hash.Hash's Write never does: the receiver has already
	// acknowledged the bytes, so it has no one to hand an error to.
	Out io.Writer
	// Acks counts acknowledgments sent; Dups counts redundant data
	// segments (stripe overlap, probation probes, spurious
	// retransmissions) — duplicates are acknowledged but never
	// re-delivered.
	Acks, Dups int
	// PathSegments counts accepted (non-duplicate) segments by on-wire
	// path ID (1-based; 0 = unlabeled sender).
	PathSegments map[int]int

	next uint32
	buf  map[uint32][]byte
	free [][]byte // drained out-of-order buffers, reused by the next ones
	addr packet.Addr
	tip  packet.TIP // decode scratch
	ttp  packet.TTP
	tmpl map[uint16]*ackTemplate // by path echo
	net  *netsim.Network
	node topology.NodeID
	abuf []byte // handle's frame buffer, reused: Inject copies it
}

// ackTemplate is one path echo's prebuilt ACK and the segment identity
// it answers: a segment from another source port, address or route
// under the same echo rebuilds it.
type ackTemplate struct {
	pkt     []byte
	srcPort uint16
	src     packet.Addr
	route   []packet.Addr
}

// NewReceiverCore creates a receiver for port at node with no network
// hookup: the wire engine feeds it datagrams through Receive and
// transmits the ACKs it frames.
func NewReceiverCore(node topology.NodeID, port uint16) *Receiver {
	return &Receiver{
		Port: port, addr: packet.MakeAddr(uint16(node), 1),
		buf: map[uint32][]byte{}, PathSegments: map[int]int{}, tmpl: map[uint16]*ackTemplate{},
	}
}

// InstallReceiver attaches a multipath receiver for port at node id,
// chaining any existing delivery handler for other traffic.
func InstallReceiver(net *netsim.Network, id topology.NodeID, port uint16) *Receiver {
	r := NewReceiverCore(id, port)
	r.net, r.node = net, id
	nd := net.Node(id)
	prev := nd.Deliver
	nd.Deliver = func(n *netsim.Node, tr *netsim.Trace, data []byte) {
		if !r.handle(data) && prev != nil {
			prev(n, tr, data)
		}
	}
	return r
}

// accept ingests one data segment (sequence number, payload, 1-based
// path echo) and returns the cumulative ACK to send: the next expected
// sequence number. The in-order fast path hands the payload straight to
// Out without an intermediate copy, and out-of-order segments wait in
// recycled buffers, so a steady stream does not allocate.
func (r *Receiver) accept(seq uint32, payload []byte, echo int) uint32 {
	switch {
	case seq == r.next:
		r.deliver(payload)
		r.next++
		r.PathSegments[echo]++
	case seq > r.next && r.buf[seq] == nil:
		// Held segments are never nil, even when empty: nil means absent.
		var b []byte
		if k := len(r.free); k > 0 {
			b, r.free = r.free[k-1][:0], r.free[:k-1]
		} else {
			b = make([]byte, 0, len(payload))
		}
		r.buf[seq] = append(b, payload...)
		r.PathSegments[echo]++
	default:
		r.Dups++
	}
	for b := r.buf[r.next]; b != nil; b = r.buf[r.next] {
		r.deliver(b)
		delete(r.buf, r.next)
		r.free = append(r.free, b)
		r.next++
	}
	return r.next
}

// deliver counts one in-order payload and passes it to Out.
func (r *Receiver) deliver(p []byte) {
	r.Bytes += len(p)
	if r.Out != nil {
		_, _ = r.Out.Write(p) // Out never fails; see its contract
	}
}

// Receive ingests one datagram. A data segment for the receiver's port
// is accepted, and its cumulative ACK — the echo's template with Ack
// stamped in place — is appended to dst and returned; ack is nil when
// no ACK can be built for the segment's route. ok is false for traffic
// that is not ours. The segment is decoded into the receiver's own
// scratch, so the steady state does not allocate.
func (r *Receiver) Receive(dst, data []byte) (ack []byte, ok bool) {
	tip, ttp := &r.tip, &r.ttp
	if err := tip.DecodeReuse(data); err != nil || tip.Proto != packet.LayerTypeTTP {
		return nil, false
	}
	if err := ttp.DecodeFrom(tip.LayerPayload()); err != nil || ttp.DstPort != r.Port || ttp.Flags&packet.FlagACK != 0 {
		return nil, false // not a data segment for us; ACKs are for senders
	}
	ackNo := r.accept(ttp.Seq, ttp.LayerPayload(), int(ttp.Window))
	t := r.template()
	if t == nil {
		return nil, true
	}
	ack = append(dst, t...)
	// The template holds whole TIP and TTP headers, so the patch cannot fail.
	_ = packet.PatchTTPAck(ack[len(dst):], ackNo, ttp.Window)
	r.Acks++
	return ack, true
}

// template returns the ACK template for the segment in the decode
// scratch, rebuilt through packet.Serialize, the reference encoder,
// when the segment's source port, address or waypoints differ from the
// ones its echo's template answers; nil when the ACK cannot be built.
func (r *Receiver) template() []byte {
	tip, ttp := &r.tip, &r.ttp
	var route []packet.Addr
	if tip.SourceRoute != nil {
		route = tip.SourceRoute.Hops
	}
	t := r.tmpl[ttp.Window]
	if t != nil && t.srcPort == ttp.SrcPort && t.src == tip.Src && slices.Equal(t.route, route) {
		return t.pkt
	}
	var back *packet.SourceRouteOption // the arrival route reversed
	if len(route) > 0 {
		back = &packet.SourceRouteOption{Hops: slices.Clone(route)}
		slices.Reverse(back.Hops)
	}
	pkt, err := packet.Serialize(
		&packet.TIP{TTL: 32, Proto: packet.LayerTypeTTP, Src: r.addr, Dst: tip.Src, SourceRoute: back},
		&packet.TTP{SrcPort: r.Port, DstPort: ttp.SrcPort, Flags: packet.FlagACK, Window: ttp.Window, Next: packet.LayerTypeRaw},
		&packet.Raw{})
	if err != nil {
		return nil
	}
	if t == nil {
		t = &ackTemplate{}
		r.tmpl[ttp.Window] = t
	}
	t.pkt, t.srcPort, t.src, t.route = pkt, ttp.SrcPort, tip.Src, append(t.route[:0], route...)
	return pkt
}

// handle is the netsim delivery hook: receive into the reused frame
// buffer and inject the ACK at the receiving node, which copies it.
// It returns false for unrelated traffic.
func (r *Receiver) handle(data []byte) bool {
	ack, ok := r.Receive(r.abuf[:0], data)
	if ack != nil {
		r.abuf = ack
		r.net.Inject(r.node, ack)
	}
	return ok
}

// Transfer is the convenience wrapper: set up receiver and sender with
// the given strategy, run the scheduler until quiescent, and return
// both sides' outcomes. The receiver streams to out, which may be nil
// when only the counts matter.
func Transfer(net *netsim.Network, strat Strategy, from, to topology.NodeID, port uint16, data []byte, cfg Config, out io.Writer) (Stats, *Receiver) {
	r := InstallReceiver(net, to, port)
	r.Out = out
	s := NewSender(net, strat, from, to, port, data, cfg)
	s.Start()
	net.Sched.Run()
	return s.Stats(), r
}

// PrefixCheck is a receiver's Out for a stream known in advance: it
// compares each write with the next bytes of Want and keeps only the
// verdict, so checking a stream costs no copy of it.
type PrefixCheck struct {
	Want []byte
	n    int  // bytes written
	bad  bool // a written byte differed from Want, or ran past its end
}

// Write compares p with the next len(p) bytes of Want. It never fails.
func (c *PrefixCheck) Write(p []byte) (int, error) {
	if !c.bad && (len(p) > len(c.Want)-c.n || !bytes.Equal(p, c.Want[c.n:c.n+len(p)])) {
		c.bad = true
	}
	c.n += len(p)
	return len(p), nil
}

// Prefix reports whether the stream written so far is a prefix of Want.
func (c *PrefixCheck) Prefix() bool { return !c.bad }

// Complete reports whether the stream written so far equals Want.
func (c *PrefixCheck) Complete() bool { return !c.bad && c.n == len(c.Want) }

// Fairness is Jain's fairness index over the per-path acknowledged
// bytes of the supplied paths (1 = perfectly even, 1/n = one path
// carried everything). Paths with no acknowledged traffic still count.
func Fairness(paths []Path) float64 {
	if len(paths) == 0 {
		return 0
	}
	var sum, sumsq float64
	for _, p := range paths {
		b := float64(p.AckedBytes)
		sum += b
		sumsq += b * b
	}
	if sumsq == 0 {
		return 0
	}
	return sum * sum / (float64(len(paths)) * sumsq)
}
