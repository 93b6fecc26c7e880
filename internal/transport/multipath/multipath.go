// Package multipath implements reliable multipath transport: a stream
// striped across k user-discovered source routes, with per-path failure
// detection and failover. It is the data-plane half of the paper's
// "design for choice" prescription (§IV-B, §V-A4): where
// internal/transport commits a transfer to whatever path the network's
// routing tussle produces, this sender holds several link-disjoint
// routes at once and reacts to each path's fate independently — a link
// flap, a provider crash, or a partition kills at most the paths that
// cross it, and the stream migrates to the survivors within a few
// retransmission timeouts instead of stalling for the fault's duration.
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
//     it carries no new data;
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
// on both substrates.
package multipath

import (
	"fmt"
	"sort"

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
	// Seed drives the jitter RNGs (mixed with endpoints, as in
	// transport.Config, then forked once per path).
	Seed uint64
	// ContentType declares what the stream carries (TTP.Next).
	ContentType packet.LayerType
}

// DefaultConfig mirrors transport.DefaultConfig with multipath knobs:
// three paths, a demotion trigger fast enough to migrate within two
// RTOs, and probing that revives a healed path in ~150ms.
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
	LastDemoteAt, LastPromoteAt         sim.Time

	opt        *packet.SourceRouteOption // prebuilt wire option (nil for direct paths)
	probeTimer sim.EventID
	probes     int // unanswered probes this probation
	wrrCredit  float64
	rng        *sim.RNG // per-path jitter stream: sim.SeedStream(base, Index)
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
	for _, c := range cands {
		p := &Path{
			Index: len(s.paths), Cand: c, opt: c.Option(),
			rng: sim.NewRNG(sim.SeedStream(base, uint64(len(s.paths)))),
		}
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

// simXmit is the netsim substrate's transmission hook: serialize and
// inject at the sending node.
func (s *Sender) simXmit(p *Path, seq uint32) error {
	data, err := packet.Serialize(
		&packet.TIP{TTL: 32, Proto: packet.LayerTypeTTP, Src: s.addr, Dst: s.dst, SourceRoute: p.opt},
		&packet.TTP{SrcPort: s.src, DstPort: s.port, Seq: seq, Window: uint16(p.Index) + 1, Next: s.contentType()},
		&packet.Raw{Data: s.Segment(seq)})
	if err != nil {
		return err
	}
	s.net.Send(s.node, data)
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

// Acked returns the cumulative acknowledged sequence number.
func (s *Sender) Acked() uint32 { return s.acked }

// Segment returns segment seq's payload: a view into the transfer's
// data, which drivers serialize from without copying.
func (s *Sender) Segment(seq uint32) []byte {
	off := int(seq) * s.cfg.SegmentSize
	end := min(off+s.cfg.SegmentSize, len(s.data))
	return s.data[off:end:end]
}

// Config returns the transfer's configuration with defaults applied.
func (s *Sender) Config() Config { return s.cfg }

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
	if p.State == PathActive && p.Consec >= s.cfg.DemoteAfter {
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
	p.LastPromoteAt = s.now()
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

// HandleAck consumes ACKs for our connection; returns false for
// unrelated traffic. It is the driver senders' ingress (the wire
// engine's read loop calls it under the sender lock); on the netsim
// substrate Start wires it to the node's delivery hook. Hostile input
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
	if ttp.Flags&packet.FlagACK == 0 || ttp.DstPort != s.src {
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
				p.AckedBytes += len(s.Segment(seq))
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
	// Data accumulates the in-order stream. A consumer may drain it
	// between Accept calls (the wire receiver digests and truncates it
	// after each one); reassembly state lives elsewhere.
	Data []byte
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
	net  *netsim.Network
	node topology.NodeID
	addr packet.Addr
}

// NewReceiverCore creates a detached reassembly core for port: no
// network hookup, no ACK serialization. The wire engine feeds it
// decoded segments through Accept and builds its own ACK datagrams
// from the returned cumulative sequence number.
func NewReceiverCore(port uint16) *Receiver {
	return &Receiver{Port: port, buf: map[uint32][]byte{}, PathSegments: map[int]int{}}
}

// InstallReceiver attaches a multipath receiver for port at node id,
// chaining any existing delivery handler for other traffic.
func InstallReceiver(net *netsim.Network, id topology.NodeID, port uint16) *Receiver {
	r := NewReceiverCore(port)
	r.net, r.node, r.addr = net, id, packet.MakeAddr(uint16(id), 1)
	nd := net.Node(id)
	prev := nd.Deliver
	nd.Deliver = func(n *netsim.Node, tr *netsim.Trace, data []byte) {
		if !r.handle(data) && prev != nil {
			prev(n, tr, data)
		}
	}
	return r
}

// Accept ingests one data segment (sequence number, payload, 1-based
// path echo) and returns the cumulative ACK to send: the next expected
// sequence number. The in-order fast path appends straight to Data
// without an intermediate copy, so a steady in-order stream allocates
// only for Data growth.
func (r *Receiver) Accept(seq uint32, payload []byte, echo int) uint32 {
	switch {
	case seq == r.next:
		r.Data = append(r.Data, payload...)
		r.next++
		r.PathSegments[echo]++
	case seq > r.next && r.buf[seq] == nil:
		p := make([]byte, len(payload))
		copy(p, payload)
		r.buf[seq] = p
		r.PathSegments[echo]++
	default:
		r.Dups++
	}
	for r.buf[r.next] != nil {
		r.Data = append(r.Data, r.buf[r.next]...)
		delete(r.buf, r.next)
		r.next++
	}
	return r.next
}

// handle consumes data segments for our port; returns false for
// unrelated traffic.
func (r *Receiver) handle(data []byte) bool {
	var tip packet.TIP
	if err := tip.DecodeFrom(data); err != nil || tip.Proto != packet.LayerTypeTTP {
		return false
	}
	var ttp packet.TTP
	if err := ttp.DecodeFrom(tip.LayerPayload()); err != nil || ttp.DstPort != r.Port {
		return false
	}
	if ttp.Flags&packet.FlagACK != 0 {
		return false // ACKs are for senders
	}
	ackNo := r.Accept(ttp.Seq, ttp.LayerPayload(), int(ttp.Window))
	ack, err := packet.Serialize(
		&packet.TIP{TTL: 32, Proto: packet.LayerTypeTTP, Src: r.addr, Dst: tip.Src,
			SourceRoute: ReverseRoute(tip.SourceRoute)},
		&packet.TTP{SrcPort: r.Port, DstPort: ttp.SrcPort, Ack: ackNo,
			Flags: packet.FlagACK, Window: ttp.Window, Next: packet.LayerTypeRaw},
		&packet.Raw{Data: nil})
	if err == nil {
		r.Acks++
		r.net.Send(r.node, ack)
	}
	return true
}

// ReverseRoute builds the ACK's source route: the data segment's
// waypoints in reverse. Nil in, nil out.
func ReverseRoute(sr *packet.SourceRouteOption) *packet.SourceRouteOption {
	if sr == nil || len(sr.Hops) == 0 {
		return nil
	}
	hops := make([]packet.Addr, len(sr.Hops))
	for i, h := range sr.Hops {
		hops[len(hops)-1-i] = h
	}
	return &packet.SourceRouteOption{Hops: hops}
}

// Transfer is the convenience wrapper: set up receiver and sender with
// the given strategy, run the scheduler until quiescent, and return
// both sides' outcomes.
func Transfer(net *netsim.Network, strat Strategy, from, to topology.NodeID, port uint16, data []byte, cfg Config) (Stats, *Receiver) {
	r := InstallReceiver(net, to, port)
	s := NewSender(net, strat, from, to, port, data, cfg)
	s.Start()
	net.Sched.Run()
	return s.Stats(), r
}

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

// SortPathsByIndex orders a Paths() snapshot by index (defensive: the
// snapshot is already ordered; kept for callers that filter).
func SortPathsByIndex(paths []Path) {
	sort.Slice(paths, func(i, j int) bool { return paths[i].Index < paths[j].Index })
}
