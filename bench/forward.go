package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// The wire-forward workload: an in-process wire.Engine is node 2 of a
// two-node internetwork whose other node, 9, is one stdlib client
// socket. Every datagram the client sends is addressed into provider 9,
// so the engine runs the full forwarding decision — sanity filter,
// decode, a port firewall, the §V-A4 source-route admission policy, TTL
// patch, route — and sends it straight back. Minimum-size datagrams keep
// the per-packet cost in front; a tenth of the mix leaves the fast path
// on purpose (blocked port, expiring TTL, garbled version byte). The
// closed loop alternates with the same loop against a bare stdlib echo
// socket, the baseline that shows what the forwarding decision costs.

const (
	fwdNode        = 2
	fwdPeer        = 9
	fwdTTL         = 64
	fwdWindow      = 64
	fwdBurst       = 20
	fwdBurstEvery  = 2 * time.Millisecond // 20 datagrams per 2 ms: 10k pps
	fwdPolicy      = "paid && dst-provider != 7 && ttl > 2"
	fwdDataPort    = 80
	fwdBlockedPort = 25
	fwdSetups      = 60
	fwdSegments    = 10 // closed-loop segments, each followed by a bare-echo segment
	fwdSampleEvery = 16 // trace one datagram in 16
	// A host stall shorter than these delays datagrams without writing
	// them off; one that returns after all counts as late, not lost.
	fwdGrace        = time.Second
	fwdReadTimeout  = time.Second
	fwdPoll         = 25 * time.Millisecond // open-loop reader's check for the sender's end
	fwdSpinWindow   = 1500 * time.Microsecond
	fwdSocketBuffer = 4 << 20 // receive buffer of the client and the engine
)

var (
	fwdSrc = packet.MakeAddr(fwdPeer, 1)
	fwdDst = packet.MakeAddr(fwdPeer, 2)
)

// fwdClass is one traffic class of the mix.
type fwdClass uint8

const (
	fwdPlain fwdClass = iota
	fwdPaidSR
	fwdUnpaidSR
	fwdPort25
	fwdTTL1
	fwdBadVersion
	fwdClasses
)

// fwdMix is each class's share of every block of 100 datagrams.
var fwdMix = [fwdClasses]int{70, 15, 5, 5, 3, 2}

var fwdClassNames = [fwdClasses]string{"plain", "paid-srcroute", "unpaid-srcroute", "port25", "ttl1", "bad-version"}

// returns reports whether datagrams of the class come back to the client.
func (c fwdClass) returns() bool { return c <= fwdUnpaidSR }

// fwdSchedule is the seeded class sequence: each block of 100 datagrams
// holds the exact mix, shuffled, and the schedule repeats after its
// length.
func fwdSchedule(seed uint64) []fwdClass {
	const blocks = 655 // 65,500 datagrams before the schedule repeats
	rng := sim.NewRNG(sim.SeedStream(seed, 1))
	out := make([]fwdClass, 0, blocks*100)
	for b := 0; b < blocks; b++ {
		block := make([]fwdClass, 0, 100)
		for c, n := range fwdMix {
			for i := 0; i < n; i++ {
				block = append(block, fwdClass(c))
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}

// fwdTemplates serializes one datagram per class: TIP + TTP + an 8-byte
// payload that carries the send stamp. The TTP sequence number carries
// the datagram's sequence number.
func fwdTemplates() ([fwdClasses][]byte, error) {
	var out [fwdClasses][]byte
	build := func(ttl uint8, port uint16, sr *packet.SourceRouteOption, pay *packet.PaymentOption) ([]byte, error) {
		return packet.Serialize(
			&packet.TIP{TTL: ttl, Proto: packet.LayerTypeTTP, Src: fwdSrc, Dst: fwdDst, SourceRoute: sr, Payment: pay},
			&packet.TTP{SrcPort: 40000, DstPort: port, Next: packet.LayerTypeRaw},
			&packet.Raw{Data: make([]byte, 8)})
	}
	route := func() *packet.SourceRouteOption {
		return &packet.SourceRouteOption{Hops: []packet.Addr{packet.MakeAddr(fwdNode, 0), packet.MakeAddr(fwdPeer, 0)}}
	}
	pay := &packet.PaymentOption{Payer: fwdSrc, Payee: packet.MakeAddr(fwdNode, 0), AmountMilli: 5, Nonce: 1}
	var err error
	steps := []struct {
		c    fwdClass
		ttl  uint8
		port uint16
		sr   *packet.SourceRouteOption
		pay  *packet.PaymentOption
	}{
		{fwdPlain, fwdTTL, fwdDataPort, nil, nil},
		{fwdPaidSR, fwdTTL, fwdDataPort, route(), pay},
		{fwdUnpaidSR, fwdTTL, fwdDataPort, route(), nil},
		{fwdPort25, fwdTTL, fwdBlockedPort, nil, nil},
		{fwdTTL1, 1, fwdDataPort, nil, nil},
		{fwdBadVersion, fwdTTL, fwdDataPort, nil, nil},
	}
	for _, s := range steps {
		if out[s.c], err = build(s.ttl, s.port, s.sr, s.pay); err != nil {
			return out, fmt.Errorf("wire-forward: template %s: %w", fwdClassNames[s.c], err)
		}
	}
	// A version nibble the filter rejects; the header length stays valid
	// so the sequence number can still be patched in.
	b := out[fwdBadVersion]
	b[0] = (b[0]+0x10)&0xf0 | b[0]&0x0f
	return out, nil
}

// fwdRoute sends everything in provider 9 to node 9.
func fwdRoute(dst packet.Addr, _ *packet.TIP) (topology.NodeID, bool) {
	if dst.Provider() == fwdPeer {
		return fwdPeer, true
	}
	return 0, false
}

// fwdNodeConfig is node 2's personality. The firewall is built per call
// because PortFirewall counts hits without synchronization.
func fwdNodeConfig(pol *netsim.SourceRoutePolicy, pr *fwdProbes) wire.NodeConfig {
	var fw netsim.Middlebox = &middlebox.PortFirewall{Label: "no-smtp", BlockedPorts: map[uint16]bool{fwdBlockedPort: true}}
	route := netsim.RouteFunc(fwdRoute)
	if pr != nil {
		fw = &probedMiddlebox{Middlebox: fw, pr: pr}
		route = pr.route
	}
	return wire.NodeConfig{
		ID:                fwdNode,
		Route:             route,
		HonorSourceRoutes: true,
		SourceRoutePolicy: pol,
		Middleboxes:       []netsim.Middlebox{fw},
		Peers:             []topology.NodeID{fwdPeer},
	}
}

// newForwardEngine builds node 2: it compiles the admission policy,
// builds the dataplane and binds the socket.
func newForwardEngine(client netip.AddrPort, pr *fwdProbes) (*wire.Engine, error) {
	pol, err := netsim.CompileSourceRoutePolicy(fwdPolicy)
	if err != nil {
		return nil, fmt.Errorf("wire-forward: policy: %w", err)
	}
	eng, err := wire.New(wire.Config{
		Listen:       "127.0.0.1:0",
		Workers:      1,
		Peers:        map[topology.NodeID]netip.AddrPort{fwdPeer: client},
		NewDataplane: func() *wire.Dataplane { return wire.NewDataplane(fwdNodeConfig(pol, pr)) },
	})
	if err != nil {
		return nil, fmt.Errorf("wire-forward: %w", err)
	}
	return eng, nil
}

// fwdProbes are the trace wrappers around the engine's public seams: the
// middlebox chain and the route function. While on, they read the clock
// around every call and keep a span for one datagram in fwdSampleEvery.
type fwdProbes struct {
	tr      *tracer
	classes []fwdClass
	on      atomic.Bool
}

// seqOf reads the TTP sequence number behind a serialized TIP header.
func seqOf(data []byte) (uint32, bool) {
	if len(data) < 1 {
		return 0, false
	}
	hlen := int(data[0]&0x0f) * 8
	if len(data) < hlen+8 {
		return 0, false
	}
	return binary.BigEndian.Uint32(data[hlen+4:]), true
}

// setSeq patches a datagram's TTP sequence number (see seqOf).
func setSeq(data []byte, seq uint32) {
	binary.BigEndian.PutUint32(data[int(data[0]&0x0f)*8+4:], seq)
}

func (p *fwdProbes) record(seq uint32, name string, start, end int64) {
	if seq%fwdSampleEvery != 0 {
		return
	}
	var parent uint64
	if p.classes[int(seq)%len(p.classes)].returns() {
		parent = rootID(uint64(seq))
	}
	p.tr.add(span{ID: p.tr.childID(), Parent: parent, Req: uint64(seq), Name: name, Start: start, End: end})
}

func (p *fwdProbes) route(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
	if !p.on.Load() {
		return fwdRoute(dst, tip)
	}
	t0 := p.tr.now()
	next, ok := fwdRoute(dst, tip)
	if ttp := tip.LayerPayload(); len(ttp) >= 8 {
		p.record(binary.BigEndian.Uint32(ttp[4:]), "route", t0, p.tr.now())
	}
	return next, ok
}

// probedMiddlebox times the wrapped firewall's Process calls while the
// probes are on.
type probedMiddlebox struct {
	netsim.Middlebox
	pr *fwdProbes
}

func (m *probedMiddlebox) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	if !m.pr.on.Load() {
		return m.Middlebox.Process(node, dir, data)
	}
	t0 := m.pr.tr.now()
	out, v := m.Middlebox.Process(node, dir, data)
	if seq, ok := seqOf(data); ok {
		m.pr.record(seq, "middlebox.fw", t0, m.pr.tr.now())
	}
	return out, v
}

// fwdClient is node 9: one unconnected stdlib UDP socket that sends the
// mix and checks what comes back.
type fwdClient struct {
	conn    *net.UDPConn
	target  netip.AddrPort
	classes []fwdClass
	tmpl    [fwdClasses][]byte
	epoch   time.Time
	tr      *tracer

	// Sender state.
	sbuf     []byte
	next     uint32
	sent     [fwdClasses]int64
	sendErrs int64

	// Receiver state.
	rbuf       []byte
	tip        packet.TIP
	ttp        packet.TTP
	writtenOff int64 // returning datagrams the closed loop stopped waiting for
	late       int64 // written-off datagrams that came back after all
}

func (c *fwdClient) classOf(seq uint32) fwdClass { return c.classes[int(seq)%len(c.classes)] }

func (c *fwdClient) now() int64 { return int64(time.Since(c.epoch)) }

// send transmits the next datagram of the schedule stamped with stamp and
// returns its sequence number and class; ok is false when the socket
// refused it.
func (c *fwdClient) send(stamp int64) (seq uint32, cl fwdClass, ok bool) {
	seq, cl = c.next, c.classOf(c.next)
	c.next++
	b := c.sbuf[:len(c.tmpl[cl])]
	copy(b, c.tmpl[cl])
	setSeq(b, seq)
	binary.BigEndian.PutUint64(b[len(b)-8:], uint64(stamp))
	if _, err := c.conn.WriteToUDPAddrPort(b, c.target); err != nil {
		c.sendErrs++
		return seq, cl, false
	}
	c.sent[cl]++
	return seq, cl, true
}

// verify decodes a returned datagram and checks it against what was
// sent: the TTL went down by exactly one, the addresses, port and stamp
// are intact, the class is one that returns, and the source route shows
// the admission policy's decision (a paid route advanced past node 2, an
// unpaid one left alone). seq must lie below hi, the first sequence
// number not yet sent; the caller tells a straggler from an earlier loop
// by its sequence number.
func (c *fwdClient) verify(b []byte, hi uint32) (seq uint32, stamp int64, err error) {
	if err := c.tip.DecodeReuse(b); err != nil {
		return 0, 0, fmt.Errorf("returned datagram does not decode: %w", err)
	}
	if err := c.ttp.DecodeFrom(c.tip.LayerPayload()); err != nil {
		return 0, 0, fmt.Errorf("returned datagram has no transport header: %w", err)
	}
	seq = c.ttp.Seq
	if seq >= hi {
		return seq, 0, fmt.Errorf("returned datagram %d was never sent (next is %d)", seq, hi)
	}
	cl := c.classOf(seq)
	switch {
	case !cl.returns():
		return seq, 0, fmt.Errorf("datagram %d of drop class %s came back", seq, fwdClassNames[cl])
	case c.tip.TTL != fwdTTL-1:
		return seq, 0, fmt.Errorf("datagram %d returned with TTL %d, want %d", seq, c.tip.TTL, fwdTTL-1)
	case c.tip.Src != fwdSrc || c.tip.Dst != fwdDst || c.ttp.DstPort != fwdDataPort:
		return seq, 0, fmt.Errorf("datagram %d returned with rewritten addresses or port", seq)
	case len(c.ttp.LayerPayload()) != 8:
		return seq, 0, fmt.Errorf("datagram %d returned with a %d-byte payload, want 8", seq, len(c.ttp.LayerPayload()))
	}
	sr := c.tip.SourceRoute
	switch cl {
	case fwdPlain:
		if sr != nil || c.tip.Payment != nil {
			return seq, 0, fmt.Errorf("plain datagram %d returned with options", seq)
		}
	case fwdPaidSR:
		if sr == nil || sr.Ptr != 1 || c.tip.Payment == nil {
			return seq, 0, fmt.Errorf("paid source-routed datagram %d was not advanced past node %d", seq, fwdNode)
		}
	case fwdUnpaidSR:
		if sr == nil || sr.Ptr != 0 || c.tip.Payment != nil {
			return seq, 0, fmt.Errorf("unpaid source-routed datagram %d had its route honored", seq)
		}
	}
	return seq, int64(binary.BigEndian.Uint64(c.ttp.LayerPayload())), nil
}

// fwdPhase is one phase's outcome at the client.
type fwdPhase struct {
	sent       int64 // datagrams handed to the socket
	returning  int64 // of which in a returning class
	returned   int64 // returned while the loop still waited for them
	cpu        time.Duration
	wall       time.Duration
	mem        memCounters
	rates      []float64 // closed loop: per-interval return rates
	cpuPerPkt  []float64 // closed loop: per-interval CPU per returned datagram, ns
	rtts       []float64 // open loop: round trips from the due time, ns
	lateNs     []float64 // open loop: generator lateness, ns
	verifyErrs []error
}

// missing is how many returning datagrams the phase stopped waiting for.
func (p *fwdPhase) missing() int64 { return p.returning - p.returned }

// merge adds segment q's outcome to p.
func (p *fwdPhase) merge(q fwdPhase) {
	p.sent += q.sent
	p.returning += q.returning
	p.returned += q.returned
	p.cpu += q.cpu
	p.wall += q.wall
	p.mem.mallocs += q.mem.mallocs
	p.mem.bytes += q.mem.bytes
	p.mem.gcs += q.mem.gcs
	p.rates = append(p.rates, q.rates...)
	p.cpuPerPkt = append(p.cpuPerPkt, q.cpuPerPkt...)
	p.verifyErrs = append(p.verifyErrs, q.verifyErrs...)
}

// fwdRingSize bounds the closed loop's table of datagrams in flight,
// indexed by sequence number modulo its size: a datagram still
// outstanding when its slot comes round again — fwdRingSize sends later —
// is written off.
const fwdRingSize = 1 << 16

type fwdSlot struct {
	seq   uint32
	stamp int64
	live  bool
}

// closedLoop keeps fwdWindow returning datagrams in flight for dur,
// sending the next one only when one comes back; drop-class datagrams are
// sent as the schedule reaches them and take no window slot. The single
// goroutine blocks in the socket read, never spins. A read timeout writes
// the whole window off; a written-off datagram that turns up later, in
// this loop or a later one, counts as late (see fwdClient).
func (c *fwdClient) closedLoop(dur time.Duration, record bool) (fwdPhase, error) {
	var ph fwdPhase
	width := min(time.Second, dur/5)
	ring := make([]fwdSlot, fwdRingSize)
	inflight := 0
	counts := []int{}
	runtime.GC()
	m0, cpu0 := readMem(), cpuTime()
	cpuMarks := []time.Duration{cpu0} // process CPU as each interval starts
	start := c.now()
	end := start + int64(dur)
	deadline := time.Time{}
	for {
		now := c.now()
		for inflight < fwdWindow && now < end {
			seq, cl, ok := c.send(now)
			slot := &ring[seq%fwdRingSize]
			if slot.live {
				slot.live = false
				inflight--
				c.writtenOff++
			}
			if !ok {
				continue
			}
			ph.sent++
			if cl.returns() {
				*slot = fwdSlot{seq: seq, stamp: now, live: true}
				ph.returning++
				inflight++
			}
		}
		if inflight == 0 && now >= end {
			break
		}
		// Refreshing the deadline only when half of it is used keeps the
		// timer off the per-datagram path.
		if wall := time.Now(); deadline.Sub(wall) < fwdReadTimeout/2 {
			deadline = wall.Add(fwdReadTimeout)
			if err := c.conn.SetReadDeadline(deadline); err != nil {
				return ph, fmt.Errorf("wire-forward: %w", err)
			}
		}
		n, _, err := c.conn.ReadFromUDPAddrPort(c.rbuf)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			for i := range ring {
				if ring[i].live {
					ring[i].live = false
					c.writtenOff++
				}
			}
			inflight = 0
			if c.now() >= end {
				break
			}
			continue
		}
		if err != nil {
			return ph, fmt.Errorf("wire-forward: read: %w", err)
		}
		got := c.now()
		seq, stamp, err := c.verify(c.rbuf[:n], c.next)
		if err != nil {
			ph.verifyErrs = append(ph.verifyErrs, err)
			continue
		}
		slot := &ring[seq%fwdRingSize]
		switch {
		case !slot.live || slot.seq != seq:
			c.late++
			continue
		case slot.stamp != stamp:
			ph.verifyErrs = append(ph.verifyErrs, fmt.Errorf("datagram %d returned with stamp %d, sent %d", seq, stamp, slot.stamp))
			continue
		}
		slot.live = false
		inflight--
		ph.returned++
		if got < end {
			b := int((got - start) / int64(width))
			for len(counts) <= b {
				if len(counts) > 0 {
					cpuMarks = append(cpuMarks, cpuTime())
				}
				counts = append(counts, 0)
			}
			counts[b]++
		}
		if record && seq%fwdSampleEvery == 0 {
			c.tr.add(span{ID: rootID(uint64(seq)), Req: uint64(seq), Name: "fwd.request", Start: stamp, End: got})
		}
	}
	ph.wall = time.Duration(c.now() - start)
	ph.cpu, ph.mem = cpuTime()-cpu0, readMem().since(m0)
	cpuMarks = append(cpuMarks, cpu0+ph.cpu)
	// Only whole intervals count; the last one is cut short by the end.
	if whole := int(dur / width); len(counts) > whole {
		counts = counts[:whole]
	}
	ph.rates = intervalRates(counts, int64(width))
	for k, n := range counts {
		if n > 0 {
			ph.cpuPerPkt = append(ph.cpuPerPkt, float64(cpuMarks[k+1]-cpuMarks[k])/float64(n))
		}
	}
	return ph, nil
}

// openLoop sends bursts of fwdBurst datagrams every fwdBurstEvery for
// dur, each stamped with its burst's due time, whatever the engine does;
// a separate goroutine reads the returns and times each from its due
// time, so a stall charges every datagram it delayed.
func (c *fwdClient) openLoop(dur time.Duration, record bool) (fwdPhase, error) {
	var ph fwdPhase
	bursts := int(dur / fwdBurstEvery)
	lo := c.next
	hi := lo + uint32(bursts*fwdBurst)
	start := c.now() + int64(fwdBurstEvery)
	dueOf := func(seq uint32) int64 { return start + int64((seq-lo)/fwdBurst)*int64(fwdBurstEvery) }

	type result struct {
		returned, late int64
		rtts           []float64
		errs           []error
		err            error
	}
	sendDone := make(chan struct{})
	recvDone := make(chan result, 1)
	var returningSent atomic.Int64
	go func() {
		var r result
		seen := make([]bool, hi-lo)
		finishing := false
		var quit int64
		for {
			if !finishing {
				select {
				case <-sendDone:
					finishing = true
					quit = c.now() + int64(fwdGrace)
				default:
				}
			}
			if finishing && (r.returned >= returningSent.Load() || c.now() >= quit) {
				break
			}
			if err := c.conn.SetReadDeadline(time.Now().Add(fwdPoll)); err != nil {
				r.err = err
				break
			}
			n, _, err := c.conn.ReadFromUDPAddrPort(c.rbuf)
			if errors.Is(err, os.ErrDeadlineExceeded) {
				continue
			}
			if err != nil {
				r.err = err
				break
			}
			got := c.now()
			seq, stamp, err := c.verify(c.rbuf[:n], hi)
			switch {
			case err != nil:
				r.errs = append(r.errs, err)
				continue
			case seq < lo:
				r.late++ // written off by the closed loop
				continue
			case stamp != dueOf(seq):
				r.errs = append(r.errs, fmt.Errorf("datagram %d returned with stamp %d, due %d", seq, stamp, dueOf(seq)))
				continue
			case seen[seq-lo]:
				r.errs = append(r.errs, fmt.Errorf("datagram %d returned twice", seq))
				continue
			}
			seen[seq-lo] = true
			r.returned++
			r.rtts = append(r.rtts, float64(got-stamp))
			if record && seq%fwdSampleEvery == 0 {
				c.tr.add(span{ID: rootID(uint64(seq)), Req: uint64(seq), Name: "fwd.request", Start: stamp, End: got})
			}
		}
		recvDone <- r
	}()

	dues := make([]int64, 0, bursts*fwdBurst)
	sentAt := make([]int64, 0, bursts*fwdBurst)
	runtime.GC()
	m0, cpu0 := readMem(), cpuTime()
	for k := 0; k < bursts; k++ {
		due := start + int64(k)*int64(fwdBurstEvery)
		c.waitUntil(due)
		for j := 0; j < fwdBurst; j++ {
			dues, sentAt = append(dues, due), append(sentAt, c.now())
			_, cl, ok := c.send(due)
			if !ok {
				continue
			}
			ph.sent++
			if cl.returns() {
				ph.returning++
				returningSent.Add(1)
			}
		}
	}
	close(sendDone)
	r := <-recvDone
	ph.lateNs = lateness(dues, sentAt)
	ph.wall = time.Duration(c.now() - start)
	ph.cpu, ph.mem = cpuTime()-cpu0, readMem().since(m0)
	if r.err != nil {
		return ph, fmt.Errorf("wire-forward: read: %w", r.err)
	}
	c.late += r.late
	ph.returned, ph.rtts, ph.verifyErrs = r.returned, r.rtts, r.errs
	return ph, nil
}

// waitUntil returns at the client-clock instant due. A timer sleep can
// overshoot by a whole scheduler tick — a millisecond on common kernels,
// many round trips — so it sleeps only to within fwdSpinWindow of due and
// yields in a loop for the rest, leaving the other processor to the
// engine.
func (c *fwdClient) waitUntil(due int64) {
	if wait := time.Duration(due-c.now()) - fwdSpinWindow; wait > 0 {
		time.Sleep(wait)
	}
	for c.now() < due {
		runtime.Gosched()
	}
}

// growRecvBuffer raises to size the receive buffer of this process's UDP
// socket bound to addr. The engine keeps the kernel default, room for
// about 200 minimum-size datagrams or 20 ms of the open loop, so a host
// stall longer than that would drop datagrams the engine never saw. With
// a buffer as large as the client's, such a stall delays them instead.
// The engine has no option for it, so the socket is found by its address
// among the process's descriptors.
func growRecvBuffer(addr netip.AddrPort, size int) error {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return fmt.Errorf("wire-forward: engine buffer: %w", err)
	}
	for _, ent := range ents {
		fd, err := strconv.Atoi(ent.Name())
		if err != nil {
			continue
		}
		sa, err := syscall.Getsockname(fd)
		if err != nil {
			continue // not a socket, or closed since the listing
		}
		in4, ok := sa.(*syscall.SockaddrInet4)
		if !ok || in4.Port != int(addr.Port()) || netip.AddrFrom4(in4.Addr) != addr.Addr() {
			continue
		}
		if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, size); err != nil {
			return fmt.Errorf("wire-forward: engine buffer: %w", err)
		}
		return nil
	}
	return fmt.Errorf("wire-forward: engine buffer: no socket bound to %v", addr)
}

// runForward is the wire-forward workload.
func runForward(e *env) error {
	conn, err := listenLoopback()
	if err != nil {
		return fmt.Errorf("wire-forward: client socket: %w", err)
	}
	defer conn.Close()
	// Room for a full window and the open loop's bursts without loss. The
	// kernel may cap the size; a smaller buffer can only lose datagrams,
	// which the run counts as failed.
	_ = conn.SetReadBuffer(fwdSocketBuffer)
	_ = conn.SetWriteBuffer(fwdSocketBuffer)
	client := conn.LocalAddr().(*net.UDPAddr).AddrPort()

	// The set-up the workload times: the seeded class schedule and the
	// datagram templates, then node 2 itself (policy compile, dataplane,
	// socket bind). It runs once for real and a third of fwdSetups times
	// more before, between and after the two phases, each after a
	// collection, so the median samples the whole run.
	var pr *fwdProbes
	if e.tr != nil {
		pr = &fwdProbes{tr: e.tr}
	}
	var setups []float64
	setUp := func() ([]fwdClass, [fwdClasses][]byte, *wire.Engine, error) {
		t0 := time.Now()
		classes := fwdSchedule(e.seed)
		tmpl, err := fwdTemplates()
		if err != nil {
			return nil, tmpl, nil, err
		}
		eng, err := newForwardEngine(client, pr)
		if err != nil {
			return nil, tmpl, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		return classes, tmpl, eng, nil
	}
	setupReps := func() error {
		for i := 0; i < fwdSetups/3; i++ {
			runtime.GC()
			_, _, eng, err := setUp()
			if err != nil {
				return err
			}
			eng.Close()
		}
		return nil
	}
	classes, tmpl, eng, err := setUp()
	if err != nil {
		return err
	}
	if pr != nil {
		pr.classes = classes
	}
	var wg sync.WaitGroup
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			eng.Close()
			wg.Wait()
		}
	}
	defer stop()
	if err := growRecvBuffer(eng.Addr(), fwdSocketBuffer); err != nil {
		return err
	}
	if err := setupReps(); err != nil {
		return err
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng.Run()
	}()

	c := &fwdClient{
		conn: conn, target: eng.Addr(), classes: classes, tmpl: tmpl, epoch: time.Now(), tr: e.tr,
		sbuf: make([]byte, 256), rbuf: make([]byte, 2048),
	}
	if e.tr != nil {
		c.epoch = e.tr.epoch
	}

	bare, err := newBareEcho()
	if err != nil {
		return fmt.Errorf("wire-forward: %w", err)
	}
	defer bare.Close()

	// Phase A, the closed loop, runs in fwdSegments segments. Each is 70%
	// engine and 30% the same loop against the bare echo, so both see the
	// same host moment: a returned datagram's time in bare round trips is
	// what the forwarding decision costs the loop. In a traced run every
	// other segment is traced, and the difference is the tracing overhead.
	seg := e.budget / 2 / fwdSegments
	sched0 := readSched()
	var phA, phAtraced fwdPhase
	var rel, bareNs []float64
	for k := 0; k < fwdSegments; k++ {
		traced := e.tr != nil && k%2 == 1
		if pr != nil {
			pr.on.Store(traced)
		}
		ph, err := c.closedLoop(seg*7/10, traced)
		if err != nil {
			return err
		}
		rt, err := bare.roundTripNs(tmpl[fwdPlain], fwdWindow, seg*3/10)
		if err != nil {
			return fmt.Errorf("wire-forward: %w", err)
		}
		bareNs = append(bareNs, rt)
		if traced {
			phAtraced.merge(ph)
			continue
		}
		phA.merge(ph)
		if len(ph.rates) > 0 {
			rel = append(rel, 1e9/mean(ph.rates)/rt)
		}
	}
	if err := setupReps(); err != nil {
		return err
	}
	if pr != nil {
		pr.on.Store(true)
	}
	phB, err := c.openLoop(e.budget/2, e.tr != nil)
	if err != nil {
		return err
	}
	sched1 := readSched()
	if err := setupReps(); err != nil {
		return err
	}

	// Let the engine finish what is queued, then reconcile its counters
	// with what the client sent and got back.
	sent := c.sent
	total := int64(0)
	for _, n := range sent {
		total += n
	}
	st := eng.Stats()
	for t0 := time.Now(); st.Received < uint64(total) && time.Since(t0) < fwdGrace; st = eng.Stats() {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	st = eng.Stats()

	rep := e.rep
	for _, ph := range []*fwdPhase{&phA, &phAtraced, &phB} {
		for _, err := range ph.verifyErrs {
			rep.fail("wire-forward: %v", err)
		}
	}
	if c.late > c.writtenOff {
		rep.fail("wire-forward: %d late returns but only %d datagrams written off: duplicates", c.late, c.writtenOff)
	}
	returned := phA.returned + phAtraced.returned + phB.returned + c.late
	lost := phA.missing() + phAtraced.missing() + phB.missing() - c.late
	rep.attempted = total + c.sendErrs
	rep.failed = lost + c.sendErrs
	fwdReconcile(rep, st, sent, returned)

	rtts := withLost(phB.rtts, int(phB.missing()))
	p50 := percentile(sorted(rtts), 50)
	rep.set("setup_s", median(setups))
	rep.set("rel_time", median(rel))
	rep.layer("rate_per_s", median(phA.rates))
	rep.layer("latency_ms", p50/1e6)
	rep.layer("baseline_us", median(bareNs)/1e3)
	rep.layer("cpu_us_per_unit", median(phA.cpuPerPkt)/1e3)
	rep.note("wire-forward: closed loop %d datagrams in %v, %.0f/s (%s); a returned datagram took %.3f bare-echo round trips of %.2f us (%s)",
		phA.sent+phAtraced.sent, phA.wall+phAtraced.wall, median(phA.rates), quantileNote(phA.rates),
		median(rel), median(bareNs)/1e3, quantileNote(rel))
	rep.note("wire-forward: open loop %d datagrams at %d pps, round trip p50 %.1f us; set-up %s s",
		phB.sent, int(time.Second/fwdBurstEvery)*fwdBurst, p50/1e3, quantileNote(setups))
	if t, ok := highestTail(rtts); ok {
		rep.note("wire-forward: open-loop round trip p%g = %.1f us (n=%d, %d beyond; lost=%d)", t.P, t.Value/1e3, t.N, t.Beyond, phB.missing())
		rep.layer("fwd.rtt_tail_us", t.Value/1e3)
	}
	rep.note("wire-forward: engine %s", oneLine(st.String()))
	if e.tr == nil {
		return nil
	}

	// Per-layer: the decision kernel's stages replayed on this run's mix,
	// then what the live loop spends outside the kernel.
	lad, err := fwdLadder(classes, tmpl)
	if err != nil {
		return err
	}
	for _, s := range lad.stages {
		rep.layer(s.metric, s.ns)
	}
	rep.layer("wire.process_ns", lad.processNs)
	rep.layer("wire.glue_ns", lad.glueNs())
	sentA := float64(max(1, phA.sent))
	kernelPerSent := lad.filterNs() + lad.processNs*lad.accepted
	rep.layer("wire.residual_ns", float64(phA.cpu.Nanoseconds())/sentA-kernelPerSent)
	rep.layer("wire.fastpath_share", float64(st.Forwarded)/float64(max(1, st.Received)))
	rejected := st.Received - st.Accepted()
	rep.layer("wire.drops.filtered", float64(rejected))
	rep.layer("wire.drops.blocked", float64(st.Drops[wire.DropBlocked]))
	rep.layer("wire.drops.ttl", float64(st.Drops[wire.DropTTL]))
	rep.layer("fwd.allocs_per_pkt", float64(phA.mem.mallocs)/sentA)
	rep.schedWait(sched0, sched1)
	late := sorted(phB.lateNs)
	rep.layer("gen.late_p50_us", percentile(late, 50)/1e3)
	rep.layer("gen.late_max_us", percentile(late, 100)/1e3)
	rep.layer("go.gc_cycles", float64(phA.mem.gcs+phAtraced.mem.gcs+phB.mem.gcs))
	plainPerPkt := median(phA.cpuPerPkt)
	rep.layer("trace.overhead_pct", 100*(median(phAtraced.cpuPerPkt)-plainPerPkt)/plainPerPkt)
	rep.note("wire-forward: kernel ladder %s", lad)
	return nil
}

// fwdReconcile checks the engine's counters against the client's view.
// Every datagram the engine received was either rejected by the sanity
// filter (the bad-version class), blocked by the firewall (port 25),
// expired (TTL 1) or forwarded; nothing is delivered locally, routed
// nowhere or lost to a send error. When nothing was lost on the way in,
// each class count matches exactly; the forwarded count always covers
// what came back.
func fwdReconcile(rep *report, st wire.Stats, sent [fwdClasses]int64, returned int64) {
	total := int64(0)
	for _, n := range sent {
		total += n
	}
	rejected := st.Received - st.Accepted()
	blocked, expired := st.Drops[wire.DropBlocked], st.Drops[wire.DropTTL]
	if got := rejected + blocked + expired + st.Forwarded; got != st.Received {
		rep.fail("wire-forward: engine received %d but accounts for %d", st.Received, got)
	}
	if other := st.TotalDropped() - blocked - expired; other != 0 || st.Delivered != 0 || st.NoPeer != 0 || st.SendErrors != 0 {
		rep.fail("wire-forward: unexpected engine outcomes: other drops %d, delivered %d, no-peer %d, send errors %d",
			other, st.Delivered, st.NoPeer, st.SendErrors)
	}
	if rejected != st.Filtered[packet.FilterBadVersion] {
		rep.fail("wire-forward: filter rejected %d datagrams, %d of them for a bad version", rejected, st.Filtered[packet.FilterBadVersion])
	}
	if int64(st.Received) > total {
		rep.fail("wire-forward: engine received %d datagrams, client sent %d", st.Received, total)
	}
	if int64(st.Forwarded) < returned {
		rep.fail("wire-forward: client got %d datagrams back, engine forwarded %d", returned, st.Forwarded)
	}
	if int64(st.Received) != total {
		rep.note("wire-forward: %d datagrams lost before the engine; per-class counts checked as bounds", total-int64(st.Received))
	}
	exact := int64(st.Received) == total
	for _, chk := range []struct {
		what string
		got  uint64
		want int64
	}{
		{"filtered", rejected, sent[fwdBadVersion]},
		{"blocked", blocked, sent[fwdPort25]},
		{"expired", expired, sent[fwdTTL1]},
		{"forwarded", st.Forwarded, sent[fwdPlain] + sent[fwdPaidSR] + sent[fwdUnpaidSR]},
	} {
		if exact && int64(chk.got) != chk.want || int64(chk.got) > chk.want {
			rep.fail("wire-forward: engine %s %d datagrams, client sent %d of that class", chk.what, chk.got, chk.want)
		}
	}
}
