package main

import (
	"crypto/sha256"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/transport/multipath"
	"repro/internal/wire"
)

// The wire-stripe workload: back-to-back reliable transfers, each striped
// by a wire.MultipathSender across three loopback paths into an
// in-process engine whose delivery hook is a fresh MultipathReceiver. It
// runs the engine's deliver-and-reply path and the multipath state
// machine with its wall-clock timers; no policy or middlebox code runs.

const (
	stripePaths       = 3
	stripeSeg         = 1200
	stripeWindow      = 64
	stripeBasePort    = 7900
	stripeSampleEvery = 64 // trace one delivered segment in 64
	stripeTimeout     = 60 * time.Second
	stripeBareTime    = 50 * time.Millisecond // bare-echo baseline before each transfer
)

// drawPayload fills p with the seed's payload, 8 bytes per RNG step.
func drawPayload(p []byte, seed uint64) {
	rng := sim.NewRNG(seed)
	for i := 0; i < len(p); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8 && i+j < len(p); j++ {
			p[i+j] = byte(v >> (8 * j))
		}
	}
}

// stripeHook is the engine's delivery hook: it hands each datagram to the
// current transfer's receiver and, while tracing, times the call.
type stripeHook struct {
	rcv      atomic.Pointer[wire.MultipathReceiver]
	tr       *tracer
	on       atomic.Bool
	transfer atomic.Uint64
	calls    atomic.Int64
	ns       atomic.Int64
}

func (h *stripeHook) deliver(data []byte, from netip.AddrPort) []byte {
	r := h.rcv.Load()
	if !h.on.Load() {
		return r.Deliver(data, from)
	}
	t0 := h.tr.now()
	out := r.Deliver(data, from)
	t1 := h.tr.now()
	h.ns.Add(t1 - t0)
	if n := h.calls.Add(1); n%stripeSampleEvery == 0 {
		req := h.transfer.Load()
		h.tr.add(span{ID: h.tr.childID(), Parent: rootID(req), Req: req, Name: "multipath.recv", Start: t0, End: t1})
	}
	return out
}

// stripeResult is one transfer's outcome.
type stripeResult struct {
	wall    time.Duration
	cpu     time.Duration
	mem     memCounters
	st      multipath.Stats
	balance float64
	dups    int
	bareNs  float64 // a bare-echo round trip just before the transfer
}

func runStripe(e *env) error {
	size := e.size.stripeBytes
	h := &stripeHook{tr: e.tr}

	payload := make([]byte, size)
	drawPayload(payload, e.seed)
	eng, err := wire.New(wire.Config{Listen: "127.0.0.1:0", Workers: 1, Deliver: h.deliver})
	if err != nil {
		return fmt.Errorf("wire-stripe: %w", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng.Run()
	}()
	defer func() {
		eng.Close()
		wg.Wait()
	}()
	digest := sha256.Sum256(payload)
	h.rcv.Store(wire.NewMultipathReceiver(0, stripeBasePort, 256))
	bare, err := newBareEcho()
	if err != nil {
		return fmt.Errorf("wire-stripe: %w", err)
	}
	defer bare.Close()
	segment := make([]byte, stripeSeg)

	rep := e.rep
	var plain, traced []stripeResult
	var setups []float64
	sched0 := readSched()
	gc0 := readMem().gcs
	start := time.Now()
	// In a traced run, transfers alternate untraced and traced so the two
	// see the same conditions; their difference is the tracing overhead.
	// A set-up runs before every transfer, so their median samples the
	// whole run rather than one moment of it; so does the baseline, a
	// window of segment-sized datagrams through the bare echo.
	for i := 0; i < 2 || time.Since(start) < e.budget; i++ {
		d, err := stripeSetup(e.seed, h, payload)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		rt, err := bare.roundTripNs(segment, stripeWindow, stripeBareTime)
		if err != nil {
			return fmt.Errorf("wire-stripe: %w", err)
		}
		on := e.tr != nil && i%2 == 1
		res, err := stripeTransfer(e, h, eng.Addr(), uint64(i), payload, on)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.fail("wire-stripe: transfer %d: %v", i, err)
			continue
		}
		sum := h.rcv.Load().Summary()
		if err := stripeCheck(sum, len(payload), digest); err != nil {
			rep.failed++
			rep.fail("wire-stripe: transfer %d: %v", i, err)
			continue
		}
		res.dups, res.bareNs = sum.Dups, rt
		if on {
			traced = append(traced, res)
		} else {
			plain = append(plain, res)
		}
	}
	sched1 := readSched()
	if len(plain) == 0 {
		return fmt.Errorf("wire-stripe: no transfer completed")
	}

	mib := float64(len(payload)) / (1 << 20)
	cpuPerMiB := func(rs []stripeResult) float64 {
		var us []float64
		for _, r := range rs {
			us = append(us, float64(r.cpu.Microseconds())/mib)
		}
		return median(us)
	}
	var rates, walls, rel, bareNs []float64
	var segs, sent, retx, mallocs, bytes, balance, dups float64
	for _, r := range plain {
		rates = append(rates, mib/r.wall.Seconds())
		walls = append(walls, float64(r.wall.Nanoseconds())/1e6)
		rel = append(rel, float64(r.wall.Nanoseconds())/float64(r.st.Segments)/r.bareNs)
		bareNs = append(bareNs, r.bareNs)
		segs += float64(r.st.Segments)
		sent += float64(r.st.Sent)
		retx += float64(r.st.Retransmissions)
		mallocs += float64(r.mem.mallocs)
		bytes += float64(r.mem.bytes)
		balance += r.balance
		dups += float64(r.dups)
	}
	n := float64(len(plain))
	rep.set("setup_s", median(setups))
	rep.set("rel_time", median(rel))
	rep.layer("rate_per_s", median(rates))
	rep.layer("latency_ms", median(walls))
	rep.layer("baseline_us", median(bareNs)/1e3)
	rep.layer("cpu_us_per_unit", cpuPerMiB(plain))
	rep.note("wire-stripe: %d transfers of %.0f MiB (%d traced), goodput %.1f MiB/s median (%s), %.0f segments each; set-up %s s",
		len(plain)+len(traced), mib, len(traced), median(rates), quantileNote(rates), segs/n, quantileNote(setups))
	rep.note("wire-stripe: a delivered segment took %.3f bare-echo round trips of %.2f us (%s)", median(rel), median(bareNs)/1e3, quantileNote(rel))

	rep.layer("stripe.allocs_per_seg", mallocs/sent)
	rep.layer("stripe.bytes_per_seg", bytes/sent)
	rep.layer("stripe.useful_ratio", segs/sent)
	rep.layer("stripe.retx", retx/n)
	rep.layer("stripe.dups", dups/n)
	rep.layer("stripe.path_balance", balance/n)
	rep.layer("go.gc_cycles", float64(readMem().gcs-gc0))
	rep.schedWait(sched0, sched1)
	if len(traced) > 0 {
		rep.layer("multipath.recv_ns", float64(h.ns.Load())/float64(max(1, h.calls.Load())))
		rep.layer("trace.overhead_pct", 100*(cpuPerMiB(traced)-cpuPerMiB(plain))/cpuPerMiB(plain))
	}
	return nil
}

// stripeSender configures a transfer to the engine at target: the
// default strategy over three loopback paths, seeded by seed.
func stripeSender(seed uint64, target netip.AddrPort, port uint16) wire.MultipathSenderConfig {
	cfg := multipath.DefaultConfig()
	cfg.Seed = seed
	cfg.Paths = stripePaths
	cfg.Window = stripeWindow
	cfg.SegmentSize = stripeSeg
	paths := make([]wire.MPPath, stripePaths)
	for p := range paths {
		paths[p] = wire.MPPath{Via: target, Latency: sim.Millisecond}
	}
	return wire.MultipathSenderConfig{Transport: cfg, Src: 1, Dst: 0, Port: port, Paths: paths}
}

// stripeSetup times the set-up a transfer needs before its first segment:
// binding an engine and building a sender (socket, per-path header
// templates, segment table). Both are torn down again.
func stripeSetup(seed uint64, h *stripeHook, payload []byte) (time.Duration, error) {
	t0 := time.Now()
	eng, err := wire.New(wire.Config{Listen: "127.0.0.1:0", Workers: 1, Deliver: h.deliver})
	if err != nil {
		return 0, fmt.Errorf("wire-stripe: set-up: %w", err)
	}
	defer eng.Close()
	snd, err := wire.NewMultipathSender(stripeSender(seed, eng.Addr(), stripeBasePort), payload)
	if err != nil {
		return 0, fmt.Errorf("wire-stripe: set-up: %w", err)
	}
	d := time.Since(t0)
	snd.Close()
	return d, nil
}

// stripeCheck is the transfer oracle: the reassembled stream is the
// payload, byte for byte, and every path carried segments.
func stripeCheck(sum wire.MPRecvSummary, size int, digest [32]byte) error {
	if sum.Bytes != size || sum.SHA256 != digest {
		return fmt.Errorf("reassembled %d bytes with sha256 %x, want %d bytes %x", sum.Bytes, sum.SHA256, size, digest)
	}
	for p := 1; p <= stripePaths; p++ {
		if sum.PathSegments[p] == 0 {
			return fmt.Errorf("path %d carried no segments: %v", p, sum.PathSegments)
		}
	}
	return nil
}

// stripeTransfer runs transfer i to completion against a fresh receiver.
// Each transfer uses its own TTP port, so a straggling segment of the
// previous transfer is ignored rather than reassembled into this one.
func stripeTransfer(e *env, h *stripeHook, target netip.AddrPort, i uint64, payload []byte, on bool) (stripeResult, error) {
	var res stripeResult
	port := uint16(stripeBasePort + i%1000)
	h.rcv.Store(wire.NewMultipathReceiver(0, port, 256))
	h.transfer.Store(i)
	h.on.Store(on)
	defer h.on.Store(false)
	// A collection first returns the previous transfer's stream, so
	// every transfer starts from the same heap.
	runtime.GC()
	m0, cpu0 := readMem(), cpuTime()
	var t0 int64
	if on {
		t0 = e.tr.now()
	}
	wall0 := time.Now()
	snd, err := wire.NewMultipathSender(stripeSender(e.seed, target, port), payload)
	if err != nil {
		return res, err
	}
	defer snd.Close()
	snd.Start()
	finished := snd.Wait(stripeTimeout)
	res.wall = time.Since(wall0)
	res.cpu = cpuTime() - cpu0
	res.mem = readMem().since(m0)
	if on {
		e.tr.add(span{ID: rootID(i), Req: i, Name: "stripe.transfer", Start: t0, End: e.tr.now()})
	}
	res.st = snd.Stats()
	res.balance = multipath.Fairness(snd.Paths())
	if !finished || !res.st.Done || res.st.Failed {
		return res, fmt.Errorf("transfer did not complete (finished=%t, %+v)", finished, res.st)
	}
	return res, nil
}
