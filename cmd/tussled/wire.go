package main

// Wire mode: tussled as a live UDP element. -listen turns the process
// into a TIP forwarding/delivery node driven by internal/wire's batched
// engine; -blast turns it into the matching load generator.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport/multipath"
	"repro/internal/wire"
)

// peerFlag accumulates repeated -peer id=addr mappings.
type peerFlag map[topology.NodeID]netip.AddrPort

func (p peerFlag) String() string {
	var parts []string
	for id, a := range p {
		parts = append(parts, fmt.Sprintf("%d=%s", id, a))
	}
	return strings.Join(parts, ",")
}

func (p peerFlag) Set(v string) error {
	id, addr, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want id=host:port, got %q", v)
	}
	n, err := strconv.ParseUint(id, 10, 16)
	if err != nil {
		return fmt.Errorf("peer id %q: %w", id, err)
	}
	ap, err := netip.ParseAddrPort(addr)
	if err != nil {
		return fmt.Errorf("peer addr %q: %w", addr, err)
	}
	p[topology.NodeID(n)] = ap
	return nil
}

// parseTIPAddr reads "provider.host" (e.g. "4.1") into a packet.Addr.
func parseTIPAddr(s string) (packet.Addr, error) {
	ps, hs, ok := strings.Cut(s, ".")
	if !ok {
		return 0, fmt.Errorf("want provider.host, got %q", s)
	}
	p, err := strconv.ParseUint(ps, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("provider %q: %w", ps, err)
	}
	h, err := strconv.ParseUint(hs, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("host %q: %w", hs, err)
	}
	return packet.MakeAddr(uint16(p), uint16(h)), nil
}

const (
	batch = 64 // datagrams per recvmmsg/sendmmsg call

	// A multipath blast stripes an mpSeed-derived payload over mpPaths
	// paths to TTP port mpPort; its server reassembles with -mprecv 7777.
	mpPort    = 7777
	mpPaths   = 3
	mpSeed    = 42
	mpWindow  = 64               // send window in segments
	mpSeg     = 1024             // segment size in bytes
	mpTimeout = 60 * time.Second // transfer deadline
)

// runServe is tussled -listen: serve TIP over UDP until SIGINT or
// SIGTERM, then flush profiles and print the final counters.
func runServe(o *options, stdout, stderr io.Writer, notify func(chan<- os.Signal, ...os.Signal)) int {
	var srPolicy *netsim.SourceRoutePolicy
	if o.srcroutePolicy != "" {
		var err error
		if srPolicy, err = netsim.CompileSourceRoutePolicy(o.srcroutePolicy); err != nil {
			fmt.Fprintf(stderr, "tussled: -srcroute-policy: %v\n", err)
			return 1
		}
	}

	id := topology.NodeID(o.node)
	peers := o.peers
	peerIDs := make([]topology.NodeID, 0, len(peers))
	for pid := range peers {
		peerIDs = append(peerIDs, pid)
	}
	// Provider-is-node routing: a destination in provider P goes to the
	// peer serving node P. No peer, no route.
	route := func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
		next := topology.NodeID(dst.Provider())
		_, ok := peers[next]
		return next, ok
	}
	// One PathImpairment instance is shared by every worker's dataplane
	// chain (it is stateless apart from atomics), so one SIGUSR1 flips
	// the fault for the whole engine.
	var impair *wire.PathImpairment
	if o.impairPath > 0 {
		impair = &wire.PathImpairment{PathID: o.impairPath, Port: uint16(o.impairPort)}
		impair.SetEnabled(o.impairOn)
	}
	workers := runtime.GOMAXPROCS(0)
	var mpRecv *wire.MultipathReceiver
	var deliver func(data []byte, from netip.AddrPort) []byte
	if o.mprecv > 0 {
		mpRecv = wire.NewMultipathReceiver(id, uint16(o.mprecv), workers*batch*2)
		deliver = mpRecv.Deliver
	}
	eng, err := wire.New(wire.Config{
		Listen:  o.listen,
		Workers: workers,
		Batch:   batch,
		Echo:    o.echo,
		Deliver: deliver,
		Peers:   peers,
		NewDataplane: func() *wire.Dataplane {
			var mbs []netsim.Middlebox
			if impair != nil {
				mbs = append(mbs, impair)
			}
			return wire.NewDataplane(wire.NodeConfig{
				ID:                id,
				Route:             route,
				HonorSourceRoutes: o.srcroute || srPolicy != nil,
				SourceRoutePolicy: srPolicy,
				Middleboxes:       mbs,
				Peers:             peerIDs,
			})
		},
	})
	if err != nil {
		fmt.Fprintf(stderr, "tussled: %v\n", err)
		return 1
	}

	stopCPU, err := startCPUProfile(o.cpuprofile)
	if err != nil {
		eng.Close()
		fmt.Fprintf(stderr, "tussled: cpuprofile: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "tussled: node %d serving TIP on %s (%d workers, batch %d)\n", id, eng.Addr(), workers, batch)
	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.Run()
	}()

	sig := make(chan os.Signal, 1)
	if impair != nil {
		notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	} else {
		notify(sig, os.Interrupt, syscall.SIGTERM)
	}
	var tick <-chan time.Time
	if o.filterStats {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		tick = t.C
	}
loop:
	for {
		select {
		case <-tick:
			fmt.Fprintln(stdout, eng.Stats().String())
		case s := <-sig:
			if s != syscall.SIGUSR1 {
				break loop
			}
			v := !impair.Enabled()
			impair.SetEnabled(v)
			fmt.Fprintf(stdout, "tussled: path impairment path=%d enabled=%t dropped=%d\n",
				impair.PathID, v, impair.Dropped())
		}
	}

	eng.Close()
	<-done
	stopCPU()
	if err := writeMemProfile(o.memprofile); err != nil {
		fmt.Fprintf(stderr, "tussled: memprofile: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, eng.Stats().String())
	if impair != nil {
		fmt.Fprintf(stdout, "path-impair: path=%d enabled=%t dropped=%d\n", impair.PathID, impair.Enabled(), impair.Dropped())
	}
	if mpRecv != nil {
		sum := mpRecv.Summary()
		fmt.Fprintf(stdout, "multipath-recv: bytes=%d stream-sha256=%x acks=%d dups=%d\n",
			sum.Bytes, sum.SHA256, sum.Acks, sum.Dups)
		ids := make([]int, 0, len(sum.PathSegments))
		for pid := range sum.PathSegments {
			ids = append(ids, pid)
		}
		sort.Ints(ids)
		for _, pid := range ids {
			fmt.Fprintf(stdout, "multipath-recv: path=%d segments=%d\n", pid, sum.PathSegments[pid])
		}
	}
	if o.obs != "" {
		reg := obs.NewRegistry()
		if mpRecv != nil {
			mpRecv.PublishObs(reg)
		}
		if err := writeObsSnapshot(o.obs, reg); err != nil {
			fmt.Fprintf(stderr, "tussled: -obs: %v\n", err)
			return 1
		}
	}
	return 0
}

// blastAddrs parses the -blast target and the -src and -dst TIP
// addresses, reporting the first bad one to stderr.
func blastAddrs(o *options, stderr io.Writer) (target netip.AddrPort, src, dst packet.Addr, ok bool) {
	target, err := netip.ParseAddrPort(o.blast)
	if err != nil {
		fmt.Fprintf(stderr, "tussled: blast target: %v\n", err)
		return target, 0, 0, false
	}
	if dst, err = parseTIPAddr(o.dst); err != nil {
		fmt.Fprintf(stderr, "tussled: -dst: %v\n", err)
		return target, 0, 0, false
	}
	if src, err = parseTIPAddr(o.src); err != nil {
		fmt.Fprintf(stderr, "tussled: -src: %v\n", err)
		return target, 0, 0, false
	}
	return target, src, dst, true
}

// runBlast is tussled -blast: the load-generator side.
func runBlast(o *options, stdout, stderr io.Writer) int {
	ap, s, d, ok := blastAddrs(o, stderr)
	if !ok {
		return 64
	}
	data, err := packet.Serialize(
		&packet.TIP{TTL: 16, Proto: packet.LayerTypeRaw, Src: s, Dst: d},
		&packet.Raw{Data: []byte("tussled-blast")})
	if err != nil {
		fmt.Fprintf(stderr, "tussled: %v\n", err)
		return 1
	}
	res, err := wire.Blast(wire.BlastConfig{
		Target:  ap,
		Count:   o.count,
		Packets: [][]byte{data},
		Batch:   batch,
		Echo:    o.echo,
	})
	if err != nil {
		fmt.Fprintf(stderr, "tussled: blast: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "blast: sent=%d send-errors=%d received=%d lost=%d elapsed=%s pps=%.0f\n",
		res.Sent, res.SendErrors, res.Received, res.Lost, res.Elapsed.Round(time.Millisecond), res.PPS())
	return 0
}

// runBlastMultipath is tussled -blast -multipath: stripe one reliable,
// seed-derived stream across mpPaths source-routed paths to the target
// and report the transfer outcome. The payload hash printed here must
// match the stream hash the -mprecv server prints at shutdown.
func runBlastMultipath(o *options, stdout, stderr io.Writer) int {
	target, src, dst, ok := blastAddrs(o, stderr)
	if !ok {
		return 64
	}
	strat, err := multipath.StrategyByName(o.mpStrategy)
	if err != nil {
		fmt.Fprintf(stderr, "tussled: -mpstrategy: %v\n", err)
		return 64
	}
	if o.mpBytes <= 0 {
		fmt.Fprintln(stderr, "tussled: -mpbytes must be positive")
		return 64
	}
	// Seed-derived payload: both ends can verify byte-exact delivery
	// from (seed, size) alone, no shared file needed.
	payload := make([]byte, o.mpBytes)
	rng := sim.NewRNG(mpSeed)
	for i := 0; i < len(payload); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8 && i+j < len(payload); j++ {
			payload[i+j] = byte(v >> (8 * j))
		}
	}

	tcfg := multipath.DefaultConfig()
	tcfg.Seed = mpSeed
	tcfg.Paths = mpPaths
	tcfg.Window = mpWindow
	tcfg.SegmentSize = mpSeg
	paths := make([]wire.MPPath, mpPaths)
	for i := range paths {
		paths[i] = wire.MPPath{Via: target, Latency: sim.Millisecond}
	}
	snd, err := wire.NewMultipathSender(wire.MultipathSenderConfig{
		Transport: tcfg,
		Strategy:  strat,
		Src:       topology.NodeID(src.Provider()),
		Dst:       topology.NodeID(dst.Provider()),
		Port:      mpPort,
		Paths:     paths,
		Batch:     batch,
	}, payload)
	if err != nil {
		fmt.Fprintf(stderr, "tussled: multipath: %v\n", err)
		return 1
	}
	var reg *obs.Registry
	if o.obs != "" {
		reg = obs.NewRegistry()
		snd.AttachObs(reg)
	}
	snd.Start()
	finished := snd.Wait(mpTimeout)
	snd.Close()

	st := snd.Stats()
	fmt.Fprintf(stdout, "multipath: strategy=%s bytes=%d payload-sha256=%x\n", o.mpStrategy, len(payload), sha256.Sum256(payload))
	fmt.Fprintf(stdout, "multipath: done=%t failed=%t reason=%q timed-out=%t\n", st.Done, st.Failed, st.FailReason, !finished)
	fmt.Fprintf(stdout, "multipath: segments=%d sent=%d retx=%d probes=%d demotions=%d promotions=%d elapsed=%s\n",
		st.Segments, st.Sent, st.Retransmissions, st.Probes, st.Demotions, st.Promotions,
		time.Duration(st.Elapsed).Round(time.Millisecond))
	for _, p := range snd.Paths() {
		fmt.Fprintf(stdout, "multipath: path=%d state=%s sent=%d acked=%d retx=%d timeouts=%d probes=%d srtt=%s loss=%.3f\n",
			p.Index+1, p.State, p.Sent, p.Acked, p.Retx, p.Timeouts, p.Probes,
			time.Duration(p.SRTT).Round(time.Microsecond), p.Loss)
	}
	if reg != nil {
		if err := writeObsSnapshot(o.obs, reg); err != nil {
			fmt.Fprintf(stderr, "tussled: -obs: %v\n", err)
			return 1
		}
	}
	if !st.Done {
		return 1
	}
	return 0
}

// writeObsSnapshot dumps a registry snapshot as JSON.
func writeObsSnapshot(path string, reg *obs.Registry) error {
	data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
