package wire

import (
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/topology"
)

// startEngine boots an engine on loopback and tears it down with the
// test.
func startEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.Run()
	}()
	t.Cleanup(func() {
		eng.Close()
		<-done
	})
	return eng
}

// TestEngineLoopbackEcho is the end-to-end path over real UDP: blast a
// mixed stream (deliverable + malformed) at an echo engine and check
// the engine's counters account for every datagram.
func TestEngineLoopbackEcho(t *testing.T) {
	eng := startEngine(t, Config{Echo: true})
	good, err := packet.Serialize(
		&packet.TIP{TTL: 8, Proto: packet.LayerTypeRaw, Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(0, 1)},
		&packet.Raw{Data: []byte("echo me")})
	if err != nil {
		t.Fatal(err)
	}
	const count = 2000
	res, err := Blast(BlastConfig{
		Target:  eng.Addr(),
		Count:   count,
		Packets: [][]byte{good},
		Echo:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != count {
		t.Fatalf("blast sent %d of %d", res.Sent, count)
	}
	if res.Received+res.Lost != count {
		t.Fatalf("echo accounting: received %d + lost %d != %d", res.Received, res.Lost, count)
	}
	if res.Received == 0 {
		t.Fatal("no echoes came back")
	}
	// A worker flushes its counters once per batch, after sending the
	// batch's echoes, so the last echoes can arrive before they are
	// counted: wait for that flush.
	st := eng.Stats()
	for deadline := time.Now().Add(2 * time.Second); st.Received < uint64(res.Received) && time.Now().Before(deadline); st = eng.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.Received < uint64(res.Received) {
		t.Fatalf("engine received %d, client got %d echoes back", st.Received, res.Received)
	}
	if st.Delivered != st.Received || st.Echoed != st.Delivered {
		t.Fatalf("echo engine should deliver+echo everything it receives: %s", st.String())
	}
	if st.Filtered[packet.FilterAccept] != st.Received {
		t.Fatalf("filter accepted %d of %d received", st.Filtered[packet.FilterAccept], st.Received)
	}
}

// TestEngineFiltersMalformed checks the wire sanity filter rejects junk
// datagrams before decode, and that the counters attribute them.
func TestEngineFiltersMalformed(t *testing.T) {
	eng := startEngine(t, Config{Echo: true})
	good, err := packet.Serialize(
		&packet.TIP{TTL: 8, Proto: packet.LayerTypeRaw, Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(0, 1)},
		&packet.Raw{Data: []byte("ok")})
	if err != nil {
		t.Fatal(err)
	}
	badver := append([]byte(nil), good...)
	badver[0] = 0x28 // version 2
	junk := []byte{0x01, 0x02, 0x03}

	conn, err := net.Dial("udp", eng.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const rounds = 50
	for i := 0; i < rounds; i++ {
		for _, d := range [][]byte{good, badver, junk} {
			if _, err := conn.Write(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Junk draws no echo, so poll the counters instead.
	deadline := time.Now().Add(2 * time.Second)
	var st Stats
	for time.Now().Before(deadline) {
		st = eng.Stats()
		if st.Received == 3*rounds {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Received != 3*rounds {
		t.Fatalf("engine received %d of %d (UDP loss on loopback?)", st.Received, 3*rounds)
	}
	if st.Filtered[packet.FilterAccept] != rounds {
		t.Fatalf("filter accepted %d, want %d: %s", st.Filtered[packet.FilterAccept], rounds, st.String())
	}
	if st.Accepted() != rounds || st.Delivered != rounds {
		t.Fatalf("accepted %d delivered %d, want %d: %s", st.Accepted(), st.Delivered, rounds, st.String())
	}
	if st.Drops[netsim.DropMalformed] != 0 {
		// Filter-rejected datagrams never reach the dataplane; they are
		// counted under Filtered, not Drops.
		t.Fatalf("filter rejects leaked into dataplane drops: %s", st.String())
	}
}

// TestEngineForwardsToPeer runs a forwarding node over real UDP: the
// engine routes transit traffic to a peer socket (a plain UDP listener
// standing in for the next hop) and the full datagram — TTL
// decremented, checksum repaired — arrives there.
func TestEngineForwardsToPeer(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	sinkAddr := sink.LocalAddr().(*net.UDPAddr).AddrPort()

	eng := startEngine(t, Config{
		NewDataplane: func() *Dataplane {
			return NewDataplane(NodeConfig{
				ID: 2,
				Route: func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
					return 3, true
				},
				Peers: []topology.NodeID{3},
			})
		},
		Peers: map[topology.NodeID]netip.AddrPort{3: sinkAddr},
	})

	data, err := packet.Serialize(
		&packet.TIP{TTL: 9, Proto: packet.LayerTypeRaw, Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(4, 1)},
		&packet.Raw{Data: []byte("transit")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Blast(BlastConfig{Target: eng.Addr(), Count: 1, Packets: [][]byte{data}}); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 2048)
	if err := sink.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := sink.Read(buf)
	if err != nil {
		t.Fatalf("forwarded datagram never reached the peer: %v", err)
	}
	var tip packet.TIP
	if err := tip.DecodeFrom(buf[:n]); err != nil {
		t.Fatalf("peer received undecodable bytes: %v", err)
	}
	if tip.TTL != 8 {
		t.Fatalf("forwarded TTL = %d, want 8", tip.TTL)
	}
	if tip.Dst != packet.MakeAddr(4, 1) {
		t.Fatalf("forwarded dst = %v", tip.Dst)
	}
	// The worker publishes its tally only after sendmmsg returns, which
	// can be after the sink already holds the datagram, so poll.
	deadline := time.Now().Add(2 * time.Second)
	st := eng.Stats()
	for (st.Forwarded != 1 || st.Sent != 1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		st = eng.Stats()
	}
	if st.Forwarded != 1 || st.Sent != 1 {
		t.Fatalf("forward counters: %s", st.String())
	}
}

// TestEngineDifferentialOverUDP closes the loop on the twin contract at
// the socket layer: the golden byte stream goes over real UDP into a
// live engine built from the differential node config, and the engine's
// aggregate counters must equal what the committed per-packet decisions
// predict.
func TestEngineDifferentialOverUDP(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	sinkAddr := sink.LocalAddr().(*net.UDPAddr).AddrPort()

	eng := startEngine(t, Config{
		NewDataplane: func() *Dataplane {
			return NewDataplane(testNodeConfig(diffChain()))
		},
		Peers: map[topology.NodeID]netip.AddrPort{1: sinkAddr, 3: sinkAddr},
	})

	stream := goldenStream(t)
	var want struct{ delivered, forwarded, filtered, dropped uint64 }
	dp := NewDataplane(testNodeConfig(diffChain())) // oracle: same spec, fresh state
	for _, pkt := range stream {
		if packet.Filter(pkt.data) != packet.FilterAccept {
			want.filtered++
			continue
		}
		switch dp.Process(append([]byte(nil), pkt.data...)).Kind {
		case netsim.Deliver:
			want.delivered++
		case netsim.Forward:
			want.forwarded++
		case netsim.Dropped:
			want.dropped++
		}
	}

	conn, err := net.Dial("udp", eng.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, pkt := range stream {
		if len(pkt.data) == 0 {
			// A zero-length UDP datagram is legal but indistinguishable
			// from a read of nothing on some stacks; the filter path for
			// it is covered by the in-process differential test.
			want.filtered--
			continue
		}
		if _, err := conn.Write(pkt.data); err != nil {
			t.Fatal(err)
		}
		// Sequential sends keep stateful middleboxes in the committed
		// packet order even across engine workers.
		time.Sleep(time.Millisecond)
	}

	total := want.delivered + want.forwarded + want.filtered + want.dropped
	deadline := time.Now().Add(2 * time.Second)
	var st Stats
	for time.Now().Before(deadline) {
		st = eng.Stats()
		if st.Received == total {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Received != total {
		t.Fatalf("engine received %d of %d (UDP loss on loopback?)", st.Received, total)
	}
	rejected := st.Received - st.Filtered[packet.FilterAccept]
	if st.Delivered != want.delivered || st.Forwarded != want.forwarded ||
		rejected != want.filtered || st.TotalDropped() != want.dropped {
		t.Fatalf("live engine counters diverge from golden decisions:\n got %s\nwant delivered=%d forwarded=%d filter-rejected=%d dropped=%d",
			st.String(), want.delivered, want.forwarded, want.filtered, want.dropped)
	}
}

// TestEngineSteadyStateAllocs gates the whole receive path — recv batch,
// filter, decode, decision, echo batch — at near-zero allocations per
// packet once warm. The budget (0.05 allocs/packet) absorbs runtime
// incidentals (netpoller wakeups, timer churn) while still catching any
// per-packet allocation, which would cost ≥1. The striped phase runs
// the same gate with a MultipathReceiver installed as the delivery
// hook, so every datagram is a data segment that draws a
// template-patched ACK — the multipath ACK fast path must be as
// alloc-free as the echo path.
func TestEngineSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs a sustained run")
	}
	gate := func(t *testing.T, eng *Engine, pkts [][]byte) {
		t.Helper()
		warm := func(count int) BlastResult {
			res, err := Blast(BlastConfig{Target: eng.Addr(), Count: count, Packets: pkts, Echo: true})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		warm(5000) // fault in lazy runtime state on both sides

		engBefore := eng.Stats()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		const count = 20000
		warm(count)
		runtime.ReadMemStats(&after)
		engAfter := eng.Stats()

		processed := engAfter.Received - engBefore.Received
		if processed < count/2 {
			t.Fatalf("engine processed only %d of %d in the measured window", processed, count)
		}
		// Mallocs counts both the engine and the blast client; both
		// sides must be alloc-free per packet for the gate to pass.
		perPkt := float64(after.Mallocs-before.Mallocs) / float64(processed)
		if perPkt > 0.05 {
			t.Fatalf("steady state costs %.3f allocs/packet over %d packets, want ≤0.05", perPkt, processed)
		}
	}

	t.Run("echo", func(t *testing.T) {
		eng := startEngine(t, Config{Echo: true, Workers: 1})
		good, err := packet.Serialize(
			&packet.TIP{TTL: 8, Proto: packet.LayerTypeRaw, Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(0, 1)},
			&packet.Raw{Data: []byte("steady")})
		if err != nil {
			t.Fatal(err)
		}
		gate(t, eng, [][]byte{good})
	})

	t.Run("striped", func(t *testing.T) {
		rcv := NewMultipathReceiver(0, 7777, 256)
		eng := startEngine(t, Config{Echo: true, Workers: 1, Deliver: rcv.Deliver})
		// Data segments with a fixed sequence number and rotating path
		// echoes: after the first, every arrival is a duplicate (no
		// stream growth), but each still takes the full ACK fast path —
		// Accept, template lookup, ring copy, patch — and the reply
		// flows back through the engine's transmit batch.
		var segs [][]byte
		for w := uint16(1); w <= 3; w++ {
			seg, err := packet.Serialize(
				&packet.TIP{TTL: 8, Proto: packet.LayerTypeTTP, Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(0, 1)},
				&packet.TTP{SrcPort: 41000, DstPort: 7777, Seq: 0, Window: w, Next: packet.LayerTypeRaw},
				&packet.Raw{Data: make([]byte, 512)})
			if err != nil {
				t.Fatal(err)
			}
			segs = append(segs, seg)
		}
		gate(t, eng, segs)
		sum := rcv.Summary()
		if sum.Acks == 0 {
			t.Fatal("striped phase never exercised the multipath ACK path")
		}
		if sum.Bytes != 512 {
			t.Fatalf("duplicate segments grew the stream to %d bytes, want 512", sum.Bytes)
		}
	})
}
