package wire

import (
	"bytes"
	"crypto/sha256"
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/transport/multipath"
)

// TestWireMultipathLoopback is the in-process end-to-end: a real UDP
// engine with a MultipathReceiver delivery hook, a real MultipathSender
// striping a stream across three paths on the wall clock, byte-exact
// reassembly checked by hash.
func TestWireMultipathLoopback(t *testing.T) {
	rcv := NewMultipathReceiver(0, 7701, 256)
	eng := startEngine(t, Config{Workers: 2, Deliver: rcv.Deliver})

	payload := make([]byte, 128<<10)
	for i := range payload {
		payload[i] = byte(i*13 + i/509)
	}
	cfg := multipath.DefaultConfig()
	cfg.Seed = 42
	cfg.Window = 32
	cfg.SegmentSize = 1024
	paths := make([]MPPath, 3)
	for i := range paths {
		paths[i] = MPPath{Via: eng.Addr(), Latency: sim.Millisecond}
	}
	snd, err := NewMultipathSender(MultipathSenderConfig{
		Transport: cfg, Src: 1, Dst: 0, Port: 7701, Paths: paths,
	}, payload)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	snd.Start()
	if !snd.Wait(30 * time.Second) {
		t.Fatalf("transfer timed out: %+v", snd.Stats())
	}
	st := snd.Stats()
	if !st.Done || st.Failed {
		t.Fatalf("transfer did not complete: %+v", st)
	}
	sum := rcv.Summary()
	if sum.Bytes != len(payload) {
		t.Fatalf("receiver reassembled %d bytes, want %d", sum.Bytes, len(payload))
	}
	if sum.SHA256 != sha256.Sum256(payload) {
		t.Fatal("reassembled stream hash differs from the payload")
	}
	for w := 1; w <= 3; w++ {
		if sum.PathSegments[w] == 0 {
			t.Fatalf("path %d carried no segments: %v", w, sum.PathSegments)
		}
	}
}

// mpAllocSender builds a capture-mode sender (no sockets) over three
// paths for the alloc micro-gates: segs segments of 256 bytes, window 8,
// on clk (nil means a real WallClock). The floor RTO is rto, so a gate
// on the wall clock can keep every timer armed but unfired.
func mpAllocSender(t *testing.T, strat multipath.Strategy, clk multipath.Clock, segs int, rto sim.Time) *MultipathSender {
	t.Helper()
	cfg := multipath.DefaultConfig()
	cfg.Seed = 42
	cfg.Window = 8
	cfg.SegmentSize = 256
	cfg.RTO, cfg.MaxRTO = rto, rto
	ws, err := newMultipathSender(MultipathSenderConfig{
		Transport: cfg, Strategy: strat, Src: 8, Dst: 9, Port: 7000,
		Paths: []MPPath{{Latency: sim.Millisecond}, {Latency: sim.Millisecond}, {Latency: sim.Millisecond}},
		Clock: clk,
	}, make([]byte, segs*256), func(int, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ws.Close)
	ws.Start()
	return ws
}

// mpAck serializes a cumulative ACK for the alloc-gate sender; the
// gates patch its Ack field in place.
func mpAck(t *testing.T, cum uint32, echo uint16) []byte {
	t.Helper()
	ack, err := packet.Serialize(
		&packet.TIP{TTL: 32, Proto: packet.LayerTypeTTP, Src: packet.MakeAddr(9, 1), Dst: packet.MakeAddr(8, 1)},
		&packet.TTP{SrcPort: 7000, DstPort: 41000, Ack: cum, Flags: packet.FlagACK, Window: echo, Next: packet.LayerTypeRaw},
		&packet.Raw{Data: nil})
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

// TestMultipathSenderAckAllocs pins the sender's ACK ingress at zero
// allocations for every strategy, on the virtual and the wall clock.
// A duplicate ACK exercises decode into the reused scratch, path credit
// and duplicate accounting; an advancing cumulative ACK exercises the
// whole steady-state cycle — release the acknowledged flight and cancel
// its timer, credit, pump, transmit, arm the new flight's timer.
func TestMultipathSenderAckAllocs(t *testing.T) {
	clocks := []struct {
		name string
		mk   func() multipath.Clock
	}{
		{"sim", func() multipath.Clock { return multipath.SimClock{Sched: sim.NewScheduler()} }},
		{"wall", func() multipath.Clock { return nil }},
	}
	for _, ck := range clocks {
		for _, strat := range multipath.Strategies() {
			name := ck.name + "/" + strat.Name()
			const segs = 2000
			ws := mpAllocSender(t, strat, ck.mk(), segs, 30*sim.Second)

			dup := mpAck(t, 0, 1)
			for i := 0; i < 100; i++ {
				ws.HandleAck(dup) // warm past the one fast-retx the dup burst triggers
			}
			if avg := testing.AllocsPerRun(1000, func() { ws.HandleAck(dup) }); avg != 0 {
				t.Fatalf("%s: sender duplicate-ACK path allocates %.2f/op, want 0", name, avg)
			}

			ack := mpAck(t, 0, 1)
			cum := uint32(0)
			advance := func() {
				cum++
				if err := packet.PatchTTPAck(ack, cum, uint16(cum%3)+1); err != nil {
					t.Fatal(err)
				}
				ws.HandleAck(ack)
			}
			for i := 0; i < 200; i++ {
				advance() // warm the scheduler's slot pool and heap
			}
			if avg := testing.AllocsPerRun(1000, advance); avg != 0 {
				t.Fatalf("%s: sender advancing-ACK path allocates %.2f/op, want 0", name, avg)
			}
			if got := ws.core.Acked(); got != cum {
				t.Fatalf("%s: acked %d, want %d", name, got, cum)
			}
		}
	}
}

// TestMultipathReceiverDeliverAllocs pins the receiver's delivery hook
// at zero allocations in the steady state — decode scratch, Accept,
// template hit, ring copy, in-place patch — for duplicates and for an
// advancing in-order stream, and checks that the stream is consumed as
// it arrives: the digest covers every byte while the retained buffer
// stays at one segment.
func TestMultipathReceiverDeliverAllocs(t *testing.T) {
	rcv := NewMultipathReceiver(0, 7777, 64)
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	seg, err := packet.Serialize(
		&packet.TIP{TTL: 8, Proto: packet.LayerTypeTTP, Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(0, 1)},
		&packet.TTP{SrcPort: 41000, DstPort: 7777, Seq: 0, Window: 2, Next: packet.LayerTypeRaw},
		&packet.Raw{Data: payload})
	if err != nil {
		t.Fatal(err)
	}
	from := netip.MustParseAddrPort("127.0.0.1:40000")
	for i := 0; i < 10; i++ {
		if rcv.Deliver(seg, from) == nil {
			t.Fatal("delivery hook built no ACK")
		}
	}
	if avg := testing.AllocsPerRun(1000, func() { rcv.Deliver(seg, from) }); avg != 0 {
		t.Fatalf("receiver delivery hook allocates %.2f/op, want 0", avg)
	}
	if sum := rcv.Summary(); sum.Bytes != 512 {
		t.Fatalf("duplicates grew the stream to %d bytes", sum.Bytes)
	}

	const stream = 10000
	seq := uint32(0)
	next := func() {
		seq++
		if err := packet.PatchTTPSeq(seg, seq); err != nil {
			t.Fatal(err)
		}
		rcv.Deliver(seg, from)
	}
	if avg := testing.AllocsPerRun(stream-1, next); avg != 0 {
		t.Fatalf("receiver in-order stream allocates %.2f/op, want 0", avg)
	}
	if c := cap(rcv.core.Data); c > 4*len(payload) {
		t.Fatalf("receiver retains %d bytes of consumed stream, want ≤ %d", c, 4*len(payload))
	}
	h := sha256.New()
	for i := uint32(0); i <= seq; i++ { // segments 0..seq, one copy each
		h.Write(payload)
	}
	sum := rcv.Summary()
	if want := int(seq+1) * len(payload); sum.Bytes != want || !bytes.Equal(sum.SHA256[:], h.Sum(nil)) {
		t.Fatalf("streamed %d bytes, want %d with the payload's digest", sum.Bytes, want)
	}
}

// TestMultipathSenderCloseHygiene aims an unfinishable transfer at a
// socket that never answers, lets retransmissions start, and closes:
// afterwards nothing more is sent, no timer stays armed, and the read
// loop and timer goroutine are gone.
func TestMultipathSenderCloseHygiene(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	base := runtime.NumGoroutine()

	cfg := multipath.DefaultConfig()
	cfg.Seed = 42
	cfg.RTO, cfg.MaxRTO = 2*sim.Millisecond, 4*sim.Millisecond
	cfg.MaxRetries = 1000
	paths := make([]MPPath, 3)
	for i := range paths {
		paths[i] = MPPath{Via: sink.LocalAddr().(*net.UDPAddr).AddrPort(), Latency: sim.Millisecond}
	}
	snd, err := NewMultipathSender(MultipathSenderConfig{
		Transport: cfg, Src: 1, Dst: 0, Port: 7702, Paths: paths,
	}, make([]byte, 64<<10))
	if err != nil {
		t.Fatal(err)
	}
	snd.Start()
	deadline := time.Now().Add(5 * time.Second)
	for snd.Stats().Retransmissions == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := snd.Stats(); st.Retransmissions == 0 || st.Done || st.Failed {
		t.Fatalf("transfer should be retransmitting into the void: %+v", st)
	}
	snd.Close()
	sent := snd.Stats().Sent
	time.Sleep(200 * time.Millisecond)
	if got := snd.Stats().Sent; got != sent {
		t.Fatalf("closed sender kept transmitting: sent %d → %d", sent, got)
	}
	snd.wall.Lock()
	n := snd.wall.sched.Pending()
	snd.wall.Unlock()
	if n != 0 {
		t.Fatalf("%d timers still armed after Close", n)
	}
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close, %d before the sender", n, base)
	}
}
