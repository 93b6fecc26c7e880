package multipath

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The framing tests hold the one segment/ACK framing path both
// substrates transmit against packet.Serialize, the reference encoder,
// and gate the simulated steady state at zero allocations.

// TestFrameMatchesSerialize frames every segment on every path — full
// and tail segments, on direct and source-routed paths, for every
// strategy — behind a prefix already in the buffer, and compares each
// datagram byte-for-byte with Serialize's.
func TestFrameMatchesSerialize(t *testing.T) {
	g := mpGraph()
	g.AddLink(8, 9, topology.PeerOf, sim.Millisecond/2, 1) // a direct path to discover
	const seg = 512
	data := mpPayload(5*seg + 100) // a short tail segment
	prefix := []byte("prefix")
	var direct, routed int
	for _, strat := range append(Strategies(), Routed{}) {
		cfg := mpConfig(42)
		cfg.SegmentSize = seg
		cands := strat.Discover(g, 8, 9, cfg.Paths, cfg.MaxPathLen)
		s := NewDriverSender(Driver{}, strat, cands, 8, 9, 7000, data, cfg)
		for _, p := range s.paths {
			opt := p.Cand.Option()
			if opt == nil {
				direct++
			} else {
				routed++
			}
			for seq := uint32(0); int(seq) < s.nseg; seq++ {
				got, err := s.Frame(bytes.Clone(prefix), p, seq)
				if err != nil {
					t.Fatalf("%s path %d seq %d: %v", strat.Name(), p.Index, seq, err)
				}
				want, err := packet.Serialize(
					&packet.TIP{TTL: 32, Proto: packet.LayerTypeTTP, Src: packet.MakeAddr(8, 1), Dst: packet.MakeAddr(9, 1), SourceRoute: opt},
					&packet.TTP{SrcPort: 41000, DstPort: 7000, Seq: seq, Window: uint16(p.Index) + 1, Next: packet.LayerTypeRaw},
					&packet.Raw{Data: data[int(seq)*seg : min(int(seq+1)*seg, len(data))]})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
					t.Fatalf("%s path %d seq %d: framed bytes differ from Serialize\n got %x\nwant %x%x",
						strat.Name(), p.Index, seq, got, prefix, want)
				}
			}
		}
	}
	if direct == 0 || routed == 0 {
		t.Fatalf("framed %d direct and %d source-routed paths, want both", direct, routed)
	}
}

// TestReceiverAckMatchesSerialize sends segments under one path echo
// while the sender's source port, address and route change, including
// to a second route whose waypoints hash like the first's under FNV-1a,
// and back; every ACK must be Serialize's for its own segment, so the
// echo's template is rebuilt exactly when the segment's identity
// changes.
func TestReceiverAckMatchesSerialize(t *testing.T) {
	const port = 7000
	src := packet.MakeAddr(8, 1)
	cases := []struct {
		name    string
		srcPort uint16
		src     packet.Addr
		route   []packet.Addr
		echo    uint16
	}{
		{"first", 41000, src, []packet.Addr{0x13222325, 0x00050001}, 1},
		{"template hit", 41000, src, []packet.Addr{0x13222325, 0x00050001}, 1},
		{"colliding route", 41000, src, []packet.Addr{0x84222324, 0x950501b2}, 1},
		{"source port", 41001, src, []packet.Addr{0x84222324, 0x950501b2}, 1},
		{"source address", 41001, packet.MakeAddr(7, 1), []packet.Addr{0x84222324, 0x950501b2}, 1},
		{"direct", 41001, packet.MakeAddr(7, 1), nil, 1},
		{"other echo", 41000, src, []packet.Addr{packet.MakeAddr(2, 0)}, 2},
		{"back to first", 41000, src, []packet.Addr{0x13222325, 0x00050001}, 1},
	}
	r := NewReceiverCore(9, port)
	var got bytes.Buffer
	r.Out = &got
	prefix := []byte{0xaa}
	for i, c := range cases {
		var sr, back *packet.SourceRouteOption
		if len(c.route) > 0 {
			sr = &packet.SourceRouteOption{Ptr: uint8(len(c.route)), Hops: c.route}
			back = &packet.SourceRouteOption{}
			for j := len(c.route) - 1; j >= 0; j-- {
				back.Hops = append(back.Hops, c.route[j])
			}
		}
		seg, err := packet.Serialize(
			&packet.TIP{TTL: 8, Proto: packet.LayerTypeTTP, Src: c.src, Dst: packet.MakeAddr(9, 1), SourceRoute: sr},
			&packet.TTP{SrcPort: c.srcPort, DstPort: port, Seq: uint32(i), Window: c.echo, Next: packet.LayerTypeRaw},
			&packet.Raw{Data: []byte("segment")})
		if err != nil {
			t.Fatal(err)
		}
		want, err := packet.Serialize(
			&packet.TIP{TTL: 32, Proto: packet.LayerTypeTTP, Src: packet.MakeAddr(9, 1), Dst: c.src, SourceRoute: back},
			&packet.TTP{SrcPort: port, DstPort: c.srcPort, Ack: uint32(i) + 1, Flags: packet.FlagACK, Window: c.echo, Next: packet.LayerTypeRaw},
			&packet.Raw{})
		if err != nil {
			t.Fatal(err)
		}
		ack, ok := r.Receive(bytes.Clone(prefix), seg)
		if !ok || !bytes.Equal(ack, append(bytes.Clone(prefix), want...)) {
			t.Fatalf("%s: ok=%v ACK differs from Serialize\n got %x\nwant %x%x", c.name, ok, ack, prefix, want)
		}
	}
	if r.Acks != len(cases) || got.String() != strings.Repeat("segment", len(cases)) {
		t.Fatalf("acks=%d data=%q after %d in-order segments", r.Acks, got.String(), len(cases))
	}
}

// TestUnframableSegmentFailsTransfer sizes segments past what the TIP
// length field can carry. The simulator fails the transfer on its first
// transmission with Serialize's reason, and FrameErr names the path so
// the wire constructor can refuse it.
func TestUnframableSegmentFailsTransfer(t *testing.T) {
	sched, net := mpNet()
	cfg := mpConfig(42)
	cfg.SegmentSize = 70000
	s := NewSender(net, &ShortestK{}, 8, 9, 7000, make([]byte, 2*cfg.SegmentSize), cfg)
	s.Start()
	sched.Run()
	_, want := packet.Serialize(
		&packet.TIP{SourceRoute: s.paths[0].Cand.Option()}, &packet.TTP{}, &packet.Raw{Data: make([]byte, cfg.SegmentSize)})
	if st := s.Stats(); !st.Failed || st.Sent != 0 || st.FailReason != "serialize: "+want.Error() {
		t.Fatalf("transfer should fail unsent with %q: %+v", "serialize: "+want.Error(), st)
	}
	if err := s.FrameErr(); !errors.Is(err, packet.ErrBadHeader) || !strings.HasPrefix(err.Error(), "path 0: ") {
		t.Fatalf("FrameErr = %v, want path 0's header error", err)
	}
}

// TestSimSteadyStateZeroAlloc gates a simulated transfer's steady state
// at zero allocations for every strategy: the sender framing and
// injecting segments, the hops, the receiver decoding, holding
// out-of-order arrivals, streaming the in-order bytes and framing and
// injecting ACKs, and the sender consuming them. The receiver runs as
// the experiments run it: counting only (Out nil), and checking the
// stream against the payload.
func TestSimSteadyStateZeroAlloc(t *testing.T) {
	for _, check := range []bool{false, true} {
		for _, strat := range Strategies() {
			name := fmt.Sprintf("%s check=%v", strat.Name(), check)
			sched, net := mpNet()
			r := InstallReceiver(net, 9, 7000)
			data := make([]byte, 4<<20)
			stream := &PrefixCheck{Want: data}
			if check {
				r.Out = stream
			}
			s := NewSender(net, strat, 8, 9, 7000, data, mpConfig(42))
			s.Start()
			step := func() { sched.RunUntil(sched.Now() + sim.Millisecond) }
			for i := 0; i < 200; i++ {
				step() // warm the pools, the scheduler heap and the reassembly map
			}
			acked := s.acked
			if avg := testing.AllocsPerRun(500, step); avg != 0 {
				t.Fatalf("%s: simulated transfer allocates %.2f per millisecond step, want 0", name, avg)
			}
			if s.acked == acked || s.Done() || s.Failed() {
				t.Fatalf("%s: transfer left the steady state: acked %d → %d, %+v", name, acked, s.acked, s.Stats())
			}
			if len(r.buf)+len(r.free) == 0 {
				t.Fatalf("%s: no segment arrived out of order; the gate misses the holding path", name)
			}
			if check && (!stream.Prefix() || r.Bytes == 0) {
				t.Fatalf("%s: streamed %d bytes that are not a prefix of the payload", name, r.Bytes)
			}
		}
	}
}
