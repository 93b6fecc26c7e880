package multipath

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/packet"
	"repro/internal/routing/srcroute"
	"repro/internal/sim"
	"repro/internal/topology"
)

// fuzzCands is a synthetic three-path candidate set (no topology
// needed: driver senders take explicit candidates, exactly as the wire
// engine builds them).
func fuzzCands() []srcroute.Candidate {
	cands := make([]srcroute.Candidate, 3)
	for i := range cands {
		cands[i] = srcroute.Candidate{
			Path:    []topology.NodeID{8, topology.NodeID(i + 1), 9},
			Latency: sim.Time(i+1) * sim.Millisecond,
		}
	}
	return cands
}

// fuzzAck serializes a well-formed ACK with attacker-chosen cumulative
// number and path echo — the corpus seeds mutation starts from.
func fuzzAck(ack uint32, echo uint16) []byte {
	data, err := packet.Serialize(
		&packet.TIP{TTL: 32, Proto: packet.LayerTypeTTP, Src: packet.MakeAddr(9, 1), Dst: packet.MakeAddr(8, 1)},
		&packet.TTP{SrcPort: 7000, DstPort: 41000, Ack: ack, Flags: packet.FlagACK, Window: echo, Next: packet.LayerTypeRaw},
		&packet.Raw{Data: nil})
	if err != nil {
		panic(err)
	}
	return data
}

// FuzzMultipathAck feeds hostile ACK bytes to senders over one, two and
// three of fuzzCands() (the one-path sender never demotes; the others
// do) once every initial flight has timed out, then checks the state
// machine's safety invariants: no panic on arbitrary bytes, the
// cumulative ACK clamped to the stream (a forged 32-bit Ack must not
// drive a 4-billion-step loop or push acked past the segment count),
// estimators inside their domains, and — the Karn rule — no RTT sample
// ever taken from a retransmitted flight, no matter what sequence
// numbers the ACK claims. Timer hygiene is checked last: once the
// transfer terminates, no scheduler events may survive.
// The committed seed corpus lives in testdata/fuzz/FuzzMultipathAck
// (regenerate with MP_FUZZ_CORPUS_REGEN=1 go test ./internal/transport/multipath
// -run TestRegenMultipathAckCorpus); CI runs a short -fuzz smoke.
func FuzzMultipathAck(f *testing.F) {
	for _, c := range fuzzCorpus() {
		f.Add(c.seed, c.data)
	}
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		for n := 1; n <= len(fuzzCands()); n++ {
			fuzzAckOnPaths(t, seed, data, n)
		}
	})
}

// fuzzAckOnPaths is one FuzzMultipathAck run against a sender over the
// first n candidate paths.
func fuzzAckOnPaths(t *testing.T, seed uint64, data []byte, n int) {
	sched := sim.NewScheduler()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Window = 4
	cfg.SegmentSize = 64
	cfg.RTO = 10 * sim.Millisecond
	cfg.MaxRTO = 50 * sim.Millisecond
	cfg.MaxRetries = 3
	cfg.ProbeEvery = 20 * sim.Millisecond
	cfg.MaxProbes = 3
	s := NewDriverSender(
		Driver{Clock: SimClock{sched}, Xmit: func(p *Path, seq uint32) error { return nil }},
		&ShortestK{}, fuzzCands()[:n], 8, 9, 7000, make([]byte, 4*64), cfg)
	s.Start()
	// Let every initial flight time out once: with RTO 10ms and
	// jitter ≤ 10%, by 12ms all four segments have timed out and been
	// retransmitted, so no legitimate RTT sample can exist — except on
	// two paths, where each path's second timeout demotes it and the
	// last flight to time out finds no active path and parks, sent only
	// once. An ACK covering that flight samples it, on its own path, at
	// exactly its age; clean records those ages.
	sched.RunUntil(12 * sim.Millisecond)
	clean := map[int]sim.Time{}
	for i := range s.flights {
		if fl := &s.flights[i]; fl.live && !fl.retx {
			clean[fl.path] = sched.Now() - fl.sentAt
		}
	}
	s.HandleAck(data)
	s.HandleAck(data) // replay: same bytes twice must be harmless
	// Drain: MaxRetries/MaxProbes bound the remaining timer chains.
	sched.RunUntil(sched.Now() + 5*sim.Second)

	if got, max := s.acked, uint32(len(make([]byte, 4*64))/64); got > max {
		t.Fatalf("%d paths: hostile ACK pushed acked to %d (stream has %d segments)", n, got, max)
	}
	for _, p := range s.Paths() {
		if p.Loss < 0 || p.Loss > 1 {
			t.Fatalf("%d paths: path %d loss estimator out of [0,1]: %v", n, p.Index, p.Loss)
		}
		if p.SRTT < 0 || p.RTTVar < 0 {
			t.Fatalf("%d paths: path %d negative RTT estimator: srtt=%v rttvar=%v", n, p.Index, p.SRTT, p.RTTVar)
		}
		if p.SRTT != 0 && p.SRTT != clean[p.Index] {
			t.Fatalf("%d paths: path %d took an RTT sample from a retransmitted flight (Karn violation): srtt=%v", n, p.Index, p.SRTT)
		}
	}
	if !s.Done() && !s.Failed() {
		t.Fatalf("%d paths: sender neither done nor failed after timers drained", n)
	}
	if left := sched.Pending(); left != 0 {
		t.Fatalf("%d paths: %d timers leaked after terminal state", n, left)
	}
}

// fuzzCorpus is the committed hostile-ACK seed set: valid cumulative
// ACKs, out-of-range path echoes, a forged Ack beyond the stream, a
// replayed zero ACK, truncated and garbage bytes.
func fuzzCorpus() []struct {
	seed uint64
	data []byte
} {
	return []struct {
		seed uint64
		data []byte
	}{
		{42, fuzzAck(2, 1)},                    // legitimate partial ACK
		{42, fuzzAck(4, 3)},                    // completes the stream
		{42, fuzzAck(1, 200)},                  // out-of-range path echo
		{42, fuzzAck(0xFFFFFFFF, 2)},           // forged cum beyond the stream
		{7, fuzzAck(0, 1)},                     // replayed zero ACK
		{7, fuzzAck(3, 0)},                     // echo 0: no path credit
		{7, []byte{0x45, 0x00, 0x00}},          // truncated TIP
		{1, []byte("not a packet at all....")}, // garbage
		{1, fuzzAck(2, 1)[:20]},                // ACK truncated mid-TTP
	}
}

// TestRegenMultipathAckCorpus writes the committed seed corpora of
// FuzzMultipathAck, FuzzReceiverAck and FuzzReassembly in the go-fuzz
// file format. Guarded by MP_FUZZ_CORPUS_REGEN so a normal test run
// never touches testdata.
func TestRegenMultipathAckCorpus(t *testing.T) {
	if os.Getenv("MP_FUZZ_CORPUS_REGEN") == "" {
		t.Skip("set MP_FUZZ_CORPUS_REGEN=1 to rewrite testdata/fuzz/FuzzMultipathAck, FuzzReceiverAck and FuzzReassembly")
	}
	write := func(dir string, i int, body string) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fmt.Sprintf("%s/seed-%d", dir, i), []byte("go test fuzz v1\n"+body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range fuzzCorpus() {
		write("testdata/fuzz/FuzzMultipathAck", i, fmt.Sprintf("uint64(%d)\n[]byte(%q)\n", c.seed, c.data))
	}
	for i, c := range receiverCorpus() {
		write("testdata/fuzz/FuzzReceiverAck", i, fmt.Sprintf("[]byte(%q)\n[]byte(%q)\n", c[0], c[1]))
	}
	for i, c := range reassemblyCorpus() {
		write("testdata/fuzz/FuzzReassembly", i, fmt.Sprintf("[]byte(%q)\n[]byte(%q)\n[]byte(%q)\n", c[0], c[1], c[2]))
	}
}

// FuzzReceiverAck feeds two hostile datagrams to a receiver, a, b, a,
// b, so a template built for one is reused or rebuilt for the other
// under whatever echo each claims. Their TIP checksums are repaired
// first, so mutations reach the option parser rather than stopping at
// the checksum. Nothing may panic; a datagram that is not a data
// segment for the port is refused; and every ACK must equal
// packet.Serialize's bytes for the fields decoded from its segment,
// acknowledging the sequence number the receiver expects next.
// The committed seed corpus lives in testdata/fuzz/FuzzReceiverAck
// (regenerated with FuzzMultipathAck's); CI runs a short -fuzz smoke.
func FuzzReceiverAck(f *testing.F) {
	for _, c := range receiverCorpus() {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		a, b = withChecksum(a), withChecksum(b)
		r := NewReceiverCore(9, 7000)
		for _, data := range [][]byte{a, b, a, b} {
			checkReceiverAck(t, r, data)
		}
	})
}

// checkReceiverAck delivers one datagram to r and checks its ACK
// against Serialize's.
func checkReceiverAck(t *testing.T, r *Receiver, data []byte) {
	var tip packet.TIP
	var ttp packet.TTP
	ours := tip.DecodeFrom(data) == nil && tip.Proto == packet.LayerTypeTTP &&
		ttp.DecodeFrom(tip.LayerPayload()) == nil && ttp.DstPort == r.Port && ttp.Flags&packet.FlagACK == 0
	prefix := []byte{0xaa}
	ack, ok := r.Receive(bytes.Clone(prefix), data)
	if ok != ours || (!ours && ack != nil) {
		t.Fatalf("receiver took=%v (ack %x) a datagram that is ours=%v", ok, ack, ours)
	}
	if !ours {
		return
	}
	var back *packet.SourceRouteOption
	if sr := tip.SourceRoute; sr != nil && len(sr.Hops) > 0 {
		back = &packet.SourceRouteOption{}
		for i := len(sr.Hops) - 1; i >= 0; i-- {
			back.Hops = append(back.Hops, sr.Hops[i])
		}
	}
	want, err := packet.Serialize(
		&packet.TIP{TTL: 32, Proto: packet.LayerTypeTTP, Src: packet.MakeAddr(9, 1), Dst: tip.Src, SourceRoute: back},
		&packet.TTP{SrcPort: r.Port, DstPort: ttp.SrcPort, Ack: r.next, Flags: packet.FlagACK, Window: ttp.Window, Next: packet.LayerTypeRaw},
		&packet.Raw{})
	if err != nil {
		if ack != nil {
			t.Fatalf("framed ACK %x where Serialize refuses: %v", ack, err)
		}
		return
	}
	if !bytes.Equal(ack, append(bytes.Clone(prefix), want...)) {
		t.Fatalf("ACK differs from Serialize\n got %x\nwant %x%x", ack, prefix, want)
	}
}

// withChecksum returns a copy of data with its TIP checksum repaired,
// when the header length field fits the datagram.
func withChecksum(data []byte) []byte {
	data = bytes.Clone(data)
	if len(data) < 16 {
		return data
	}
	if hlen := int(data[0]&0x0f) * 8; hlen >= 16 && hlen <= len(data) {
		data[6], data[7] = 0, 0
		ck := packet.Checksum(data[:hlen])
		data[6], data[7] = byte(ck>>8), byte(ck)
	}
	return data
}

// fuzzSegment serializes a data segment for FuzzReceiverAck's corpus.
func fuzzSegment(srcPort uint16, src packet.Addr, route []packet.Addr, seq uint32, echo uint16, flags uint8) []byte {
	var sr *packet.SourceRouteOption
	if route != nil {
		sr = &packet.SourceRouteOption{Ptr: uint8(len(route)), Hops: route}
	}
	data, err := packet.Serialize(
		&packet.TIP{TTL: 32, Proto: packet.LayerTypeTTP, Src: src, Dst: packet.MakeAddr(9, 1), SourceRoute: sr},
		&packet.TTP{SrcPort: srcPort, DstPort: 7000, Seq: seq, Flags: flags, Window: echo, Next: packet.LayerTypeRaw},
		&packet.Raw{Data: []byte("payload")})
	if err != nil {
		panic(err)
	}
	return data
}

// longRouteSegment is a data segment whose source route has 11
// waypoints: it decodes, but its ACK's reverse route is one more than
// Serialize encodes, so the receiver accepts it without an ACK. Its
// checksum is left for withChecksum to fill.
func longRouteSegment() []byte {
	const hlen = 64 // 16-byte base header + 47-byte route option, padded
	b := make([]byte, hlen+16+7)
	b[0] = 1<<4 | hlen/8
	b[2], b[3] = 0, byte(len(b))
	b[4], b[5] = 32, byte(packet.LayerTypeTTP)
	b[8], b[9], b[11] = 0, 8, 1     // source 8.1
	b[12], b[13], b[15] = 0, 9, 1   // destination 9.1
	b[16], b[17], b[18] = 2, 47, 11 // source route, option length, pointer
	for i := 0; i < 11; i++ {
		b[19+4*i+1] = byte(i + 1) // waypoint i+1.0
	}
	ttp := b[hlen:]
	ttp[0], ttp[1] = 41000>>8, 41000&0xff
	ttp[2], ttp[3] = 7000>>8, 7000&0xff
	ttp[13], ttp[15] = byte(packet.LayerTypeRaw), 1
	return b
}

// receiverCorpus is the committed hostile-segment seed set, as pairs:
// two routes whose waypoints collide under FNV-1a on one echo, a source
// port or address change on one echo, direct against routed, an
// over-long route, an ACK beside an echo-0 segment, truncated and
// garbage bytes.
func receiverCorpus() [][2][]byte {
	a, b := packet.MakeAddr(8, 1), packet.MakeAddr(7, 1)
	r1 := []packet.Addr{0x13222325, 0x00050001}
	r2 := []packet.Addr{0x84222324, 0x950501b2}
	return [][2][]byte{
		{fuzzSegment(41000, a, r1, 0, 1, 0), fuzzSegment(41000, a, r2, 1, 1, 0)},  // colliding routes
		{fuzzSegment(41000, a, r1, 0, 1, 0), fuzzSegment(41001, a, r1, 2, 1, 0)},  // source port
		{fuzzSegment(41000, a, r1, 1, 2, 0), fuzzSegment(41000, b, r1, 0, 2, 0)},  // source address
		{fuzzSegment(41000, a, nil, 0, 3, 0), fuzzSegment(41000, a, r2, 0, 3, 0)}, // direct, then routed
		{longRouteSegment(), fuzzSegment(41000, a, r1, 0, 1, 0)},
		{fuzzSegment(41000, a, r1, 0, 1, packet.FlagACK), fuzzSegment(41000, a, nil, 5, 0, 0)},
		{fuzzSegment(41000, a, r1, 0, 1, 0)[:30], []byte("not a packet at all....")},
	}
}
