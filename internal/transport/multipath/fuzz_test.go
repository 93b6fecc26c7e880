package multipath

import (
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

	if got, max := s.Acked(), uint32(len(make([]byte, 4*64))/64); got > max {
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

// TestRegenMultipathAckCorpus writes the committed seed corpus in the
// go-fuzz file format. Guarded by MP_FUZZ_CORPUS_REGEN so a normal test
// run never touches testdata.
func TestRegenMultipathAckCorpus(t *testing.T) {
	if os.Getenv("MP_FUZZ_CORPUS_REGEN") == "" {
		t.Skip("set MP_FUZZ_CORPUS_REGEN=1 to rewrite testdata/fuzz/FuzzMultipathAck")
	}
	dir := "testdata/fuzz/FuzzMultipathAck"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, c := range fuzzCorpus() {
		body := fmt.Sprintf("go test fuzz v1\nuint64(%d)\n[]byte(%q)\n", c.seed, c.data)
		if err := os.WriteFile(fmt.Sprintf("%s/seed-%d", dir, i), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
