package wire

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The differential harness: identical TIP bytes fed to the live
// engine's decision kernel and to the simulator (via InjectArrival at
// the same node) must produce byte-identical decision logs — deliver,
// forward to the same next hop, or drop with the same reason string,
// including packets the wire sanity filter rejects — and must pass on
// byte-identical datagrams (rewritten, TTL-patched, source route
// advanced) whenever they deliver or forward. The log is also
// pinned against a committed golden file (testdata/golden_decisions.txt;
// regenerate with WIRE_GOLDEN_REGEN=1 go test ./internal/wire -run
// Differential) so either engine drifting from the recorded decisions
// fails loudly even if they drift together.

// garbler is a deterministic, stateless middlebox that rewrites
// matching traffic into undecodable bytes — the malformed-after drop
// path, which no real middlebox in the repo produces.
type garbler struct{}

func (garbler) Name() string { return "garbler" }
func (garbler) Silent() bool { return false }
func (garbler) Process(node topology.NodeID, dir netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	var tip packet.TIP
	if err := tip.DecodeFrom(data); err != nil {
		return nil, netsim.Accept
	}
	if tip.TOS != 0x77 {
		return nil, netsim.Accept
	}
	return []byte{0xDE, 0xAD}, netsim.Accept
}

// diffChain builds the middlebox chain under test. Each engine gets its
// own instances (stateful devices are not shareable); both are built
// from this one spec.
func diffChain() []netsim.Middlebox {
	return []netsim.Middlebox{
		&middlebox.PortFirewall{Label: "fw", BlockedPorts: map[uint16]bool{25: true}},
		&middlebox.PortFirewall{Label: "ghost", BlockedPorts: map[uint16]bool{6667: true}, Quiet: true},
		&middlebox.Redirector{Label: "redir", MatchPort: 8080, To: packet.MakeAddr(2, 99)},
		&middlebox.Redirector{Label: "redir-out", MatchPort: 9090, To: packet.MakeAddr(4, 7)},
		&middlebox.Wiretap{Label: "tap", MatchSrc: 1},
		garbler{},
	}
}

// simTwin is the simulator side of the harness: a 1-2-3-4 chain with
// node 2 carrying the chain under test and the same routing pathologies
// as testNodeConfig, plus a capture of the bytes node 2 passes on —
// what its Deliver hook receives, or what first arrives at neighbor 1
// or 3.
type simTwin struct {
	n      *netsim.Network
	sched  *sim.Scheduler
	passed []byte // nil until node 2 delivers or forwards
}

// newSimTwin builds the twin of cfg, a node-2 personality built by
// testNodeConfig: the chain's routes and adjacency stand in for its
// Route and Peers.
func newSimTwin(cfg NodeConfig) *simTwin {
	tw := &simTwin{sched: sim.NewScheduler()}
	tw.n = netsim.New(tw.sched, topology.Linear(4, sim.Millisecond))
	for id := topology.NodeID(1); id <= 4; id++ {
		tw.n.Node(id).Route = chainRoute(id)
	}
	nd := tw.n.Node(2)
	nd.HonorSourceRoutes = cfg.HonorSourceRoutes
	nd.RequirePaymentForSourceRoute = cfg.RequirePaymentForSourceRoute
	for _, m := range cfg.Middleboxes {
		nd.AddMiddlebox(m)
	}
	nd.Deliver = func(_ *netsim.Node, _ *netsim.Trace, data []byte) { tw.capture(data) }
	tw.n.Node(1).AddMiddlebox(recorder{tw})
	tw.n.Node(3).AddMiddlebox(recorder{tw})
	return tw
}

// capture keeps a copy of the first bytes node 2 passed on; later hops
// patch the flight's buffer in place.
func (tw *simTwin) capture(data []byte) {
	if tw.passed == nil {
		tw.passed = append([]byte{}, data...)
	}
}

// arrive presents data to node 2 and returns its decision and the bytes
// it passed on (nil for a drop).
func (tw *simTwin) arrive(t *testing.T, data []byte) (string, []byte) {
	t.Helper()
	tw.passed = nil
	tr := tw.n.InjectArrival(2, data)
	tw.sched.Run()
	return simDecision(t, tr, 2), tw.passed
}

// recorder is a pass-through middlebox on node 2's neighbors that
// captures what node 2 forwarded to them.
type recorder struct{ tw *simTwin }

func (recorder) Name() string { return "recorder" }
func (recorder) Silent() bool { return false }
func (r recorder) Process(_ topology.NodeID, _ netsim.Direction, data []byte) ([]byte, netsim.Verdict) {
	r.tw.capture(data)
	return nil, netsim.Accept
}

// compareTwins runs one datagram through both engines and reports any
// disagreement on the decision or on the bytes passed on. It returns
// the live engine's decision.
func compareTwins(t *testing.T, name string, dp *Dataplane, tw *simTwin, data []byte) string {
	t.Helper()
	// The wire engine patches bytes in place; both engines get a
	// private copy, as they would from their own receive paths.
	dec := dp.Process(append([]byte(nil), data...))
	simGot, simBytes := tw.arrive(t, data)
	if wireGot := dec.String(); wireGot != simGot {
		t.Errorf("%s: live engine decided %q, simulator decided %q", name, wireGot, simGot)
	}
	if !bytes.Equal(dec.Data, simBytes) {
		t.Errorf("%s: live engine passed on\n% x\nsimulator passed on\n% x", name, dec.Data, simBytes)
	}
	return dec.String()
}

// simDecision extracts node 2's decision from an InjectArrival trace,
// in the shared vocabulary.
func simDecision(t *testing.T, tr *netsim.Trace, node topology.NodeID) string {
	t.Helper()
	if len(tr.Events) == 0 {
		t.Fatalf("trace recorded no events: %+v", tr)
	}
	ev := tr.Events[0]
	if ev.Node != node {
		t.Fatalf("first decision at node %d, want %d: %+v", ev.Node, node, tr)
	}
	switch ev.Action {
	case "deliver":
		return "deliver"
	case "drop":
		return "drop " + ev.Detail
	case "forward":
		if len(tr.Events) < 2 {
			t.Fatalf("forward with no subsequent hop: %+v", tr)
		}
		// The simulator records the forward event before the next-hop
		// lookup; a routing failure is a drop at the same node right
		// after it.
		if nxt := tr.Events[1]; nxt.Action == "drop" && nxt.Node == node {
			return "drop " + nxt.Detail
		}
		return fmt.Sprintf("forward %d", tr.Events[1].Node)
	default:
		t.Fatalf("unexpected first action %q", ev.Action)
		return ""
	}
}

// goldenStream is the byte-stream corpus: clean traffic, malformed
// datagrams, middlebox-rewritten cases, and policy edges — every
// decision path the two engines share.
func goldenStream(t *testing.T) []struct {
	name string
	data []byte
} {
	t.Helper()
	src := packet.MakeAddr(1, 1)
	srcRouted := func(pay bool, host uint16, hops ...packet.Addr) []byte {
		tip := &packet.TIP{
			TTL: 16, Proto: packet.LayerTypeRaw,
			Src: packet.MakeAddr(4, 1), Dst: packet.MakeAddr(1, host),
			SourceRoute: &packet.SourceRouteOption{Hops: hops},
		}
		if pay {
			tip.Payment = &packet.PaymentOption{Payer: tip.Src, Payee: packet.MakeAddr(2, 0), AmountMilli: 5, Nonce: 1, MAC: 9}
		}
		data, err := packet.Serialize(tip, &packet.Raw{Data: []byte("sr")})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	badck := rawPkt(t, src, packet.MakeAddr(4, 1), 16, "ck")
	badck[6] ^= 0xff
	badver := rawPkt(t, src, packet.MakeAddr(4, 1), 16, "vv")
	badver[0] = 0x28 // version nibble 2: sanity-filter reject
	garbled := func() []byte {
		data, err := packet.Serialize(
			&packet.TIP{TTL: 16, TOS: 0x77, Proto: packet.LayerTypeRaw, Src: src, Dst: packet.MakeAddr(4, 1)},
			&packet.Raw{Data: []byte("gg")})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}()
	return []struct {
		name string
		data []byte
	}{
		{"clean-transit", rawPkt(t, src, packet.MakeAddr(4, 1), 16, "hello")},
		{"clean-deliver", rawPkt(t, src, packet.MakeAddr(2, 5), 16, "local")},
		{"clean-downstream", rawPkt(t, packet.MakeAddr(4, 2), packet.MakeAddr(1, 7), 16, "back")},
		{"blocked-smtp", ttpPkt(t, packet.TIP{TTL: 16, Src: src, Dst: packet.MakeAddr(4, 1)}, 25, "MAIL")},
		{"silent-irc", ttpPkt(t, packet.TIP{TTL: 16, Src: src, Dst: packet.MakeAddr(4, 1)}, 6667, "irc")},
		{"redirected-web", ttpPkt(t, packet.TIP{TTL: 16, Src: src, Dst: packet.MakeAddr(4, 1)}, 8080, "GET")},
		{"tapped-https", ttpPkt(t, packet.TIP{TTL: 16, Src: src, Dst: packet.MakeAddr(4, 1)}, 443, "tls")},
		{"garbled-rewrite", garbled},
		{"ttl-expired", rawPkt(t, src, packet.MakeAddr(4, 1), 1, "old")},
		{"no-route", rawPkt(t, src, packet.MakeAddr(7, 1), 16, "lost")},
		{"bad-next-hop", rawPkt(t, src, packet.MakeAddr(8, 1), 16, "off")},
		{"srcroute-paid", srcRouted(true, 9, packet.MakeAddr(3, 1))},
		{"srcroute-unpaid", srcRouted(false, 9, packet.MakeAddr(3, 1))},
		{"truncated", []byte{0x18, 0x00, 0x00}},
		{"empty", nil},
		{"bad-version", badver},
		{"bad-checksum", badck},
		{"oversized-total", func() []byte {
			d := rawPkt(t, src, packet.MakeAddr(4, 1), 16, "sz")
			d[2], d[3] = 0xFF, 0xFF // total length past the datagram
			return d
		}()},
		{"srcroute-self-waypoint", srcRouted(true, 9, packet.MakeAddr(2, 1), packet.MakeAddr(3, 1))},
		{"srcroute-remote-waypoint", srcRouted(true, 9, packet.MakeAddr(4, 1))},
		{"srcroute-exhausted-here", srcRouted(true, 9, packet.MakeAddr(2, 1))},
		{"redirected-outbound", ttpPkt(t, packet.TIP{TTL: 16, Src: src, Dst: packet.MakeAddr(2, 5)}, 9090, "PUT")},
	}
}

func TestDifferentialDecisions(t *testing.T) {
	// Each engine gets its own chain instances from the one spec.
	tw := newSimTwin(testNodeConfig(diffChain()))
	dp := NewDataplane(testNodeConfig(diffChain()))

	var log strings.Builder
	for _, pkt := range goldenStream(t) {
		fmt.Fprintf(&log, "%s %s\n", pkt.name, compareTwins(t, pkt.name, dp, tw, pkt.data))
	}

	const goldenPath = "testdata/golden_decisions.txt"
	if os.Getenv("WIRE_GOLDEN_REGEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(log.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden decision log: %v (regenerate with WIRE_GOLDEN_REGEN=1)", err)
	}
	if log.String() != string(want) {
		t.Fatalf("decision log drifted from golden:\n--- got ---\n%s--- want ---\n%s", log.String(), want)
	}
}

// TestDifferentialStateful pins the agreement for a stateful rewrite
// sequence: a NAT translating an outbound flow, then un-translating the
// reply — both engines must evolve the NAT state identically because
// they see the identical packet order.
func TestDifferentialStateful(t *testing.T) {
	public := packet.MakeAddr(2, 1)
	mkConfig := func() NodeConfig {
		cfg := testNodeConfig([]netsim.Middlebox{middlebox.NewNAT("nat", public)})
		cfg.HonorSourceRoutes = false
		cfg.RequirePaymentForSourceRoute = false
		return cfg
	}
	tw := newSimTwin(mkConfig())
	dp := NewDataplane(mkConfig())

	// The NAT rewrites only Sending/Delivering traffic; a transit
	// arrival, then a delivery addressed to the public address, must
	// take the same decisions in both engines (the delivery's port is
	// unmapped, so it passes through untranslated — state agreement is
	// what's pinned, not a translation).
	stream := [][]byte{
		ttpPkt(t, packet.TIP{TTL: 16, Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(4, 1)}, 80, "out"),
		ttpPkt(t, packet.TIP{TTL: 16, Src: packet.MakeAddr(4, 1), Dst: public}, 40000, "in"),
	}
	for i, data := range stream {
		compareTwins(t, fmt.Sprintf("packet %d", i), dp, tw, data)
	}
}
