package wire

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport/multipath"
)

// The multipath differential harness: one golden segment/ACK byte
// stream driven through the simulator's multipath sender and through
// the wire MultipathSender (on a virtual clock, with its socket layer
// replaced by a capture hook), scenario by scenario. The two decision
// logs must be byte-identical — that is the determinism contract of the
// Clock/Driver seam — and both are pinned against a committed golden
// file (testdata/golden_mp_decisions.txt; regenerate with
// WIRE_GOLDEN_REGEN=1 go test ./internal/wire -run MultipathDifferential)
// so the substrates drifting together still fails loudly.

// mpDiffGraph is the canonical multipath test network from the
// transport package: sender stub 8 and receiver stub 9 homed on three
// peered transits, three link-disjoint 3-node paths.
func mpDiffGraph() *topology.Graph {
	g := topology.NewGraph()
	for i := 1; i <= 3; i++ {
		g.AddNode(topology.NodeID(i), topology.Transit, 1)
	}
	g.AddNode(8, topology.Stub, 2)
	g.AddNode(9, topology.Stub, 2)
	g.AddLink(1, 2, topology.PeerOf, sim.Millisecond, 1)
	g.AddLink(2, 3, topology.PeerOf, sim.Millisecond, 1)
	for i := 1; i <= 3; i++ {
		g.AddLink(8, topology.NodeID(i), topology.CustomerOf, sim.Millisecond, 1)
		g.AddLink(9, topology.NodeID(i), topology.CustomerOf, sim.Time(i)*sim.Millisecond, 1)
	}
	return g
}

// mpDiffConfig is the harness transport config: a small window and
// fast, tightly bounded timers so every scenario's log terminates
// quickly (MaxRetries 5 turns an under-acked scenario into a prompt
// terminal failure instead of a minute of backoff).
func mpDiffConfig(seed uint64) multipath.Config {
	cfg := multipath.DefaultConfig()
	cfg.Seed = seed
	cfg.Window = 8
	cfg.SegmentSize = 512
	cfg.RTO = 20 * sim.Millisecond
	cfg.MaxRTO = 200 * sim.Millisecond
	cfg.ProbeEvery = 40 * sim.Millisecond
	cfg.MaxProbes = 6
	cfg.MaxRetries = 5
	return cfg
}

func mpDiffPayload() []byte {
	data := make([]byte, 16*512) // 16 segments
	for i := range data {
		data[i] = byte(i*11 + i/257)
	}
	return data
}

// mpAckEv is one scripted ACK: at virtual time at, a cumulative ACK for
// ack with path echo echo arrives at the sender.
type mpAckEv struct {
	at   sim.Time
	ack  uint32
	echo uint16
}

// mpAckBytes serializes the scripted ACK exactly as the receiver would
// build it (modulo the reverse source route, which the sender ignores).
func mpAckBytes(t *testing.T, ev mpAckEv) []byte {
	t.Helper()
	data, err := packet.Serialize(
		&packet.TIP{TTL: 32, Proto: packet.LayerTypeTTP, Src: packet.MakeAddr(9, 1), Dst: packet.MakeAddr(8, 1)},
		&packet.TTP{SrcPort: 7000, DstPort: 41000, Ack: ev.ack, Flags: packet.FlagACK, Window: ev.echo, Next: packet.LayerTypeRaw},
		&packet.Raw{Data: nil})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// mpDiffScenarios is the golden stream: clean delivery, reordered and
// stale cumulative ACKs, a dup-ACK burst that triggers fast
// retransmission while timers fire, hostile path-index echoes (0, out
// of range) plus a forged cumulative ACK beyond the stream, and a
// silence-then-recovery run that demotes every path, parks the window,
// and promotes paths back through ACK credits.
func mpDiffScenarios() []struct {
	name   string
	script []mpAckEv
} {
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Millisecond }
	return []struct {
		name   string
		script []mpAckEv
	}{
		{"clean", []mpAckEv{
			{ms(5), 4, 1}, {ms(9), 8, 2}, {ms(13), 12, 3}, {ms(17), 16, 1},
		}},
		{"reordered", []mpAckEv{
			{ms(5), 8, 1}, {ms(6), 4, 2}, {ms(11), 12, 3}, {ms(12), 8, 1}, {ms(16), 16, 2},
		}},
		{"dup-probe", []mpAckEv{
			{ms(5), 4, 1}, {ms(6), 4, 2}, {ms(7), 4, 3}, {ms(8), 4, 1}, {ms(33), 16, 1},
		}},
		{"stale-echo", []mpAckEv{
			{ms(5), 4, 0}, {ms(8), 8, 7}, {ms(10), 200, 2}, {ms(12), 12, 9}, {ms(15), 16, 3},
		}},
		{"demotion", []mpAckEv{
			{ms(60), 8, 1}, {ms(100), 16, 2}, {ms(110), 16, 3},
		}},
	}
}

// mpRunSim drives the simulator's sender through the script: segments
// go out over the netsim substrate (nobody answers — the script is the
// only ACK source), scripted ACKs are injected straight into HandleAck
// at their virtual times.
func mpRunSim(t *testing.T, seed uint64, script []mpAckEv) []string {
	t.Helper()
	sched := sim.NewScheduler()
	net := netsim.New(sched, mpDiffGraph())
	for _, id := range []topology.NodeID{1, 2, 3, 8, 9} {
		net.Node(id).HonorSourceRoutes = true
	}
	snd := multipath.NewSender(net, &multipath.ShortestK{}, 8, 9, 7000, mpDiffPayload(), mpDiffConfig(seed))
	var lines []string
	snd.SetTrace(func(l string) { lines = append(lines, l) })
	for _, ev := range script {
		ack := mpAckBytes(t, ev)
		sched.After(ev.at, func() { snd.HandleAck(ack) })
	}
	snd.Start()
	sched.Run()
	return lines
}

// mpRunWire drives the wire MultipathSender through the same script on
// a virtual clock: the same candidate set (same strategy, same graph),
// the socket layer replaced by a capture hook, ACKs fed through the
// same HandleAck entry point the UDP read loop uses. Everything between
// the two runs — template construction, ring/patch transmit path, RNG
// stream derivation, clock adapter — is what this harness pins.
func mpRunWire(t *testing.T, seed uint64, script []mpAckEv) []string {
	t.Helper()
	cfg := mpDiffConfig(seed)
	strat := &multipath.ShortestK{}
	cands := strat.Discover(mpDiffGraph(), 8, 9, cfg.Paths, cfg.MaxPathLen)
	if len(cands) == 0 {
		t.Fatal("no candidates discovered")
	}
	paths := make([]MPPath, len(cands))
	for i, c := range cands {
		paths[i] = MPPath{Hops: c.Path[1 : len(c.Path)-1], Latency: c.Latency}
	}
	sched := sim.NewScheduler()
	ws, err := newMultipathSender(MultipathSenderConfig{
		Transport: cfg,
		Strategy:  strat,
		Src:       8,
		Dst:       9,
		Port:      7000,
		Paths:     paths,
		Clock:     multipath.SimClock{Sched: sched},
	}, mpDiffPayload(), func(int, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	ws.SetTrace(func(l string) { lines = append(lines, l) })
	for _, ev := range script {
		ack := mpAckBytes(t, ev)
		sched.After(ev.at, func() { ws.HandleAck(ack) })
	}
	ws.Start()
	sched.Run()
	return lines
}

func TestMultipathDifferentialDecisions(t *testing.T) {
	var log strings.Builder
	for _, seed := range []uint64{42, 7} {
		for _, sc := range mpDiffScenarios() {
			simLines := mpRunSim(t, seed, sc.script)
			wireLines := mpRunWire(t, seed, sc.script)
			if len(simLines) == 0 {
				t.Fatalf("seed %d %s: simulator produced no decisions", seed, sc.name)
			}
			simLog := strings.Join(simLines, "\n")
			wireLog := strings.Join(wireLines, "\n")
			if simLog != wireLog {
				t.Errorf("seed %d %s: decision logs diverged\n--- sim ---\n%s\n--- wire ---\n%s",
					seed, sc.name, simLog, wireLog)
				continue
			}
			fmt.Fprintf(&log, "== scenario=%s seed=%d\n%s\n", sc.name, seed, simLog)
		}
	}
	if t.Failed() {
		return
	}

	const goldenPath = "testdata/golden_mp_decisions.txt"
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
		t.Fatalf("read golden multipath decision log: %v (regenerate with WIRE_GOLDEN_REGEN=1)", err)
	}
	if log.String() != string(want) {
		t.Fatalf("multipath decision log drifted from golden:\n--- got ---\n%s--- want ---\n%s", log.String(), want)
	}
}
