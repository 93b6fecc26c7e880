package chaos

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/routing/linkstate"
	"repro/internal/routing/pathvector"
	"repro/internal/sim"
	"repro/internal/topology"
)

// diamond builds 1—2—4 / 1—3—4 with the 2-path much cheaper, so healthy
// routing uses 2 and failover shifts to 3.
func diamond() *topology.Graph {
	g := topology.NewGraph()
	g.AddNode(1, topology.Stub, 3)
	g.AddNode(2, topology.Transit, 1)
	g.AddNode(3, topology.Transit, 1)
	g.AddNode(4, topology.Stub, 3)
	g.AddLink(1, 2, topology.CustomerOf, sim.Millisecond, 2)
	g.AddLink(1, 3, topology.CustomerOf, sim.Millisecond, 3)
	g.AddLink(4, 2, topology.CustomerOf, sim.Millisecond, 2)
	g.AddLink(4, 3, topology.CustomerOf, sim.Millisecond, 3)
	return g
}

func probe(t *testing.T, src, dst topology.NodeID) []byte {
	t.Helper()
	data, err := packet.Serialize(
		&packet.TIP{TTL: 16, Proto: packet.LayerTypeRaw,
			Src: packet.MakeAddr(uint16(src), 1), Dst: packet.MakeAddr(uint16(dst), 1)},
		&packet.Raw{Data: []byte("probe")})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func samplePlan() string {
	return `{
  "name": "smoke",
  "seed": 7,
  "events": [
    {"at_ms": 10, "kind": "link-down", "a": 1, "b": 2},
    {"at_ms": 20, "kind": "impair", "a": 1, "b": 3, "corrupt": 0.2, "duplicate": 0.1, "reorder_prob": 0.3, "reorder_jitter_ms": 2},
    {"at_ms": 30, "kind": "node-crash", "node": 2},
    {"at_ms": 40, "kind": "partition", "group": [2, 4]},
    {"at_ms": 50, "kind": "heal"},
    {"at_ms": 60, "kind": "node-recover", "node": 2},
    {"at_ms": 70, "kind": "clear-impair", "a": 1, "b": 3},
    {"at_ms": 80, "kind": "link-up", "a": 1, "b": 2},
    {"at_ms": 90, "kind": "link-flap", "a": 4, "b": 2, "period_ms": 5, "count": 4},
    {"at_ms": 120, "kind": "byzantine-burst", "node": 3, "count": 2, "cost": 0.01, "phantoms": [4]}
  ]
}`
}

func TestPlanRoundTrip(t *testing.T) {
	p, err := ParsePlan([]byte(samplePlan()))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "smoke" || p.Seed != 7 || len(p.Events) != 10 {
		t.Fatalf("parsed plan wrong: %+v", p)
	}
	enc, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParsePlan(enc)
	if err != nil {
		t.Fatalf("re-parse of own encoding failed: %v\n%s", err, enc)
	}
	enc2, err := p2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(enc2) {
		t.Fatalf("Encode∘ParsePlan is not a fixed point:\n%s\nvs\n%s", enc, enc2)
	}
}

func TestPlanValidationRejectsBadEvents(t *testing.T) {
	bad := []string{
		`{"events":[{"at_ms":-1,"kind":"heal"}]}`,
		`{"events":[{"at_ms":0,"kind":"warp-core-breach"}]}`,
		`{"events":[{"at_ms":0,"kind":"link-down","a":1,"b":1}]}`,
		`{"events":[{"at_ms":0,"kind":"link-down","a":1}]}`,
		`{"events":[{"at_ms":0,"kind":"link-flap","a":1,"b":2,"count":3}]}`,
		`{"events":[{"at_ms":0,"kind":"link-flap","a":1,"b":2,"period_ms":5}]}`,
		`{"events":[{"at_ms":0,"kind":"node-crash"}]}`,
		`{"events":[{"at_ms":0,"kind":"partition"}]}`,
		`{"events":[{"at_ms":0,"kind":"impair","a":1,"b":2}]}`,
		`{"events":[{"at_ms":0,"kind":"impair","a":1,"b":2,"corrupt":1.5}]}`,
		`{"events":[{"at_ms":0,"kind":"impair","a":1,"b":2,"reorder_prob":0.5}]}`,
		`{"events":[{"at_ms":0,"kind":"byzantine-burst","node":3}]}`,
		`{"events":[{"at_ms":0,"kind":"byzantine-burst","node":3,"count":1}]}`,
		`{"events":[{"at_ms":0,"kind":"link-down","a":1,"b":2,"bogus":true}]}`,
		`{"events":[]} trailing`,
	}
	for _, src := range bad {
		if _, err := ParsePlan([]byte(src)); err == nil {
			t.Errorf("ParsePlan accepted invalid plan: %s", src)
		}
	}
}

func TestScheduleRejectsUnknownTopologyRefs(t *testing.T) {
	g := diamond()
	net := netsim.New(sim.NewScheduler(), g)
	e := New(net, 1)
	for _, src := range []string{
		`{"events":[{"at_ms":0,"kind":"link-down","a":1,"b":99}]}`,
		`{"events":[{"at_ms":0,"kind":"link-down","a":2,"b":3}]}`, // nodes exist, link doesn't
		`{"events":[{"at_ms":0,"kind":"node-crash","node":9}]}`,
		`{"events":[{"at_ms":0,"kind":"partition","group":[1,77]}]}`,
		`{"events":[{"at_ms":0,"kind":"byzantine-burst","node":3,"count":1,"cost":0.1}]}`, // no AdDB bound
	} {
		p, err := ParsePlan([]byte(src))
		if err != nil {
			t.Fatalf("plan should parse (only schedule should fail): %s: %v", src, err)
		}
		if err := e.Schedule(p); err == nil {
			t.Errorf("Schedule accepted plan with bad topology refs: %s", src)
		}
	}
}

// replay runs the sample plan (minus the byzantine burst) over the
// diamond with probes every 2ms and returns a fingerprint of everything
// observable: per-probe fates, network counters, engine counters.
func replay(t *testing.T) string {
	t.Helper()
	g := diamond()
	sched := sim.NewScheduler()
	net := netsim.New(sched, g)
	db := linkstate.NewDatabase(g)
	r := NewLinkStateRerouter(net, db, true)
	if err := r.Converge(); err != nil {
		t.Fatal(err)
	}
	e := New(net, 42)
	e.Observe(r)
	p, err := ParsePlan([]byte(samplePlan()))
	if err != nil {
		t.Fatal(err)
	}
	p.Events = p.Events[:len(p.Events)-1] // burst needs an AdDB; not under test here
	if err := e.Schedule(p); err != nil {
		t.Fatal(err)
	}
	var traces []*netsim.Trace
	for i := 0; i < 70; i++ {
		at := sim.Time(i) * 2 * sim.Millisecond
		sched.At(at, func() { traces = append(traces, net.Send(1, probe(t, 1, 4))) })
	}
	sched.Run()
	var b strings.Builder
	for _, tr := range traces {
		if tr.Delivered {
			b.WriteString("D@")
			b.WriteString(tr.Latency().String())
		} else {
			b.WriteString(tr.DropReason)
		}
		b.WriteByte(';')
	}
	fmt.Fprintf(&b, "%v%v", net.Stats, e.Applied) // map fmt is key-sorted
	return b.String()
}

func TestEngineReplayIsByteIdentical(t *testing.T) {
	a := replay(t)
	b := replay(t)
	if a != b {
		t.Fatalf("same plan, same seed, different runs:\n%s\nvs\n%s", a, b)
	}
	// The plan must actually have done something interesting: stale-table
	// drops at the downed link, partition no-routes, impairment kills.
	for _, want := range []string{"link-down", "no-route", "corrupt"} {
		if !strings.Contains(a, want) {
			t.Errorf("replay fingerprint missing %q:\n%s", want, a)
		}
	}
}

func TestPartitionHealRestoresOnlyItsCuts(t *testing.T) {
	g := diamond()
	net := netsim.New(sim.NewScheduler(), g)
	e := New(net, 1)
	net.FailLink(1, 2) // pre-existing, independent fault
	e.partition([]topology.NodeID{2, 4})
	// Cut: 1-2 was already down (not recorded); boundary links 1-3? no —
	// group {2,4}: crossing links are 1-2 (down already) and 3-4.
	if !net.LinkFailed(3, 4) {
		t.Fatal("partition did not cut 3-4")
	}
	if net.LinkFailed(2, 4) {
		t.Fatal("partition cut an intra-group link")
	}
	e.heal()
	if net.LinkFailed(3, 4) {
		t.Fatal("heal did not restore the cut link")
	}
	if !net.LinkFailed(1, 2) {
		t.Fatal("heal restored a link its partition never cut")
	}
	e.heal() // no outstanding partition: must be a no-op
}

func TestLinkStateRerouterFailsOverOnCrash(t *testing.T) {
	g := diamond()
	sched := sim.NewScheduler()
	net := netsim.New(sched, g)
	db := linkstate.NewDatabase(g)
	r := NewLinkStateRerouter(net, db, true)
	if err := r.Converge(); err != nil {
		t.Fatal(err)
	}
	e := New(net, 1)
	e.Observe(r)
	p := &Plan{Events: []Event{
		{AtMs: 10, Kind: NodeCrash, Node: 2},
		{AtMs: 50, Kind: NodeRecover, Node: 2},
	}}
	if err := e.Schedule(p); err != nil {
		t.Fatal(err)
	}
	var before, during, staleWindow, after *netsim.Trace
	sched.At(5*sim.Millisecond, func() { before = net.Send(1, probe(t, 1, 4)) })
	// Immediately after the crash, tables are stale: traffic still heads
	// for node 2 and dies at the upstream with "peer-down".
	sched.At(10*sim.Millisecond+10*sim.Microsecond, func() { staleWindow = net.Send(1, probe(t, 1, 4)) })
	sched.At(30*sim.Millisecond, func() { during = net.Send(1, probe(t, 1, 4)) })
	sched.At(70*sim.Millisecond, func() { after = net.Send(1, probe(t, 1, 4)) })
	sched.Run()
	if !before.Delivered || pathVia(before) != 2 {
		t.Fatalf("healthy probe should ride the cheap path via 2: %+v", before.Events)
	}
	if staleWindow.Delivered || staleWindow.DropReason != "peer-down" {
		t.Fatalf("stale-window probe should die at the dead adjacency: %+v", staleWindow)
	}
	if !during.Delivered || pathVia(during) != 3 {
		t.Fatalf("post-reconvergence probe should fail over via 3: %+v", during.Events)
	}
	if !after.Delivered || pathVia(after) != 2 {
		t.Fatalf("post-recovery probe should return to the cheap path: %+v", after.Events)
	}
	if r.Reconverges != 2 {
		t.Fatalf("reconverges = %d, want 2 (crash + recover)", r.Reconverges)
	}
	if r.TotalChurn == 0 || r.TotalDelay == 0 {
		t.Fatalf("reconvergence must report churn and delay: %+v", r)
	}
}

func TestPathVectorRerouterFailsOverOnCrash(t *testing.T) {
	g := diamond()
	sched := sim.NewScheduler()
	net := netsim.New(sched, g)
	pv := pathvector.New(g)
	r := NewPathVectorRerouter(net, pv, true)
	if err := r.Converge(); err != nil {
		t.Fatal(err)
	}
	e := New(net, 1)
	e.Observe(r)
	p := &Plan{Events: []Event{{AtMs: 10, Kind: NodeCrash, Node: 2}}}
	if err := e.Schedule(p); err != nil {
		t.Fatal(err)
	}
	var before, during *netsim.Trace
	sched.At(5*sim.Millisecond, func() { before = net.Send(1, probe(t, 1, 4)) })
	sched.At(60*sim.Millisecond, func() { during = net.Send(1, probe(t, 1, 4)) })
	sched.Run()
	if !before.Delivered || pathVia(before) != 2 {
		t.Fatalf("healthy probe should transit 2 (lowest next hop): %+v", before.Events)
	}
	if !during.Delivered || pathVia(during) != 3 {
		t.Fatalf("after the crash path-vector must fail over via 3: %+v", during.Events)
	}
	if r.Reconverges != 1 || r.TotalChurn == 0 {
		t.Fatalf("reconvergence not recorded: %+v", r)
	}
}

// A rerouter with Install false is a shadow instance, as E27 runs
// link-state beside live path-vector routing: it counts every
// reconvergence with its churn and delay, but never changes any node's
// Route. The installing twin under the same plan shows the check can
// see a replaced Route.
func TestShadowRerouterNeverInstalls(t *testing.T) {
	for _, install := range []bool{false, true} {
		g := diamond()
		sched := sim.NewScheduler()
		net := netsim.New(sched, g)
		// Sentinel routes count their own calls, so a replaced Route is
		// one whose sentinel no longer sees the call.
		calls := map[topology.NodeID]int{}
		for _, id := range g.NodeIDs() {
			id := id
			net.Node(id).Route = func(packet.Addr, *packet.TIP) (topology.NodeID, bool) {
				calls[id]++
				return 0, false
			}
		}
		r := NewLinkStateRerouter(net, linkstate.NewDatabase(g), install)
		if err := r.Converge(); err != nil {
			t.Fatal(err)
		}
		e := New(net, 1)
		e.Observe(r)
		p := &Plan{Events: []Event{
			{AtMs: 10, Kind: NodeCrash, Node: 2},
			{AtMs: 40, Kind: LinkDown, A: 1, B: 3},
			{AtMs: 70, Kind: LinkUp, A: 1, B: 3},
			{AtMs: 100, Kind: NodeRecover, Node: 2},
		}}
		if err := e.Schedule(p); err != nil {
			t.Fatal(err)
		}
		sched.Run()
		if r.Reconverges != 4 || r.TotalChurn == 0 || r.TotalDelay == 0 {
			t.Fatalf("install=%v: reconverges %d, churn %d, delay %v; want 4 with churn and delay",
				install, r.Reconverges, r.TotalChurn, r.TotalDelay)
		}
		replaced := 0
		for _, id := range g.NodeIDs() {
			before := calls[id]
			net.Node(id).Route(packet.MakeAddr(4, 1), nil)
			if calls[id] == before {
				replaced++
			}
		}
		want := 0
		if install {
			want = len(g.Nodes)
		}
		if replaced != want {
			t.Fatalf("install=%v: %d of %d node routes replaced, want %d", install, replaced, len(g.Nodes), want)
		}
	}
}

// pathVia returns the transit node a delivered 1→4 diamond probe used.
func pathVia(tr *netsim.Trace) topology.NodeID {
	for _, id := range tr.Path() {
		if id == 2 || id == 3 {
			return id
		}
	}
	return 0
}

func TestByzantineBurstTrustModes(t *testing.T) {
	run := func(mode linkstate.VerifyMode) (*linkstate.AdDatabase, topology.NodeID) {
		g := diamond()
		sched := sim.NewScheduler()
		net := netsim.New(sched, g)
		keys := linkstate.GenerateKeys(g, sim.NewRNG(3))
		db := linkstate.NewAdDatabase(g, mode, keys)
		r := NewAdRerouter(net, db, keys, true)
		if err := r.Converge(); err != nil {
			t.Fatal(err)
		}
		e := New(net, 9)
		e.AdDB = db
		e.Keys = keys
		e.Observe(r)
		// Node 3 lies: all its links at ~zero cost plus a phantom link to
		// 2, signed with its own (valid!) key — the insider attack.
		p := &Plan{Events: []Event{{AtMs: 5, Kind: ByzantineBurst, Node: 3, Count: 1, Cost: 0.001, Phantoms: []topology.NodeID{2}}}}
		if err := e.Schedule(p); err != nil {
			t.Fatal(err)
		}
		var tr *netsim.Trace
		sched.At(20*sim.Millisecond, func() { tr = net.Send(1, probe(t, 1, 4)) })
		sched.Run()
		if !tr.Delivered {
			t.Fatalf("mode %v: probe died: %+v", mode, tr)
		}
		return db, pathVia(tr)
	}
	if _, via := run(linkstate.TrustAll); via != 3 {
		t.Fatalf("trust-all should be seduced by the liar's cheap links, went via %d", via)
	}
	db, via := run(linkstate.SignedTwoSided)
	if via != 2 {
		t.Fatalf("signed-two-sided should ignore the one-sided lie, went via %d", via)
	}
	if db.Rejected == 0 {
		t.Fatal("signed mode should have rejected the phantom link claim")
	}
}

// kindLog is an Observer that records the kind of each fault applied.
type kindLog []Kind

func (l *kindLog) Fault(ev Event, _ sim.Time) { *l = append(*l, ev.Kind) }

func TestFlapNotifiesPerToggle(t *testing.T) {
	g := diamond()
	sched := sim.NewScheduler()
	net := netsim.New(sched, g)
	e := New(net, 1)
	var kinds kindLog
	e.Observe(&kinds)
	p := &Plan{Events: []Event{{AtMs: 10, Kind: LinkFlap, A: 1, B: 2, PeriodMs: 5, Count: 4}}}
	if err := e.Schedule(p); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	want := []Kind{LinkDown, LinkUp, LinkDown, LinkUp}
	if len(kinds) != len(want) {
		t.Fatalf("toggle notifications = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("toggle notifications = %v, want %v", kinds, want)
		}
	}
	if net.LinkFailed(1, 2) {
		t.Fatal("even flap count must end with the link up")
	}
}
