package invariant

import (
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestParseSet(t *testing.T) {
	for _, spec := range []string{"", "all"} {
		set, err := ParseSet(spec)
		if err != nil {
			t.Fatalf("ParseSet(%q): %v", spec, err)
		}
		if len(set) != len(All()) {
			t.Fatalf("ParseSet(%q) armed %d invariants, want %d", spec, len(set), len(All()))
		}
	}
	set, err := ParseSet("conservation, loop-free")
	if err != nil {
		t.Fatalf("ParseSet subset: %v", err)
	}
	if !set[Conservation] || !set[LoopFree] || len(set) != 2 {
		t.Fatalf("ParseSet subset = %v", set)
	}
	if _, err := ParseSet("conservatoin"); err == nil {
		t.Fatal("ParseSet accepted a typo; a typo must not silently disarm a check")
	}
	if _, err := ParseSet(","); err == nil {
		t.Fatal("ParseSet accepted an empty set")
	}
}

// lineNet builds a 3-node line 1–2–3 for hand-driven checker tests.
func lineNet() *netsim.Network {
	g := topology.NewGraph()
	for i := 1; i <= 3; i++ {
		g.AddNode(topology.NodeID(i), topology.Transit, 1)
	}
	g.AddLink(1, 2, topology.PeerOf, sim.Millisecond, 1)
	g.AddLink(2, 3, topology.PeerOf, sim.Millisecond, 1)
	return netsim.New(sim.NewScheduler(), g)
}

func TestComponents(t *testing.T) {
	net := lineNet()
	comp := Components(net)
	if comp[1] != comp[2] || comp[2] != comp[3] {
		t.Fatalf("healthy line not one component: %v", comp)
	}
	net.FailLink(1, 2)
	comp = Components(net)
	if comp[1] == comp[2] {
		t.Fatalf("failed link did not split components: %v", comp)
	}
	if comp[2] != comp[3] {
		t.Fatalf("2 and 3 should stay together: %v", comp)
	}
	net.FailNode(3)
	comp = Components(net)
	if comp[3] != -1 {
		t.Fatalf("crashed node component = %d, want -1", comp[3])
	}
}

func TestCheckTraceTerminals(t *testing.T) {
	net := lineNet()
	mk := func() *netsim.Trace {
		return &netsim.Trace{
			SentAt: 0, DoneAt: 10,
			Events: []netsim.TraceEvent{
				{At: 0, Node: 1, Action: "send"},
				{At: 5, Node: 2, Action: "forward"},
				{At: 10, Node: 3, Action: "deliver"},
			},
			Delivered: true,
		}
	}

	c := NewChecker(net, nil)
	c.CheckTrace(mk(), 32)
	if len(c.Violations()) != 0 {
		t.Fatalf("valid trace reported: %v", c.Violations()[0])
	}

	// Both delivered and dropped.
	c = NewChecker(net, nil)
	tr := mk()
	tr.DropReason = "ttl"
	c.CheckTrace(tr, 32)
	if !hasInvariant(c.Violations(), TraceValid) {
		t.Fatal("delivered+dropped trace not reported")
	}

	// Undelivered trace must end with a drop.
	c = NewChecker(net, nil)
	tr = mk()
	tr.Delivered = false
	c.CheckTrace(tr, 32)
	if !hasInvariant(c.Violations(), TraceValid) {
		t.Fatal("undelivered trace ending in deliver not reported")
	}

	// Timestamp regression.
	c = NewChecker(net, nil)
	tr = mk()
	tr.Events[1].At = 20
	c.CheckTrace(tr, 32)
	if !hasInvariant(c.Violations(), TraceValid) {
		t.Fatal("timestamp regression not reported")
	}

	// Teleport between non-adjacent nodes.
	c = NewChecker(net, nil)
	tr = &netsim.Trace{
		SentAt: 0, DoneAt: 10, Delivered: true,
		Events: []netsim.TraceEvent{
			{At: 0, Node: 1, Action: "send"},
			{At: 10, Node: 3, Action: "deliver"}, // 1 and 3 are not adjacent
		},
	}
	c.CheckTrace(tr, 32)
	if !hasInvariant(c.Violations(), TraceValid) {
		t.Fatal("teleporting trace not reported")
	}

	// TTL exhaustion: more forwards than the packet's TTL allowed.
	c = NewChecker(net, nil)
	tr = mk()
	c.CheckTrace(tr, 0)
	c2 := NewChecker(net, nil)
	c2.CheckTrace(mk(), 1)
	if len(c.Violations()) != 0 {
		t.Fatal("maxTTL 0 must disable the forward bound")
	}
	if len(c2.Violations()) != 0 {
		t.Fatal("1 forward within TTL 1 reported")
	}
	c3 := NewChecker(net, nil)
	tr = mk()
	tr.Events = append(tr.Events[:2:2],
		netsim.TraceEvent{At: 6, Node: 1, Action: "forward"},
		netsim.TraceEvent{At: 7, Node: 2, Action: "forward"},
		netsim.TraceEvent{At: 10, Node: 3, Action: "deliver"})
	c3.CheckTrace(tr, 2)
	if !hasInvariant(c3.Violations(), TraceValid) {
		t.Fatal("4 forwards above TTL 2 not reported")
	}
}

// Temporal reachability: store-and-forward across a sequence of epochs
// none of which has end-to-end connectivity is legitimate; a standing
// cut for the whole flight is not.
func TestReachableDuringTemporalPath(t *testing.T) {
	net := lineNet()
	c := NewChecker(net, nil)
	// Epoch 0: 1–2 up, 2–3 down. Epoch 1 (t=100): 1–2 down, 2–3 up.
	// A packet in flight [0,200] can reach 3 via storage at 2.
	c.epochs = []epoch{
		{start: 0, comp: map[topology.NodeID]int{1: 0, 2: 0, 3: 1}},
		{start: 100, comp: map[topology.NodeID]int{1: 0, 2: 1, 3: 1}},
	}
	if !c.reachableDuring(1, 3, 0, 200) {
		t.Fatal("temporal path 1→2→(wait)→3 not recognized")
	}
	// A flight entirely inside epoch 0 has no path to 3.
	if c.reachableDuring(1, 3, 0, 50) {
		t.Fatal("flight confined to the separated epoch must not reach 3")
	}
	// Crashed source (component -1) reaches nothing.
	c.epochs = []epoch{{start: 0, comp: map[topology.NodeID]int{1: -1, 2: 0, 3: 0}}}
	if c.reachableDuring(1, 3, 0, 50) {
		t.Fatal("crashed node must not be temporally reachable from")
	}
}

func TestFinishConservation(t *testing.T) {
	net := lineNet()
	c := NewChecker(net, nil)
	c.sends, c.dups, c.delivers, c.drops = 5, 1, 4, 2
	c.Finish()
	if len(c.Violations()) != 0 {
		t.Fatalf("balanced accounting reported: %v", c.Violations())
	}
	c = NewChecker(net, nil)
	c.sends, c.delivers = 5, 4
	c.Finish()
	if !hasInvariant(c.Violations(), Conservation) {
		t.Fatal("5 in, 4 out not reported")
	}
}

func TestViolationCap(t *testing.T) {
	net := lineNet()
	c := NewChecker(net, nil)
	for i := 0; i < maxViolations+10; i++ {
		c.Report(Clock, "x", int64(i))
	}
	if len(c.Violations()) != maxViolations {
		t.Fatalf("retained %d violations, want cap %d", len(c.Violations()), maxViolations)
	}
}

func TestDisarmedInvariantSilent(t *testing.T) {
	net := lineNet()
	c := NewChecker(net, map[string]bool{Conservation: true})
	c.Report(Clock, "x", 0)
	if len(c.Violations()) != 0 {
		t.Fatal("disarmed invariant still reported")
	}
}

func TestDdmin(t *testing.T) {
	// Predicate: candidate still contains both 3 and 7.
	items := make([]int, 20)
	for i := range items {
		items[i] = i
	}
	got := ddmin(items, func(c []int) bool {
		has3, has7 := false, false
		for _, v := range c {
			has3 = has3 || v == 3
			has7 = has7 || v == 7
		}
		return has3 && has7
	})
	if !reflect.DeepEqual(got, []int{3, 7}) {
		t.Fatalf("ddmin = %v, want [3 7]", got)
	}

	// Non-failing input is returned unchanged.
	same := ddmin([]int{1, 2, 3}, func([]int) bool { return false })
	if !reflect.DeepEqual(same, []int{1, 2, 3}) {
		t.Fatalf("ddmin of passing input = %v, want unchanged", same)
	}

	// An always-failing predicate shrinks to empty.
	empty := ddmin([]int{1, 2, 3}, func([]int) bool { return true })
	if len(empty) != 0 {
		t.Fatalf("ddmin with always-true predicate = %v, want empty", empty)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(12345), Generate(12345)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate is not a pure function of the seed")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated scenario invalid: %v", err)
	}
	c := Generate(12346)
	if reflect.DeepEqual(a.Plan.Events, c.Plan.Events) && reflect.DeepEqual(a.Traffic, c.Traffic) {
		t.Fatal("adjacent seeds generated identical scenarios")
	}
}

func TestScenarioRestorationTail(t *testing.T) {
	// Every generated plan must end fully healed: run it (no traffic) and
	// compare ground-truth connectivity before faults and at probe time.
	for seed := uint64(1); seed <= 20; seed++ {
		sc := Generate(seed)
		if vs := RunScenario(sc, map[string]bool{Reach: true}); len(vs) != 0 {
			t.Fatalf("seed %d: restoration tail left the network unhealed: %v", seed, vs[0])
		}
	}
}
