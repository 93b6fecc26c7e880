package wire

import (
	"testing"

	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/topology"
)

// chainRoute is node 2's routing personality in a 1-2-3-4 chain, with
// two deliberate pathologies for drop-path coverage: destinations in
// provider 7 have no route, and provider 8 routes to a non-adjacent
// node.
func chainRoute(id topology.NodeID) netsim.RouteFunc {
	return func(dst packet.Addr, tip *packet.TIP) (topology.NodeID, bool) {
		switch dst.Provider() {
		case 7:
			return 0, false
		case 8:
			return 9, true
		}
		d := topology.NodeID(dst.Provider())
		switch {
		case d == id:
			return id, true
		case d > id:
			return id + 1, true
		default:
			return id - 1, true
		}
	}
}

// testNodeConfig is node 2 of the chain, honoring source routes that
// carry a payment voucher.
func testNodeConfig(mboxes []netsim.Middlebox) NodeConfig {
	paid, err := netsim.CompileSourceRoutePolicy("paid")
	if err != nil {
		panic(err)
	}
	return NodeConfig{
		ID:                2,
		Route:             chainRoute(2),
		HonorSourceRoutes: true,
		SourceRoutePolicy: paid,
		Middleboxes:       mboxes,
		Peers:             []topology.NodeID{1, 3},
	}
}

func rawPkt(t *testing.T, src, dst packet.Addr, ttl uint8, payload string) []byte {
	t.Helper()
	data, err := packet.Serialize(
		&packet.TIP{TTL: ttl, Proto: packet.LayerTypeRaw, Src: src, Dst: dst},
		&packet.Raw{Data: []byte(payload)})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func ttpPkt(t *testing.T, tip packet.TIP, port uint16, payload string) []byte {
	t.Helper()
	tip.Proto = packet.LayerTypeTTP
	data, err := packet.Serialize(&tip,
		&packet.TTP{SrcPort: 4000, DstPort: port, Next: packet.LayerTypeRaw},
		&packet.Raw{Data: []byte(payload)})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDataplaneDecisions(t *testing.T) {
	mk := func() *Dataplane {
		return NewDataplane(testNodeConfig([]netsim.Middlebox{
			&middlebox.PortFirewall{Label: "fw", BlockedPorts: map[uint16]bool{25: true}},
			ghost{port: 6667},
		}))
	}
	src := packet.MakeAddr(1, 1)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"deliver", rawPkt(t, src, packet.MakeAddr(2, 9), 16, "hi"), "deliver"},
		{"forward-up", rawPkt(t, src, packet.MakeAddr(4, 1), 16, "hi"), "forward 3"},
		{"forward-down", rawPkt(t, packet.MakeAddr(4, 1), packet.MakeAddr(1, 2), 16, "hi"), "forward 1"},
		{"ttl-expired", rawPkt(t, src, packet.MakeAddr(4, 1), 1, "hi"), "drop ttl"},
		{"no-route", rawPkt(t, src, packet.MakeAddr(7, 1), 16, "hi"), "drop no-route"},
		{"bad-next-hop", rawPkt(t, src, packet.MakeAddr(8, 1), 16, "hi"), "drop bad-next-hop"},
		{"blocked-loud", ttpPkt(t, packet.TIP{TTL: 16, Src: src, Dst: packet.MakeAddr(4, 1)}, 25, "MAIL"), "drop blocked:fw"},
		{"blocked-silent", ttpPkt(t, packet.TIP{TTL: 16, Src: src, Dst: packet.MakeAddr(4, 1)}, 6667, "irc"), "drop lost"},
		{"truncated", []byte{0x18, 0x00, 0x00}, "drop malformed"},
		{"empty", nil, "drop malformed"},
	}
	for _, c := range cases {
		dp := mk() // fresh kernel per case: no cross-case state
		buf := append([]byte(nil), c.data...)
		if got := dp.Process(buf).String(); got != c.want {
			t.Errorf("%s: decision %q, want %q", c.name, got, c.want)
		}
	}
}

func TestDataplaneForwardDecrementsTTL(t *testing.T) {
	dp := NewDataplane(testNodeConfig(nil))
	data := rawPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(4, 1), 16, "hi")
	dec := dp.Process(data)
	if dec.Kind != netsim.Forward {
		t.Fatalf("decision = %v", dec)
	}
	var tip packet.TIP
	if err := tip.DecodeFrom(dec.Data); err != nil {
		t.Fatalf("forwarded bytes no longer decode: %v", err)
	}
	if tip.TTL != 15 {
		t.Fatalf("forwarded TTL = %d, want 15 (decremented, checksum repaired)", tip.TTL)
	}
}

// srcRoutedPkt is a packet from 4.1 to 1.9 that asks to be steered
// through provider 3, carrying a payment voucher when pay is set.
func srcRoutedPkt(t *testing.T, pay bool) []byte {
	t.Helper()
	tip := &packet.TIP{
		TTL: 16, Proto: packet.LayerTypeRaw,
		Src: packet.MakeAddr(4, 1), Dst: packet.MakeAddr(1, 9),
		SourceRoute: &packet.SourceRouteOption{Hops: []packet.Addr{packet.MakeAddr(3, 1)}},
	}
	if pay {
		tip.Payment = &packet.PaymentOption{Payer: tip.Src, Payee: packet.MakeAddr(2, 0), AmountMilli: 5, Nonce: 1, MAC: 9}
	}
	data, err := packet.Serialize(tip, &packet.Raw{Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDataplaneSourceRoutePolicy pins the chain node's own source-route
// policy (testNodeConfig installs `paid`): a source route is honored
// only when the packet carries a payment voucher.
func TestDataplaneSourceRoutePolicy(t *testing.T) {
	// Paid: the waypoint (provider 3) wins over the destination route.
	dp := NewDataplane(testNodeConfig(nil))
	if got := dp.Process(srcRoutedPkt(t, true)).String(); got != "forward 3" {
		t.Fatalf("paid source route decided %q, want forward 3", got)
	}
	// Unpaid: policy ignores the source route; destination 1.9 routes
	// down the chain.
	if got := dp.Process(srcRoutedPkt(t, false)).String(); got != "forward 1" {
		t.Fatalf("unpaid source route decided %q, want forward 1", got)
	}
}

// TestDataplaneCompiledSourceRoutePolicy pins that a policy compiled in
// place of the node's own decides per its source, and that a
// vocabulary-rich policy steers decisions the simulator mirror-test
// (netsim TestSourceRoutePolicyWaypointSteering) pins on its side.
func TestDataplaneCompiledSourceRoutePolicy(t *testing.T) {
	compiled := func(t *testing.T, src string) *netsim.SourceRoutePolicy {
		t.Helper()
		p, err := netsim.CompileSourceRoutePolicy(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name         string
		policy       string
		paid, unpaid string
	}{
		// Recompiling `paid` decides as TestDataplaneSourceRoutePolicy.
		{"paid", "paid", "forward 3", "forward 1"},
		{"waypoint-allow", "waypoint-provider == 3", "forward 3", "forward 3"},
		{"waypoint-deny", "waypoint-provider != 3", "forward 1", "forward 1"},
		{"ttl-floor", "ttl > 20", "forward 1", "forward 1"}, // TTL is 15 after decrement
	}
	for _, c := range cases {
		cfg := testNodeConfig(nil)
		cfg.SourceRoutePolicy = compiled(t, c.policy)
		dp := NewDataplane(cfg)
		if got := dp.Process(srcRoutedPkt(t, true)).String(); got != c.paid {
			t.Errorf("%s: paid packet decided %q, want %q", c.name, got, c.paid)
		}
		if got := dp.Process(srcRoutedPkt(t, false)).String(); got != c.unpaid {
			t.Errorf("%s: unpaid packet decided %q, want %q", c.name, got, c.unpaid)
		}
	}
}

// TestProcessZeroAllocWithPolicy extends the decision-kernel alloc gate
// to the policy-enabled configuration: the compiled program runs on the
// pooled VM through the dataplane-owned slot scratch, so installing a
// source-route policy must not cost a single allocation per packet.
func TestProcessZeroAllocWithPolicy(t *testing.T) {
	cfg := testNodeConfig(nil)
	pol, err := netsim.CompileSourceRoutePolicy("paid && ttl > 0 && waypoint-provider < 100")
	if err != nil {
		t.Fatal(err)
	}
	cfg.SourceRoutePolicy = pol
	dp := NewDataplane(cfg)
	tip := &packet.TIP{
		TTL: 64, Proto: packet.LayerTypeRaw,
		Src: packet.MakeAddr(4, 1), Dst: packet.MakeAddr(1, 9),
		SourceRoute: &packet.SourceRouteOption{Hops: []packet.Addr{packet.MakeAddr(3, 1)}},
		Payment:     &packet.PaymentOption{Payer: packet.MakeAddr(4, 1), AmountMilli: 5},
	}
	fwd, err := packet.Serialize(tip, &packet.Raw{Data: []byte("forward me")})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(fwd))
	copy(buf, fwd)
	dp.Process(buf) // warm decode scratch and the VM pool
	allocs := testing.AllocsPerRun(300, func() {
		copy(buf, fwd)
		if dec := dp.Process(buf); dec.Kind != netsim.Forward || dec.Next != 3 {
			t.Fatalf("policy-gated packet decided %v", dec)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Process with policy costs %.1f allocs, want 0", allocs)
	}
}

// TestProcessZeroAlloc is the decision-kernel alloc gate: the
// steady-state mix (forward, deliver, malformed) must not allocate, or
// the engine's per-packet path regresses. The gate covers the
// middlebox-free fast path — the same discipline as netsim's
// TestForwardHopZeroAlloc; middlebox implementations decode on their
// own dime in both engines.
func TestProcessZeroAlloc(t *testing.T) {
	dp := NewDataplane(testNodeConfig(nil))
	fwd := rawPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(4, 1), 64, "forward me")
	del := rawPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(2, 9), 64, "deliver me")
	bad := []byte{0x18, 0x01, 0x02}
	buf := make([]byte, len(fwd))
	// Warm the decode scratch (first decode of each option shape may
	// allocate the pooled structs).
	dp.Process(append(buf[:0:len(buf)], fwd...))
	allocs := testing.AllocsPerRun(300, func() {
		copy(buf, fwd) // refill, as a receive slot would be
		if dec := dp.Process(buf); dec.Kind != netsim.Forward {
			t.Fatalf("forward packet decided %v", dec)
		}
		if dec := dp.Process(del); dec.Kind != netsim.Deliver {
			t.Fatalf("deliver packet decided %v", dec)
		}
		if dec := dp.Process(bad); dec.Kind != netsim.Dropped {
			t.Fatalf("malformed packet decided %v", dec)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Process costs %.1f allocs per 3-packet mix, want 0", allocs)
	}
}
