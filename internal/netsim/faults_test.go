package netsim

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

func TestLinkFailureDropsTraffic(t *testing.T) {
	n, sched := chainNet(t)
	n.FailLink(2, 3)
	tr := n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(4, 1), 16))
	sched.Run()
	if tr.Delivered {
		t.Fatal("delivered across a failed link")
	}
	// The live upstream end reports the dead link, which localizes the
	// fault to one hop (a silent middlebox there would report only "lost").
	if tr.DropReason != "link-down" || tr.DropNode != 2 {
		t.Fatalf("drop = %q at %d, want link-down at 2", tr.DropReason, tr.DropNode)
	}
	n.RestoreLink(2, 3)
	tr2 := n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(4, 1), 16))
	sched.Run()
	if !tr2.Delivered {
		t.Fatal("restore failed")
	}
}

func TestLinkFailedSymmetric(t *testing.T) {
	n, _ := chainNet(t)
	n.FailLink(3, 2)
	if !n.LinkFailed(2, 3) || !n.LinkFailed(3, 2) {
		t.Fatal("failure should be direction-agnostic")
	}
}

func TestNodeCrashStopsAllTraffic(t *testing.T) {
	n, sched := chainNet(t)
	n.FailNode(3)
	if !n.NodeFailed(3) || n.NodeFailed(2) {
		t.Fatal("NodeFailed bookkeeping wrong")
	}
	// Transit through the crashed node: the live upstream detects the
	// dead adjacency and reports it.
	tr := n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(4, 1), 16))
	sched.Run()
	if tr.Delivered || tr.DropReason != "peer-down" || tr.DropNode != 2 {
		t.Fatalf("transit via crashed node: %+v", tr)
	}
	// Delivery at the crashed node: silent.
	tr = n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(3, 1), 16))
	sched.Run()
	if tr.Delivered || tr.DropReason != "peer-down" {
		t.Fatalf("delivery to crashed node: %+v", tr)
	}
	// Origination at the crashed node: dies inside, invisible outside.
	tr = n.Send(3, mkPkt(t, packet.MakeAddr(3, 1), packet.MakeAddr(4, 1), 16))
	sched.Run()
	if tr.Delivered || tr.DropReason != "node-down" {
		t.Fatalf("send from crashed node: %+v", tr)
	}
	// Recovery restores everything.
	n.RecoverNode(3)
	tr = n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(4, 1), 16))
	sched.Run()
	if !tr.Delivered {
		t.Fatalf("post-recovery packet lost: %q", tr.DropReason)
	}
}

func TestNodeCrashInFlightPacketDiesSilently(t *testing.T) {
	n, sched := chainNet(t)
	// Crash node 3 while the packet is on the wire 2→3: the arrival
	// check (not the upstream peer check) must kill it.
	sched.At(1500*sim.Microsecond, func() { n.FailNode(3) })
	tr := n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(4, 1), 16))
	sched.Run()
	if tr.Delivered || tr.DropReason != "node-down" || tr.DropNode != 3 {
		t.Fatalf("in-flight packet at crash: %+v", tr)
	}
}

func TestImpairmentCorruptionAndDeterminism(t *testing.T) {
	run := func() (delivered int, reasons map[string]int) {
		n, sched := chainNet(t)
		n.ImpairLink(2, 3, LinkImpairment{Corrupt: 0.3}, sim.NewRNG(99))
		reasons = map[string]int{}
		for i := 0; i < 200; i++ {
			tr := n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(4, 1), 16))
			sched.Run()
			if tr.Delivered {
				delivered++
			} else {
				reasons[tr.DropReason]++
			}
		}
		return delivered, reasons
	}
	d1, r1 := run()
	d2, r2 := run()
	if d1 != d2 || r1["corrupt"] != r2["corrupt"] {
		t.Fatalf("impairment not deterministic: %d/%v vs %d/%v", d1, r1, d2, r2)
	}
	if r1["corrupt"] < 30 || r1["corrupt"] > 90 {
		t.Fatalf("corrupt rate implausible for p=0.3: %v", r1)
	}
	if d1+r1["corrupt"] != 200 {
		t.Fatalf("unexpected drop reasons: %v", r1)
	}
}

func TestImpairmentDuplication(t *testing.T) {
	n, sched := chainNet(t)
	n.ImpairLink(2, 3, LinkImpairment{Duplicate: 1}, sim.NewRNG(5))
	var delivered int
	n.Node(4).Deliver = func(nd *Node, tr *Trace, data []byte) { delivered++ }
	tr := n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(4, 1), 16))
	sched.Run()
	if !tr.Delivered {
		t.Fatalf("original lost: %q", tr.DropReason)
	}
	if delivered != 2 {
		t.Fatalf("deliveries = %d, want original + duplicate", delivered)
	}
	if n.Stats["dup-injected"] != 1 {
		t.Fatalf("dup-injected = %d", n.Stats["dup-injected"])
	}
	n.ClearImpairment(2, 3)
	delivered = 0
	n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(4, 1), 16))
	sched.Run()
	if delivered != 1 {
		t.Fatalf("impairment not cleared: %d deliveries", delivered)
	}
}

func TestImpairmentReorder(t *testing.T) {
	// Two back-to-back packets; the first gets jittered past the second.
	n, sched := chainNet(t)
	imp := LinkImpairment{ReorderProb: 1, ReorderJitter: 20 * sim.Millisecond}
	// Use an RNG stream whose first draws jitter the first packet far
	// more than the second (deterministic: fixed seed, fixed order).
	n.ImpairLink(2, 3, imp, sim.NewRNG(1))
	var order []sim.Time
	n.Node(4).Deliver = func(nd *Node, tr *Trace, data []byte) { order = append(order, tr.DoneAt) }
	a := n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(4, 1), 16))
	b := n.Send(1, mkPkt(t, packet.MakeAddr(1, 1), packet.MakeAddr(4, 1), 16))
	sched.Run()
	if !a.Delivered || !b.Delivered {
		t.Fatalf("reorder lost packets: %q %q", a.DropReason, b.DropReason)
	}
	if len(order) != 2 || order[0] >= order[1] {
		t.Fatalf("arrivals not strictly ordered: %v", order)
	}
	if a.DoneAt == b.DoneAt {
		t.Fatal("jitter had no effect")
	}
}

func TestBacklogReporting(t *testing.T) {
	n, sched := chainNet(t)
	if n.NodeBacklog(1) != 0 {
		t.Fatal("idle node reports backlog")
	}
	// Queue several large packets onto 1→2, node 1's only link; the
	// backlog must be visible before they serialize out, and must be
	// what they still have to serialize.
	big := make([]byte, 40000)
	var size int
	for i := 0; i < 5; i++ {
		data, err := packet.Serialize(
			&packet.TIP{TTL: 16, Proto: packet.LayerTypeRaw,
				Src: packet.MakeAddr(1, 1), Dst: packet.MakeAddr(4, 1)},
			&packet.Raw{Data: big})
		if err != nil {
			t.Fatal(err)
		}
		size = len(data)
		n.Send(1, data)
	}
	tx := sim.Time(float64(size) / n.LinkRate * float64(sim.Second))
	var seen sim.Time
	sched.At(10*sim.Microsecond, func() { seen = n.NodeBacklog(1) })
	sched.Run()
	if want := 5*tx - 10*sim.Microsecond; seen != want {
		t.Fatalf("NodeBacklog = %v, want %v (five serializations less 10µs)", seen, want)
	}
	if n.NodeBacklog(1) != 0 {
		t.Fatal("drained node still reports backlog")
	}
}
