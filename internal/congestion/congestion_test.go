package congestion

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func compliantFlows(n int) []*Flow {
	out := make([]*Flow, n)
	for i := range out {
		out[i] = NewFlow(false)
	}
	return out
}

func TestCompliantFlowsShareFairly(t *testing.T) {
	flows := compliantFlows(4)
	b := NewBottleneck(40, SharedFIFO, flows...)
	b.Run(500)
	if j := b.JainIndex(); j < 0.95 {
		t.Fatalf("Jain index among identical AIMD flows = %v", j)
	}
	// Link should be well utilized.
	if g := b.Goodput(); g < 30 {
		t.Fatalf("goodput = %v of capacity 40", g)
	}
}

func TestCheaterDominatesSharedFIFO(t *testing.T) {
	flows := compliantFlows(4)
	cheat := NewFlow(true)
	flows = append(flows, cheat)
	b := NewBottleneck(40, SharedFIFO, flows...)
	b.Run(500)
	cheaterShare := b.ShareOf(func(f *Flow) bool { return f.Aggressive })
	if cheaterShare < 0.5 {
		t.Fatalf("cheater share on FIFO = %v, should dominate 1/5 fair share", cheaterShare)
	}
}

func TestFairQueueBoundsCheater(t *testing.T) {
	run := func(disc Discipline) *Bottleneck {
		flows := compliantFlows(4)
		flows = append(flows, NewFlow(true))
		b := NewBottleneck(40, disc, flows...)
		b.Run(500)
		return b
	}
	fifo := run(SharedFIFO)
	fq := run(FairQueue)
	cheaterFIFO := fifo.ShareOf(func(f *Flow) bool { return f.Aggressive })
	cheaterFQ := fq.ShareOf(func(f *Flow) bool { return f.Aggressive })
	// FQ bounds the cheater's advantage: well below its FIFO haul and
	// below half the link (it still absorbs slack that sawtoothing
	// AIMD flows leave on the table — that is max-min, not a bug).
	if cheaterFQ >= cheaterFIFO/2 {
		t.Fatalf("cheater share: FQ %v vs FIFO %v — FQ should bound it", cheaterFQ, cheaterFIFO)
	}
	if cheaterFQ > 0.45 {
		t.Fatalf("cheater share under FQ = %v", cheaterFQ)
	}
	// And each compliant flow is strictly better off under FQ.
	compliantFQ := fq.ShareOf(func(f *Flow) bool { return !f.Aggressive }) * fq.TotalDelivered
	compliantFIFO := fifo.ShareOf(func(f *Flow) bool { return !f.Aggressive }) * fifo.TotalDelivered
	if compliantFQ <= compliantFIFO {
		t.Fatalf("compliant delivered: FQ %v vs FIFO %v", compliantFQ, compliantFIFO)
	}
}

func TestCheatersCollapseGoodputOnFIFO(t *testing.T) {
	// With many cheaters on FIFO, loss explodes.
	var flows []*Flow
	for i := 0; i < 5; i++ {
		flows = append(flows, NewFlow(true))
	}
	b := NewBottleneck(40, SharedFIFO, flows...)
	b.Run(500)
	if b.LossRate() < 0.5 {
		t.Fatalf("all-cheater loss rate = %v, want congestion collapse", b.LossRate())
	}
}

func TestAIMDReactions(t *testing.T) {
	f := NewFlow(false)
	f.Cwnd = 10
	f.react(false)
	if f.Cwnd != 11 {
		t.Fatalf("additive increase: %v", f.Cwnd)
	}
	f.react(true)
	if f.Cwnd != 5.5 {
		t.Fatalf("multiplicative decrease: %v", f.Cwnd)
	}
	// Floor at 1.
	f.Cwnd = 1
	f.react(true)
	if f.Cwnd != 1 {
		t.Fatalf("floor: %v", f.Cwnd)
	}
	// Cheater ignores loss.
	c := NewFlow(true)
	c.Cwnd = 10
	c.react(true)
	if c.Cwnd != 11 {
		t.Fatalf("cheater reaction: %v", c.Cwnd)
	}
}

func TestMaxMinProperties(t *testing.T) {
	flows := []*Flow{
		{Cwnd: 2},  // small demand: fully satisfied
		{Cwnd: 50}, // elephant
		{Cwnd: 50}, // elephant
	}
	alloc := maxMin(30, flows)
	if alloc[0] != 2 {
		t.Fatalf("small demand alloc = %v", alloc[0])
	}
	if math.Abs(alloc[1]-14) > 1e-9 || math.Abs(alloc[2]-14) > 1e-9 {
		t.Fatalf("elephant allocs = %v, %v; want 14 each", alloc[1], alloc[2])
	}
}

func TestMaxMinConservation(t *testing.T) {
	rng := sim.NewRNG(1)
	f := func(seed uint32) bool {
		n := int(seed%5) + 1
		flows := make([]*Flow, n)
		demand := 0.0
		for i := range flows {
			flows[i] = &Flow{Cwnd: rng.Range(0.1, 20)}
			demand += flows[i].Cwnd
		}
		cap := rng.Range(1, 40)
		alloc := maxMin(cap, flows)
		total := 0.0
		for i, a := range alloc {
			if a < -1e-9 || a > flows[i].Cwnd+1e-9 {
				return false // never exceed demand
			}
			total += a
		}
		want := math.Min(cap, demand)
		return math.Abs(total-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSocialPressureRestoresOrder(t *testing.T) {
	rng := sim.NewRNG(2)
	var flows []*Flow
	for i := 0; i < 4; i++ {
		flows = append(flows, NewFlow(false))
	}
	for i := 0; i < 3; i++ {
		flows = append(flows, NewFlow(true))
	}
	b := NewBottleneck(40, SharedFIFO, flows...)
	converted := SocialPressure(b, rng, 0.05, 600)
	if converted != 3 {
		t.Fatalf("converted %d cheaters, want all 3", converted)
	}
	// After conversion, measure fairness over a fresh window.
	for _, f := range b.Flows {
		f.Delivered = 0
	}
	b.TotalDelivered, b.TotalLost = 0, 0
	b.Run(300)
	if j := b.JainIndex(); j < 0.9 {
		t.Fatalf("post-enforcement Jain index = %v", j)
	}
}

func TestGoodputNeverExceedsCapacity(t *testing.T) {
	f := func(seed uint64, disc bool) bool {
		rng := sim.NewRNG(seed)
		var flows []*Flow
		n := rng.Intn(6) + 1
		for i := 0; i < n; i++ {
			flows = append(flows, NewFlow(rng.Bool(0.3)))
		}
		d := SharedFIFO
		if disc {
			d = FairQueue
		}
		b := NewBottleneck(rng.Range(5, 50), d, flows...)
		b.Run(200)
		return b.Goodput() <= b.Capacity+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDisciplineString(t *testing.T) {
	if SharedFIFO.String() != "shared-fifo" || FairQueue.String() != "fair-queue" {
		t.Fatal("discipline names wrong")
	}
}
