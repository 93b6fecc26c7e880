// Package congestion implements the congestion-control tussle §II-B uses
// as its lead example of ignoring tussle: "TCP congestion control 'works'
// when and only when the majority of end-systems both participate and
// follow a common set of rules... Should this balance change, the
// technical design of the system will do nothing to bound or guide the
// resulting shift."
//
// The package provides an AIMD flow model over a shared bottleneck, a
// cheater flow that does not back off, and two bottleneck disciplines:
// a shared FIFO queue (the classic design, where compliance is purely
// social) and per-flow fair queueing (a technical mechanism that bounds
// the tussle by making defection unprofitable).
package congestion

import "repro/internal/sim"

// Flow is one end-system's sending process.
type Flow struct {
	// Cwnd is the congestion window, in packets per round.
	Cwnd float64
	// Aggressive flows ignore loss signals — the §II-B defectors who
	// "benefit at others' expense".
	Aggressive bool
	// AdditiveIncrease and MultiplicativeDecrease are the AIMD knobs.
	AdditiveIncrease       float64
	MultiplicativeDecrease float64

	// Delivered accumulates across rounds.
	Delivered float64
}

// NewFlow returns a standard AIMD flow (increase 1, decrease 0.5).
func NewFlow(aggressive bool) *Flow {
	return &Flow{Cwnd: 1, Aggressive: aggressive, AdditiveIncrease: 1, MultiplicativeDecrease: 0.5}
}

// react applies the per-round control law given whether the flow saw
// loss this round.
func (f *Flow) react(sawLoss bool) {
	if f.Aggressive {
		// The cheater always increases.
		f.Cwnd += f.AdditiveIncrease
		return
	}
	if sawLoss {
		f.Cwnd *= f.MultiplicativeDecrease
		if f.Cwnd < 1 {
			f.Cwnd = 1
		}
	} else {
		f.Cwnd += f.AdditiveIncrease
	}
}

// Discipline selects the bottleneck's sharing mechanism.
type Discipline uint8

// Bottleneck disciplines.
const (
	// SharedFIFO drops proportionally to offered load when the sum
	// exceeds capacity — the aggregate pays, so aggression pays.
	SharedFIFO Discipline = iota
	// FairQueue gives each flow a max-min fair share — aggression
	// beyond the fair share is simply dropped.
	FairQueue
)

func (d Discipline) String() string {
	if d == SharedFIFO {
		return "shared-fifo"
	}
	return "fair-queue"
}

// Bottleneck is the shared resource.
type Bottleneck struct {
	// Capacity is packets per round.
	Capacity float64
	Disc     Discipline
	Flows    []*Flow

	// Rounds counts simulation steps; TotalDelivered/TotalLost are
	// aggregates.
	Rounds                    int
	TotalDelivered, TotalLost float64
}

// NewBottleneck builds the shared link.
func NewBottleneck(capacity float64, disc Discipline, flows ...*Flow) *Bottleneck {
	return &Bottleneck{Capacity: capacity, Disc: disc, Flows: flows}
}

// Step runs one round: every flow offers its window, the discipline
// allocates capacity, flows observe loss and react.
func (b *Bottleneck) Step() {
	b.Rounds++
	offered := 0.0
	for _, f := range b.Flows {
		offered += f.Cwnd
	}
	switch b.Disc {
	case SharedFIFO:
		// Proportional service: everyone keeps the same fraction.
		frac := 1.0
		if offered > b.Capacity {
			frac = b.Capacity / offered
		}
		for _, f := range b.Flows {
			got := f.Cwnd * frac
			lost := f.Cwnd - got
			f.Delivered += got
			b.TotalDelivered += got
			b.TotalLost += lost
			f.react(lost > 0.001)
		}
	case FairQueue:
		// Max-min fair allocation: iteratively satisfy small demands.
		share := maxMin(b.Capacity, b.Flows)
		for i, f := range b.Flows {
			got := share[i]
			lost := f.Cwnd - got
			f.Delivered += got
			b.TotalDelivered += got
			b.TotalLost += lost
			f.react(lost > 0.001)
		}
	}
}

// maxMin computes the max-min fair allocation of capacity to demands.
func maxMin(capacity float64, flows []*Flow) []float64 {
	n := len(flows)
	alloc := make([]float64, n)
	remainingCap := capacity
	active := make([]bool, n)
	remaining := 0
	for i := range flows {
		active[i] = true
		remaining++
	}
	for remaining > 0 && remainingCap > 1e-12 {
		share := remainingCap / float64(remaining)
		progress := false
		for i, f := range flows {
			if active[i] && f.Cwnd-alloc[i] <= share {
				// Demand satisfied.
				remainingCap -= f.Cwnd - alloc[i]
				alloc[i] = f.Cwnd
				active[i] = false
				remaining--
				progress = true
			}
		}
		if !progress {
			// Everyone wants at least the share: split evenly.
			for i := range flows {
				if active[i] {
					alloc[i] += share
				}
			}
			remainingCap = 0
		}
	}
	return alloc
}

// Run executes n rounds.
func (b *Bottleneck) Run(n int) {
	for i := 0; i < n; i++ {
		b.Step()
	}
}

// Goodput returns total delivered per round.
func (b *Bottleneck) Goodput() float64 {
	if b.Rounds == 0 {
		return 0
	}
	return b.TotalDelivered / float64(b.Rounds)
}

// LossRate returns the fraction of offered traffic lost.
func (b *Bottleneck) LossRate() float64 {
	total := b.TotalDelivered + b.TotalLost
	if total == 0 {
		return 0
	}
	return b.TotalLost / total
}

// ShareOf returns the fraction of delivered traffic that went to flows
// selected by pred — e.g. the cheaters' share.
func (b *Bottleneck) ShareOf(pred func(*Flow) bool) float64 {
	if b.TotalDelivered == 0 {
		return 0
	}
	got := 0.0
	for _, f := range b.Flows {
		if pred(f) {
			got += f.Delivered
		}
	}
	return got / b.TotalDelivered
}

// JainIndex computes Jain's fairness index over per-flow delivered
// totals: 1.0 is perfectly fair, 1/n is maximally unfair.
func (b *Bottleneck) JainIndex() float64 {
	var sum, sumSq float64
	for _, f := range b.Flows {
		sum += f.Delivered
		sumSq += f.Delivered * f.Delivered
	}
	n := float64(len(b.Flows))
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (n * sumSq)
}

// SocialPressure models the paper's out-of-band enforcement: with
// probability pDetect per round, one aggressive flow is caught (by its
// ISP, by the community) and converted to compliant behaviour. Returns
// the number converted over the run.
func SocialPressure(b *Bottleneck, rng *sim.RNG, pDetect float64, rounds int) int {
	converted := 0
	for i := 0; i < rounds; i++ {
		b.Step()
		if rng.Bool(pDetect) {
			for _, f := range b.Flows {
				if f.Aggressive {
					f.Aggressive = false
					converted++
					break
				}
			}
		}
	}
	return converted
}
