package core

import (
	"math"
)

// ChoicePoint is one place in a design where some party selects among
// alternatives at run time — the unit of "design for choice" (§IV-B:
// "protocols must permit all the parties to express choice").
type ChoicePoint struct {
	// Chooser is the party that holds the choice.
	Chooser Kind
	// Alternatives is how many options the chooser has (>= 1; 1 means
	// no real choice).
	Alternatives int
	// Visible reports whether other parties can see the choice made
	// (§IV-C's "visibility (or not) of choices made").
	Visible bool
	// CostExposed reports whether the cost of the choice is exposed to
	// the chooser (§IV-C's "exposure of cost of choice").
	CostExposed bool
}

// Design is a protocol/architecture description for static analysis: its
// choice points and the space couplings of its mechanisms.
type Design struct {
	Name    string
	Choices []ChoicePoint
	// Mechanisms lists the design's parts with their space couplings.
	Mechanisms []*Mechanism
}

// ChoiceReport is the output of the design-for-choice analyzer.
type ChoiceReport struct {
	// BitsByKind is the total log2(alternatives) each party holds —
	// "bits of choice".
	BitsByKind map[Kind]float64
	// VisibleFraction is the share of choice points whose outcomes
	// other parties can observe.
	VisibleFraction float64
	// CostExposedFraction is the share of choice points whose costs
	// the chooser sees.
	CostExposedFraction float64
}

// AnalyzeChoice runs the §IV-B analyzer over a design.
func AnalyzeChoice(d *Design) ChoiceReport {
	r := ChoiceReport{BitsByKind: make(map[Kind]float64)}
	if len(d.Choices) == 0 {
		return r
	}
	visible, exposed := 0, 0
	for _, c := range d.Choices {
		alts := c.Alternatives
		if alts < 1 {
			alts = 1
		}
		r.BitsByKind[c.Chooser] += math.Log2(float64(alts))
		if c.Visible {
			visible++
		}
		if c.CostExposed {
			exposed++
		}
	}
	r.VisibleFraction = float64(visible) / float64(len(d.Choices))
	r.CostExposedFraction = float64(exposed) / float64(len(d.Choices))
	return r
}

// ChoiceBalance returns user bits minus provider (ISP) bits — positive
// means the design empowers users. §VI-B frames user empowerment as
// "the manifestation of the right to choose".
func ChoiceBalance(d *Design) float64 {
	r := AnalyzeChoice(d)
	return r.BitsByKind[User] - r.BitsByKind[ISP]
}

// IsolationReport is the output of the tussle-boundary analyzer.
type IsolationReport struct {
	// CoupledMechanisms counts mechanisms with at least one coupling.
	CoupledMechanisms int
	// TotalMechanisms counts all mechanisms analyzed.
	TotalMechanisms int
}

// IsolationScore is 1 minus the fraction of mechanisms that couple
// across tussle-space boundaries: 1.0 means perfectly modularized along
// tussle boundaries, 0.0 means everything is entangled.
func (r IsolationReport) IsolationScore() float64 {
	if r.TotalMechanisms == 0 {
		return 1
	}
	return 1 - float64(r.CoupledMechanisms)/float64(r.TotalMechanisms)
}

// AnalyzeIsolation runs the §IV-A analyzer over a design's mechanisms.
func AnalyzeIsolation(d *Design) IsolationReport {
	r := IsolationReport{TotalMechanisms: len(d.Mechanisms)}
	for _, m := range d.Mechanisms {
		if len(m.Couples) > 0 {
			r.CoupledMechanisms++
		}
	}
	return r
}

// VisibilityAudit reports, over an engine's deployed mechanisms, the
// fraction that reveal themselves — the §VI-A courtesy requirement
// ("require that devices reveal if they impose limitations").
func VisibilityAudit(st *State) float64 {
	if len(st.Mechanisms) == 0 {
		return 1
	}
	visible := 0
	for _, m := range st.Mechanisms {
		if m.Visible {
			visible++
		}
	}
	return float64(visible) / float64(len(st.Mechanisms))
}

// DistortionRate reports the fraction of deployed mechanisms that are
// distortions — moves made by violating the design rather than within
// it. A rising rate is the signature of a rigid design breaking (§IV:
// "rigid designs will be broken").
func DistortionRate(st *State) float64 {
	if len(st.Mechanisms) == 0 {
		return 0
	}
	n := 0
	for _, m := range st.Mechanisms {
		if m.Distortion {
			n++
		}
	}
	return float64(n) / float64(len(st.Mechanisms))
}
