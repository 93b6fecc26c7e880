package core

import "fmt"

// This file implements the artifact §VI-A calls for: "This observation
// suggests that we should generate 'application design guidelines' that
// would help designers avoid pitfalls, and deal with the tussles of
// success." CheckGuidelines audits an application design against the
// paper's own advice and reports what passes, what fails, and why.

// AppDesign extends Design with the application-level facts the
// guidelines examine.
type AppDesign struct {
	Design
	// UserControlsNetworkFeatures: the user can decide which
	// in-network features (caches, filters, enhancers) are invoked
	// ("if applications are designed so that the user can control what
	// features 'in the network' are invoked, the designer may have
	// done as much as they can").
	UserControlsNetworkFeatures bool
	// ThirdParties lists the mediating parties the design involves
	// (certificate agents, reputation services, guarantors...).
	ThirdParties []ThirdParty
	// IntermediariesVisible: in-path elements reveal themselves and
	// their limitations.
	IntermediariesVisible bool
	// EndToEndEncryption: the endpoints can go dark at their option.
	EndToEndEncryption bool
	// NeedsValueFlow marks designs in which some party must be
	// compensated for the design to be deployed (QoS, source routing,
	// transit); HasValueFlow marks a designed payment mechanism.
	NeedsValueFlow, HasValueFlow bool
}

// ThirdParty is one mediator in a multi-way application.
type ThirdParty struct {
	// Selectable: the end parties can choose which instance of this
	// mediator they use ("there should be explicit ability to select
	// what third parties are used to mediate an interaction").
	Selectable bool
}

// GuidelineFinding is one rule's verdict.
type GuidelineFinding struct {
	Rule   string
	Passed bool
	// Detail explains the verdict; for failures it is the §-anchored
	// advice.
	Detail string
}

// GuidelineReport is the complete audit.
type GuidelineReport struct {
	Findings []GuidelineFinding
}

// Passed counts satisfied rules.
func (r GuidelineReport) Passed() int {
	n := 0
	for _, f := range r.Findings {
		if f.Passed {
			n++
		}
	}
	return n
}

// Score is the fraction of rules satisfied.
func (r GuidelineReport) Score() float64 {
	if len(r.Findings) == 0 {
		return 1
	}
	return float64(r.Passed()) / float64(len(r.Findings))
}

// CheckGuidelines audits an application design against the paper's
// design advice.
func CheckGuidelines(app *AppDesign) GuidelineReport {
	var out []GuidelineFinding
	add := func(rule string, passed bool, detail string) {
		out = append(out, GuidelineFinding{Rule: rule, Passed: passed, Detail: detail})
	}

	// 1. Design for choice: users must hold real choice.
	choice := AnalyzeChoice(&app.Design)
	userBits := choice.BitsByKind[User]
	add("user-choice", userBits >= 1,
		fmt.Sprintf("users hold %.1f bits of choice; §IV-B: protocols must permit all the parties to express choice", userBits))

	// 2. Tussle isolation: mechanisms should not couple spaces.
	iso := AnalyzeIsolation(&app.Design)
	add("tussle-isolation", iso.IsolationScore() >= 0.75,
		fmt.Sprintf("isolation score %.2f; §IV-A: functions within a tussle space should be logically separated", iso.IsolationScore()))

	// 3. Visible choices: other parties can see choices made.
	add("visible-choices", choice.VisibleFraction >= 0.5,
		fmt.Sprintf("%.0f%% of choices visible; §IV-C: it matters if choices and their consequences are visible", choice.VisibleFraction*100))

	// 4. Exposed costs: the chooser sees what choosing costs.
	add("cost-exposure", choice.CostExposedFraction >= 0.5,
		fmt.Sprintf("%.0f%% of choice costs exposed; §IV-C: exposure of cost of choice", choice.CostExposedFraction*100))

	// 5. User control of in-network features.
	add("user-controls-features", app.UserControlsNetworkFeatures,
		"§VI-A: design so the user can control what features in the network are invoked")

	// 6. Third parties must be selectable.
	selectable := true
	for _, tp := range app.ThirdParties {
		if !tp.Selectable {
			selectable = false
		}
	}
	add("third-party-selection", selectable,
		"§V-B: explicit ability to select what third parties mediate the interaction")

	// 7. Intermediaries reveal themselves.
	add("visible-intermediaries", app.IntermediariesVisible,
		"§V-B: require that devices reveal if they impose limitations")

	// 8. End-to-end encryption available.
	add("e2e-encryption", app.EndToEndEncryption,
		"§VI-A: the ultimate defense of the end-to-end mode is end-to-end encryption")

	// 9. Value flow designed when needed.
	add("value-flow", !app.NeedsValueFlow || app.HasValueFlow,
		"§IV-C: if the value flow requires a protocol, design it")

	return GuidelineReport{Findings: out}
}
