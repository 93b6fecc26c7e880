package core

import (
	"strings"
	"testing"
)

// goodMail is a guideline-compliant mail application design.
func goodMail() *AppDesign {
	return &AppDesign{
		Design: Design{
			Name: "mail",
			Choices: []ChoicePoint{
				{Chooser: User, Alternatives: 8, Visible: true, CostExposed: true}, // smtp-server
				{Chooser: User, Alternatives: 4, Visible: true, CostExposed: true}, // pop-server
			},
			Mechanisms: []*Mechanism{
				{Name: "server-selection", Visible: true},
				{Name: "spam-filtering", Visible: true},
			},
		},
		UserControlsNetworkFeatures: true,
		ThirdParties: []ThirdParty{
			{Selectable: true}, // reputation-service
		},
		IntermediariesVisible: true,
		EndToEndEncryption:    true,
	}
}

// badTelephony is the §VII failure: QoS bound to the provider's own
// telephony app, no user choice, no payments designed.
func badTelephony() *AppDesign {
	return &AppDesign{
		Design: Design{
			Name: "isp-telephony",
			Choices: []ChoicePoint{
				{Chooser: ISP, Alternatives: 2, Visible: false, CostExposed: false}, // codec
			},
			Mechanisms: []*Mechanism{
				{Name: "qos-for-our-voip-only", Couples: []Space{"apps", "economics"}},
			},
		},
		ThirdParties:   []ThirdParty{{Selectable: false}}, // the ISP itself
		NeedsValueFlow: true,
		HasValueFlow:   false,
	}
}

func TestGuidelinesPassGoodDesign(t *testing.T) {
	r := CheckGuidelines(goodMail())
	if r.Score() != 1 {
		for _, f := range r.Findings {
			if !f.Passed {
				t.Errorf("failed rule %s: %s", f.Rule, f.Detail)
			}
		}
		t.Fatalf("score = %v", r.Score())
	}
	if len(r.Findings) != 9 {
		t.Fatalf("rules = %d", len(r.Findings))
	}
}

func TestGuidelinesFailBadDesign(t *testing.T) {
	r := CheckGuidelines(badTelephony())
	if r.Score() > 0.2 {
		t.Fatalf("bad design scored %v", r.Score())
	}
	failed := map[string]bool{}
	for _, f := range r.Findings {
		if !f.Passed {
			failed[f.Rule] = true
		}
	}
	for _, rule := range []string{
		"user-choice", "tussle-isolation", "user-controls-features",
		"third-party-selection", "visible-intermediaries",
		"e2e-encryption", "value-flow",
	} {
		if !failed[rule] {
			t.Errorf("rule %s should fail for the bad design", rule)
		}
	}
}

func TestGuidelinesValueFlowOnlyWhenNeeded(t *testing.T) {
	app := goodMail()
	app.NeedsValueFlow = false
	app.HasValueFlow = false
	r := CheckGuidelines(app)
	for _, f := range r.Findings {
		if f.Rule == "value-flow" && !f.Passed {
			t.Fatal("value-flow should pass when no value flow is needed")
		}
	}
	app.NeedsValueFlow = true
	r = CheckGuidelines(app)
	for _, f := range r.Findings {
		if f.Rule == "value-flow" && f.Passed {
			t.Fatal("value-flow should fail when needed but undesigned")
		}
	}
	app.HasValueFlow = true
	r = CheckGuidelines(app)
	if r.Score() != 1 {
		t.Fatal("designed value flow should pass")
	}
}

func TestGuidelineDetailsCiteSections(t *testing.T) {
	r := CheckGuidelines(badTelephony())
	for _, f := range r.Findings {
		if !strings.Contains(f.Detail, "§") {
			t.Errorf("rule %s detail lacks a section anchor: %q", f.Rule, f.Detail)
		}
	}
}

func TestGuidelinesEmptyDesign(t *testing.T) {
	r := CheckGuidelines(&AppDesign{Design: Design{Name: "empty"}})
	// An empty design fails user-choice but trivially passes isolation;
	// the audit must not panic and must return all rules.
	if len(r.Findings) != 9 {
		t.Fatalf("rules = %d", len(r.Findings))
	}
	if r.Passed() == 0 || r.Passed() == len(r.Findings) {
		t.Fatalf("empty design passed %d/%d — expected a mix", r.Passed(), len(r.Findings))
	}
}
