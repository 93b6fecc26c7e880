package scenarios

import (
	"testing"

	"repro/internal/core"
)

func TestNamesAndBuild(t *testing.T) {
	names := Names()
	if len(names) != 4 {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		e, err := Build(n)
		if err != nil || e == nil {
			t.Fatalf("Build(%q): %v", n, err)
		}
	}
	if _, err := Build("nonexistent"); err == nil {
		t.Fatal("unknown scenario built")
	}
}

func TestValuePricingEscalation(t *testing.T) {
	e := ValuePricing()
	e.Run(10)
	st := e.State()
	for _, m := range []string{"server-ban", "tunnel", "dpi", "encrypted-tunnel"} {
		if !st.Has(m) {
			t.Fatalf("mechanism %q never deployed: %s", m, e.Summary())
		}
	}
	if !e.Stable(3) {
		t.Fatal("escalation should quiesce")
	}
	// Two of the four mechanisms are distortions — the design made the
	// user fight outside it.
	if r := core.DistortionRate(st); r != 0.5 {
		t.Fatalf("distortion rate = %v", r)
	}
	// End state: the ban is fully evaded; the user out-runs the ISP.
	if e.ControlBalance(core.User, core.ISP) <= 0 {
		t.Fatalf("user should win the escalation: balance %v", e.ControlBalance(core.User, core.ISP))
	}
}

func TestEncryptionEscalationResolves(t *testing.T) {
	e := Encryption()
	e.Run(10)
	st := e.State()
	if !st.Has("e2e-encryption") {
		t.Fatal("users never encrypted")
	}
	if st.Has("block-encrypted") {
		t.Fatal("competition should have disciplined the block")
	}
	// The government's wiretap remains deployed but reads nothing —
	// its utility collapsed after encryption.
	gov := stakeholder(e, "government")
	if gov == nil || gov.Utility >= stakeholder(e, "user").Utility {
		t.Fatalf("government should lose the escalation: gov=%v user=%v",
			gov.Utility, stakeholder(e, "user").Utility)
	}
}

func TestFirewallResolvesInsideDesign(t *testing.T) {
	e := Firewall()
	e.Run(10)
	st := e.State()
	if !st.Has("trust-firewall") || st.Has("port-firewall") {
		t.Fatalf("end state wrong: %s", e.Summary())
	}
	if st.Has("user-tunnel") {
		t.Fatal("tunnel should be withdrawn once identified access works")
	}
	// The resolved design has no deployed distortions: the tussle moved
	// back inside the architecture.
	if r := core.DistortionRate(st); r != 0 {
		t.Fatalf("distortion rate after resolution = %v", r)
	}
}

func TestFileSharingEndsInMarketResolution(t *testing.T) {
	e := FileSharing()
	e.Run(12)
	st := e.State()
	if !st.Has("licensed-store") {
		t.Fatalf("licensing never arrived: %s", e.Summary())
	}
	if st.Has("central-index") {
		t.Fatal("central index should be gone after the injunction")
	}
	// Both sides end better off than at the takedown nadir — the
	// licensed store is the win-win the tussle found.
	if stakeholder(e, "sharers").Utility <= 0 || stakeholder(e, "rights-holder").Utility <= 0 {
		t.Fatalf("utilities: %v / %v",
			stakeholder(e, "sharers").Utility, stakeholder(e, "rights-holder").Utility)
	}
}

func TestScenariosDeterministic(t *testing.T) {
	for _, n := range Names() {
		run := func() int {
			e, _ := Build(n)
			e.Run(10)
			return len(e.History)
		}
		if run() != run() {
			t.Fatalf("scenario %q nondeterministic", n)
		}
	}
}

// stakeholder returns the engine's stakeholder of that name, or nil.
func stakeholder(e *core.Engine, name string) *core.Stakeholder {
	for _, s := range e.Stakeholders {
		if s.Name == name {
			return s
		}
	}
	return nil
}
