package core

import (
	"math"
	"testing"
)

// escalationScenario builds the §V-A2 value-pricing tussle as an engine
// scenario: the ISP deploys a server ban; users respond with tunnels; the
// ISP may respond with a tunnel blocker.
func escalationScenario() (*Engine, *Stakeholder, *Stakeholder) {
	isp := &Stakeholder{Name: "isp", Kind: ISP}
	user := &Stakeholder{Name: "user", Kind: User}

	isp.Strat = func(self *Stakeholder, st *State) *Move {
		if !st.Has("server-ban") {
			return &Move{Deploy: &Mechanism{
				Name: "server-ban", Visible: true,
				Couples: []Space{"apps"}, // conditions on what app runs
			}, Note: "value pricing"}
		}
		return nil
	}
	user.Strat = func(self *Stakeholder, st *State) *Move {
		if st.Has("server-ban") && !st.Has("tunnel") {
			return &Move{Deploy: &Mechanism{
				Name: "tunnel", Distortion: true, Visible: false,
			}, Note: "evade"}
		}
		return nil
	}

	payoff := func(st *State) map[string]float64 {
		u := map[string]float64{}
		switch {
		case st.Has("server-ban") && !st.Has("tunnel"):
			u["isp"], u["user"] = 3, -2
		case st.Has("server-ban") && st.Has("tunnel"):
			u["isp"], u["user"] = 1, 1
		default:
			u["isp"], u["user"] = 2, 2
		}
		return u
	}
	return NewEngine(payoff, isp, user), isp, user
}

func TestEngineMoveCounterMove(t *testing.T) {
	e, isp, user := escalationScenario()
	e.Run(5)
	if !e.State().Has("server-ban") || !e.State().Has("tunnel") {
		t.Fatalf("mechanisms = %v", e.Summary())
	}
	if len(e.History) != 2 {
		t.Fatalf("history = %+v", e.History)
	}
	// Round 1: ban lands and the user's tunnel is deployed the same
	// round (user moves after isp); from then on both earn 1.
	if isp.Utility <= 0 || user.Utility <= 0 {
		t.Fatalf("utilities: isp=%v user=%v", isp.Utility, user.Utility)
	}
	if e.Distortions != 1 {
		t.Fatalf("distortions = %d", e.Distortions)
	}
}

func TestEngineStable(t *testing.T) {
	e, _, _ := escalationScenario()
	if e.Stable(1) {
		t.Fatal("unstarted engine should not be stable")
	}
	e.Run(10)
	if !e.Stable(5) {
		t.Fatal("escalation should quiesce after both moves")
	}
}

func TestControlBalance(t *testing.T) {
	e, isp, user := escalationScenario()
	e.Run(10)
	b := e.ControlBalance(User, ISP)
	if math.Abs(b-(user.Utility-isp.Utility)) > 1e-9 {
		t.Fatalf("balance = %v, want %v", b, user.Utility-isp.Utility)
	}
}

func TestEngineDirectDeployWithdraw(t *testing.T) {
	e := NewEngine(nil)
	e.Deploy(&Mechanism{Name: "x"})
	if !e.State().Has("x") {
		t.Fatal("deploy failed")
	}
	e.Withdraw("x")
	if e.State().Has("x") {
		t.Fatal("withdraw failed")
	}
	e.Deploy(nil) // no-op, no panic
}

func TestEngineWithdrawMove(t *testing.T) {
	actor := &Stakeholder{Name: "a", Kind: User}
	fired := false
	actor.Strat = func(self *Stakeholder, st *State) *Move {
		if !fired {
			fired = true
			return &Move{Withdraw: "old", Deploy: &Mechanism{Name: "new"}}
		}
		return nil
	}
	e := NewEngine(nil, actor)
	e.Deploy(&Mechanism{Name: "old"})
	e.Step()
	if e.State().Has("old") || !e.State().Has("new") {
		t.Fatalf("swap failed: %v", e.Summary())
	}
	if e.State().Mechanisms["new"].Owner != "a" {
		t.Fatal("owner not stamped")
	}
}

func TestAnalyzeChoiceBits(t *testing.T) {
	d := &Design{
		Name: "mail",
		Choices: []ChoicePoint{
			{Chooser: User, Alternatives: 8, Visible: true, CostExposed: true},  // smtp-server
			{Chooser: User, Alternatives: 4, Visible: true, CostExposed: false}, // pop-server
			{Chooser: ISP, Alternatives: 2, Visible: false, CostExposed: true},  // peering
		},
	}
	r := AnalyzeChoice(d)
	if math.Abs(r.BitsByKind[User]-5) > 1e-9 { // log2(8)+log2(4)
		t.Fatalf("user bits = %v", r.BitsByKind[User])
	}
	if math.Abs(r.BitsByKind[ISP]-1) > 1e-9 {
		t.Fatalf("isp bits = %v", r.BitsByKind[ISP])
	}
	if math.Abs(r.VisibleFraction-2.0/3) > 1e-9 {
		t.Fatalf("visible fraction = %v", r.VisibleFraction)
	}
	if math.Abs(r.CostExposedFraction-2.0/3) > 1e-9 {
		t.Fatalf("cost fraction = %v", r.CostExposedFraction)
	}
	if b := ChoiceBalance(d); math.Abs(b-4) > 1e-9 {
		t.Fatalf("balance = %v", b)
	}
}

func TestAnalyzeChoiceDegenerate(t *testing.T) {
	r := AnalyzeChoice(&Design{Name: "empty"})
	if len(r.BitsByKind) != 0 || r.VisibleFraction != 0 {
		t.Fatalf("empty design report = %+v", r)
	}
	// Alternatives < 1 clamps to 1 (zero bits).
	d := &Design{Choices: []ChoicePoint{{Chooser: User, Alternatives: 0}}}
	if bits := AnalyzeChoice(d).BitsByKind[User]; bits != 0 {
		t.Fatalf("zero-alternative bits = %v", bits)
	}
}

func TestAnalyzeIsolation(t *testing.T) {
	d := &Design{
		Name: "qos-by-port",
		Mechanisms: []*Mechanism{
			{Name: "port-classifier", Couples: []Space{"apps"}},
			{Name: "tos-bits"},
			{Name: "billing", Couples: []Space{"qos", "apps"}},
		},
	}
	r := AnalyzeIsolation(d)
	if r.TotalMechanisms != 3 || r.CoupledMechanisms != 2 {
		t.Fatalf("report = %+v", r)
	}
	if math.Abs(r.IsolationScore()-1.0/3) > 1e-9 {
		t.Fatalf("isolation score = %v", r.IsolationScore())
	}
}

func TestIsolationScoreEmpty(t *testing.T) {
	r := AnalyzeIsolation(&Design{})
	if r.IsolationScore() != 1 {
		t.Fatal("empty design should be perfectly isolated")
	}
}

func TestVisibilityAuditAndDistortionRate(t *testing.T) {
	e := NewEngine(nil)
	if VisibilityAudit(e.State()) != 1 || DistortionRate(e.State()) != 0 {
		t.Fatal("empty state baselines wrong")
	}
	e.Deploy(&Mechanism{Name: "a", Visible: true})
	e.Deploy(&Mechanism{Name: "b", Visible: false, Distortion: true})
	if v := VisibilityAudit(e.State()); v != 0.5 {
		t.Fatalf("visibility = %v", v)
	}
	if d := DistortionRate(e.State()); d != 0.5 {
		t.Fatalf("distortion = %v", d)
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		User: "user", ISP: "isp", PrivateNetwork: "private-network",
		Government: "government", RightsHolder: "rights-holder",
		ContentProvider: "content-provider",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d = %q, want %q", k, k.String(), want)
		}
	}
}

func TestEngineDeterministicOrder(t *testing.T) {
	// Two stakeholders racing to deploy under the same name: the first
	// declared must win the round's last write... actually the later
	// mover overwrites. What must hold is determinism across runs.
	run := func() string {
		a := &Stakeholder{Name: "a", Kind: User, Strat: func(self *Stakeholder, st *State) *Move {
			return &Move{Deploy: &Mechanism{Name: "m", Visible: true}}
		}}
		b := &Stakeholder{Name: "b", Kind: ISP, Strat: func(self *Stakeholder, st *State) *Move {
			return &Move{Deploy: &Mechanism{Name: "m", Visible: false}}
		}}
		e := NewEngine(nil, a, b)
		e.Step()
		return e.State().Mechanisms["m"].Owner
	}
	if run() != run() || run() != "b" {
		t.Fatal("engine order nondeterministic")
	}
}
