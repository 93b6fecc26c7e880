// Package scenarios provides ready-made tussle-engine scenarios — the
// paper's §I examples as executable move/counter-move games. They back
// cmd/tussled and serve as worked examples of programming the core
// engine.
package scenarios

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// Names lists the available scenarios in stable order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Build constructs a scenario by name.
func Build(name string) (*core.Engine, error) {
	mk, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("scenarios: unknown scenario %q (have %v)", name, Names())
	}
	return mk(), nil
}

var registry = map[string]func() *core.Engine{
	"value-pricing": ValuePricing,
	"encryption":    Encryption,
	"firewall":      Firewall,
	"filesharing":   FileSharing,
}

// ValuePricing is the §V-A2 escalation: server ban → tunnel → deep
// inspection → encrypted tunnel. Each counter-move is a distortion —
// the design gave the parties no better channel.
func ValuePricing() *core.Engine {
	isp := &core.Stakeholder{Name: "isp", Kind: core.ISP}
	user := &core.Stakeholder{Name: "user", Kind: core.User}
	isp.Strat = func(self *core.Stakeholder, st *core.State) *core.Move {
		switch {
		case !st.Has("server-ban"):
			return &core.Move{Deploy: &core.Mechanism{
				Name: "server-ban", Visible: true, Couples: []core.Space{"apps"},
			}, Note: "value pricing: servers need the business tier"}
		case st.Has("tunnel") && !st.Has("dpi"):
			return &core.Move{Deploy: &core.Mechanism{
				Name: "dpi", Visible: false, Couples: []core.Space{"apps", "trust"},
			}, Note: "deep inspection to find tunnels"}
		}
		return nil
	}
	user.Strat = func(self *core.Stakeholder, st *core.State) *core.Move {
		switch {
		case st.Has("server-ban") && !st.Has("tunnel"):
			return &core.Move{Deploy: &core.Mechanism{
				Name: "tunnel", Distortion: true,
			}, Note: "tunnel to disguise the ports being used"}
		case st.Has("dpi") && !st.Has("encrypted-tunnel"):
			return &core.Move{Deploy: &core.Mechanism{
				Name: "encrypted-tunnel", Distortion: true,
			}, Note: "encrypt so inspection sees nothing"}
		}
		return nil
	}
	payoff := func(st *core.State) map[string]float64 {
		u := map[string]float64{"isp": 2, "user": 2}
		if st.Has("server-ban") {
			u["isp"], u["user"] = 3, 0
			if st.Has("tunnel") && !st.Has("dpi") {
				u["isp"], u["user"] = 1, 2
			}
			if st.Has("tunnel") && st.Has("dpi") {
				u["isp"], u["user"] = 2.5, 0.5
			}
			if st.Has("encrypted-tunnel") {
				u["isp"], u["user"] = 1, 2
			}
		}
		return u
	}
	return core.NewEngine(payoff, isp, user)
}

// Encryption is the §VI-A escalation: wiretap → end-to-end encryption →
// block-encrypted → competition disciplines the block.
func Encryption() *core.Engine {
	gov := &core.Stakeholder{Name: "government", Kind: core.Government}
	user := &core.Stakeholder{Name: "user", Kind: core.User}
	isp := &core.Stakeholder{Name: "isp", Kind: core.ISP}
	gov.Strat = func(self *core.Stakeholder, st *core.State) *core.Move {
		if !st.Has("wiretap") {
			return &core.Move{Deploy: &core.Mechanism{
				Name: "wiretap", Visible: false, Couples: []core.Space{"apps"},
			}, Note: "data capture site in the network"}
		}
		return nil
	}
	user.Strat = func(self *core.Stakeholder, st *core.State) *core.Move {
		if st.Has("wiretap") && !st.Has("e2e-encryption") {
			return &core.Move{Deploy: &core.Mechanism{
				Name: "e2e-encryption", Visible: true,
			}, Note: "peeking is irresistible; encrypt end to end"}
		}
		return nil
	}
	isp.Strat = func(self *core.Stakeholder, st *core.State) *core.Move {
		if st.Has("e2e-encryption") && !st.Has("block-encrypted") && st.Round < 6 {
			return &core.Move{Deploy: &core.Mechanism{
				Name: "block-encrypted", Visible: true, Couples: []core.Space{"economics"},
			}, Note: "refuse to carry encrypted data"}
		}
		if st.Has("block-encrypted") && st.Round >= 6 {
			return &core.Move{Withdraw: "block-encrypted", Note: "competition disciplines the block"}
		}
		return nil
	}
	payoff := func(st *core.State) map[string]float64 {
		u := map[string]float64{"government": 1, "user": 2, "isp": 2}
		if st.Has("wiretap") && !st.Has("e2e-encryption") {
			u["government"], u["user"] = 3, 1
		}
		if st.Has("e2e-encryption") {
			u["government"] = 0.5
			if st.Has("block-encrypted") {
				u["user"], u["isp"] = 0, 1 // customers defect
			}
		}
		return u
	}
	return core.NewEngine(payoff, gov, user, isp)
}

// Firewall is the §V-B tussle over who sets firewall policy: the
// port-based device provokes tunnels; replacing it with a trust-aware
// firewall resolves the standoff inside the design.
func Firewall() *core.Engine {
	admin := &core.Stakeholder{Name: "admin", Kind: core.PrivateNetwork}
	user := &core.Stakeholder{Name: "user", Kind: core.User}
	admin.Strat = func(self *core.Stakeholder, st *core.State) *core.Move {
		if !st.Has("port-firewall") && !st.Has("trust-firewall") {
			return &core.Move{Deploy: &core.Mechanism{
				Name: "port-firewall", Visible: true, Couples: []core.Space{"apps"},
			}, Note: "that which is not permitted is forbidden"}
		}
		if st.Has("user-tunnel") && !st.Has("trust-firewall") {
			return &core.Move{
				Withdraw: "port-firewall",
				Deploy: &core.Mechanism{
					Name: "trust-firewall", Visible: true,
				},
				Note: "mediate on who communicates, not which ports",
			}
		}
		return nil
	}
	user.Strat = func(self *core.Stakeholder, st *core.State) *core.Move {
		if st.Has("port-firewall") && !st.Has("user-tunnel") {
			return &core.Move{Deploy: &core.Mechanism{
				Name: "user-tunnel", Distortion: true,
			}, Note: "route and tunnel around it"}
		}
		if st.Has("trust-firewall") && st.Has("user-tunnel") {
			return &core.Move{Withdraw: "user-tunnel", Note: "identified access works; tunnel unneeded"}
		}
		return nil
	}
	payoff := func(st *core.State) map[string]float64 {
		u := map[string]float64{"admin": 1, "user": 1}
		switch {
		case st.Has("trust-firewall"):
			u["admin"], u["user"] = 2.5, 2
		case st.Has("port-firewall") && st.Has("user-tunnel"):
			u["admin"], u["user"] = 0.5, 1.5
		case st.Has("port-firewall"):
			u["admin"], u["user"] = 2, 0.5
		}
		return u
	}
	return core.NewEngine(payoff, admin, user)
}

// FileSharing is the §I rights-holder tussle: central index → takedown →
// distributed index → per-file takedowns → the venue shifts to
// licensing (a non-technical move the engine models as a mechanism).
func FileSharing() *core.Engine {
	users := &core.Stakeholder{Name: "sharers", Kind: core.User}
	rights := &core.Stakeholder{Name: "rights-holder", Kind: core.RightsHolder}
	users.Strat = func(self *core.Stakeholder, st *core.State) *core.Move {
		switch {
		case !st.Has("central-index") && !st.Has("distributed-index"):
			return &core.Move{Deploy: &core.Mechanism{
				Name: "central-index", Visible: true,
			}, Note: "napster: one index, mutual aid"}
		case st.Has("index-takedown") && !st.Has("distributed-index"):
			return &core.Move{
				Withdraw: "central-index",
				Deploy: &core.Mechanism{
					Name: "distributed-index", Visible: true,
				},
				Note: "no single point for the next injunction",
			}
		}
		return nil
	}
	rights.Strat = func(self *core.Stakeholder, st *core.State) *core.Move {
		switch {
		case st.Has("central-index") && !st.Has("index-takedown"):
			return &core.Move{Deploy: &core.Mechanism{
				Name: "index-takedown", Visible: true,
			}, Note: "injunction against the index operator"}
		case st.Has("distributed-index") && !st.Has("licensed-store"):
			return &core.Move{Deploy: &core.Mechanism{
				Name: "licensed-store", Visible: true, Couples: []core.Space{"economics"},
			}, Note: "compete: convenient licensed distribution"}
		}
		return nil
	}
	payoff := func(st *core.State) map[string]float64 {
		u := map[string]float64{"sharers": 1, "rights-holder": 1}
		switch {
		case st.Has("licensed-store"):
			u["sharers"], u["rights-holder"] = 2, 2.5 // the market resolution
		case st.Has("distributed-index"):
			u["sharers"], u["rights-holder"] = 2.5, 0
		case st.Has("central-index") && !st.Has("index-takedown"):
			u["sharers"], u["rights-holder"] = 3, 0
		case st.Has("index-takedown"):
			u["sharers"], u["rights-holder"] = 0.5, 2
		}
		return u
	}
	return core.NewEngine(payoff, users, rights)
}
