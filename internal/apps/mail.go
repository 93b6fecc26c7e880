// Package apps implements the application substrates the paper's
// arguments run over: the mail system with user-selectable servers
// (§IV-B's design-for-choice example), the web with caches (§VI-A's
// mature-application enhancement), and a VoIP quality model (the §VII
// QoS deployment story's demand side).
package apps

import (
	"sort"

	"repro/internal/packet"
	"repro/internal/sim"
)

// MailServer is one selectable SMTP/POP service. §IV-B: "A user can pick
// among servers, perhaps to avoid an unreliable one or pick one with
// desirable features, such as spam filters."
type MailServer struct {
	Name string
	Addr packet.Addr
	// Reliability is the delivery success probability.
	Reliability float64
	// SpamFilter is the probability spam is caught.
	SpamFilter float64
	// Price per message (or per period, units are up to the market).
	Price float64
}

// MailPrefs weights a user's server-selection criteria — the explicit
// form of user choice.
type MailPrefs struct {
	WeightReliability float64
	WeightSpamFilter  float64
	WeightPrice       float64 // applied negatively
}

// Score rates a server under these preferences.
func (p MailPrefs) Score(s *MailServer) float64 {
	return p.WeightReliability*s.Reliability + p.WeightSpamFilter*s.SpamFilter - p.WeightPrice*s.Price
}

// ChooseServer returns the highest-scoring server (ties broken by name
// for determinism), or nil for an empty list. "This sort of choice
// drives innovation and product enhancement, and imposes discipline on
// the marketplace."
func ChooseServer(servers []*MailServer, prefs MailPrefs) *MailServer {
	if len(servers) == 0 {
		return nil
	}
	sorted := make([]*MailServer, len(servers))
	copy(sorted, servers)
	sort.SliceStable(sorted, func(i, j int) bool {
		si, sj := prefs.Score(sorted[i]), prefs.Score(sorted[j])
		if si != sj {
			return si > sj
		}
		return sorted[i].Name < sorted[j].Name
	})
	return sorted[0]
}

// Message is one mail item.
type Message struct {
	Spam bool
}

// Handle runs a message through the server: spam may be filtered,
// anything may be lost to unreliability. It returns whether the message
// reached the inbox.
func (s *MailServer) Handle(m Message, rng *sim.RNG) bool {
	if !rng.Bool(s.Reliability) {
		return false
	}
	return !(m.Spam && rng.Bool(s.SpamFilter))
}
