package apps

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestChooseServerPrefersQuality(t *testing.T) {
	servers := []*MailServer{
		{Name: "cheap-flaky", Reliability: 0.7, SpamFilter: 0.1, Price: 1},
		{Name: "solid", Reliability: 0.99, SpamFilter: 0.9, Price: 3},
	}
	prefs := MailPrefs{WeightReliability: 5, WeightSpamFilter: 3, WeightPrice: 0.1}
	if got := ChooseServer(servers, prefs); got.Name != "solid" {
		t.Fatalf("chose %q", got.Name)
	}
	// A price-obsessed user chooses differently — same mechanism,
	// different outcome (design for variation in outcome).
	cheap := MailPrefs{WeightReliability: 0.1, WeightSpamFilter: 0.1, WeightPrice: 5}
	if got := ChooseServer(servers, cheap); got.Name != "cheap-flaky" {
		t.Fatalf("price-sensitive user chose %q", got.Name)
	}
}

func TestChooseServerEmptyAndTies(t *testing.T) {
	if ChooseServer(nil, MailPrefs{}) != nil {
		t.Fatal("empty list should return nil")
	}
	a := &MailServer{Name: "a", Reliability: 0.9}
	b := &MailServer{Name: "b", Reliability: 0.9}
	if got := ChooseServer([]*MailServer{b, a}, MailPrefs{WeightReliability: 1}); got.Name != "a" {
		t.Fatalf("tie broke to %q, want deterministic 'a'", got.Name)
	}
}

func TestMailSpamFiltering(t *testing.T) {
	rng := sim.NewRNG(1)
	s := &MailServer{Name: "s", Reliability: 1.0, SpamFilter: 0.95}
	var offered []Message
	for i := 0; i < 500; i++ {
		offered = append(offered, Message{Spam: i%2 == 0})
	}
	inboxSpam, inbox := 0, 0
	for _, m := range offered {
		if s.Handle(m, rng) {
			inbox++
			if m.Spam {
				inboxSpam++
			}
		}
	}
	if rate := float64(inboxSpam) / float64(inbox); rate > 0.10 {
		t.Fatalf("inbox spam rate = %v with a 95%% filter", rate)
	}
	// 250 spam and 250 ham offered to a lossless server.
	if inbox < 250 || inboxSpam == 250 {
		t.Fatalf("inbox %d with %d spam: want all ham delivered and spam filtered", inbox, inboxSpam)
	}
}

func TestMailUnreliableLosesMail(t *testing.T) {
	rng := sim.NewRNG(2)
	s := &MailServer{Name: "flaky", Reliability: 0.5, SpamFilter: 0}
	delivered := 0
	for i := 0; i < 1000; i++ {
		if s.Handle(Message{}, rng) {
			delivered++
		}
	}
	if delivered < 400 || delivered > 600 {
		t.Fatalf("delivered %d/1000 at 50%% reliability", delivered)
	}
}

func TestWebCacheLRU(t *testing.T) {
	origin := NewWebOrigin(100 * sim.Millisecond)
	origin.Put("a", 10)
	origin.Put("b", 20)
	origin.Put("c", 30)
	cache := NewWebCache(2, 5*sim.Millisecond, origin)

	if _, lat, ok := cache.Get("a"); !ok || lat != 105*sim.Millisecond {
		t.Fatalf("cold fetch lat = %v, ok=%v", lat, ok)
	}
	if _, lat, ok := cache.Get("a"); !ok || lat != 5*sim.Millisecond {
		t.Fatalf("warm fetch lat = %v", lat)
	}
	cache.Get("b")
	cache.Get("c") // evicts "a" (LRU)
	if _, lat, _ := cache.Get("a"); lat != 105*sim.Millisecond {
		t.Fatalf("evicted fetch lat = %v, want cold", lat)
	}
}

func TestWebCacheMissingContent(t *testing.T) {
	origin := NewWebOrigin(10 * sim.Millisecond)
	cache := NewWebCache(2, sim.Millisecond, origin)
	if _, _, ok := cache.Get("nope"); ok {
		t.Fatal("missing content served")
	}
}

func TestVoIPScore(t *testing.T) {
	if s := VoIPScore(50 * sim.Millisecond); s != 4.4 {
		t.Fatalf("low-delay score = %v", s)
	}
	if s := VoIPScore(500 * sim.Millisecond); s != 1.0 {
		t.Fatalf("high-delay score = %v", s)
	}
	mid := VoIPScore(275 * sim.Millisecond)
	if mid <= 1 || mid >= 4.4 {
		t.Fatalf("mid score = %v", mid)
	}
}

func TestVoIPScoreMonotoneQuick(t *testing.T) {
	f := func(a, b uint16) bool {
		d1 := sim.Time(a%500) * sim.Millisecond
		d2 := sim.Time(b%500) * sim.Millisecond
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return VoIPScore(d1) >= VoIPScore(d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVoIPBoundary(t *testing.T) {
	if math.Abs(VoIPScore(150*sim.Millisecond)-4.4) > 1e-9 {
		t.Fatal("150ms boundary wrong")
	}
	if math.Abs(VoIPScore(400*sim.Millisecond)-1.0) > 1e-9 {
		t.Fatal("400ms boundary wrong")
	}
}
