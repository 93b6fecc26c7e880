package trust

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestPrincipalSignVerify(t *testing.T) {
	rng := sim.NewRNG(1)
	alice := NewPrincipal("alice", Certified, rng)
	msg := []byte("hello")
	sig := alice.Sign(msg)
	if !alice.Verify(msg, sig) {
		t.Fatal("own signature rejected")
	}
	if alice.Verify([]byte("tampered"), sig) {
		t.Fatal("tampered message accepted")
	}
	bob := NewPrincipal("bob", Certified, rng)
	if bob.Verify(msg, sig) {
		t.Fatal("foreign signature accepted")
	}
}

func TestKeyGenDeterministic(t *testing.T) {
	a := NewPrincipal("x", Certified, sim.NewRNG(7))
	b := NewPrincipal("x", Certified, sim.NewRNG(7))
	if string(a.Pub) != string(b.Pub) {
		t.Fatal("same seed produced different keys")
	}
}

func TestCertificateIssueVerify(t *testing.T) {
	rng := sim.NewRNG(2)
	ca := NewPrincipal("root-ca", Certified, rng)
	alice := NewPrincipal("alice", Certified, rng)
	cert := Issue(ca, "alice", alice.Pub, map[string]string{"role": "subscriber"}, 100*sim.Second)

	if err := VerifyCert(cert, ca.Pub, 50*sim.Second); err != nil {
		t.Fatalf("valid cert rejected: %v", err)
	}
	if err := VerifyCert(cert, ca.Pub, 200*sim.Second); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired cert error = %v", err)
	}
	mallory := NewPrincipal("mallory", Certified, rng)
	if err := VerifyCert(cert, mallory.Pub, 50*sim.Second); !errors.Is(err, ErrBadSig) {
		t.Fatalf("wrong issuer key error = %v", err)
	}
}

func TestCertificateAttributeTamper(t *testing.T) {
	rng := sim.NewRNG(3)
	ca := NewPrincipal("ca", Certified, rng)
	alice := NewPrincipal("alice", Certified, rng)
	cert := Issue(ca, "alice", alice.Pub, map[string]string{"role": "consumer"}, 100*sim.Second)
	cert.Attributes["role"] = "admin" // privilege escalation attempt
	if err := VerifyCert(cert, ca.Pub, 10); !errors.Is(err, ErrBadSig) {
		t.Fatalf("attribute tamper error = %v", err)
	}
}

func TestChainVerification(t *testing.T) {
	rng := sim.NewRNG(4)
	root := NewPrincipal("root", Certified, rng)
	inter := NewPrincipal("intermediate", Certified, rng)
	leaf := NewPrincipal("leaf", Certified, rng)

	interCert := Issue(root, "intermediate", inter.Pub, nil, 100*sim.Second)
	leafCert := Issue(inter, "leaf", leaf.Pub, nil, 100*sim.Second)
	anchors := Anchors{"root": root.Pub}

	if err := VerifyChain([]*Certificate{leafCert, interCert}, anchors, 10); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	// Chain missing the intermediate fails: leaf's issuer is not an anchor.
	if err := VerifyChain([]*Certificate{leafCert}, anchors, 10); !errors.Is(err, ErrNoAnchor) {
		t.Fatalf("missing intermediate error = %v", err)
	}
	// Out-of-order chain fails.
	if err := VerifyChain([]*Certificate{interCert, leafCert}, anchors, 10); err == nil {
		t.Fatal("out-of-order chain accepted")
	}
	// Empty chain fails.
	if err := VerifyChain(nil, anchors, 10); !errors.Is(err, ErrNoAnchor) {
		t.Fatalf("empty chain error = %v", err)
	}
	// Different anchor set (the chooser's power): chain rejected.
	other := NewPrincipal("other-root", Certified, rng)
	if err := VerifyChain([]*Certificate{leafCert, interCert}, Anchors{"other-root": other.Pub}, 10); err == nil {
		t.Fatal("chain accepted under foreign anchors")
	}
}

func TestChainExpiryAnywhereFails(t *testing.T) {
	rng := sim.NewRNG(5)
	root := NewPrincipal("root", Certified, rng)
	inter := NewPrincipal("inter", Certified, rng)
	leaf := NewPrincipal("leaf", Certified, rng)
	interCert := Issue(root, "inter", inter.Pub, nil, 10*sim.Second) // expires early
	leafCert := Issue(inter, "leaf", leaf.Pub, nil, 100*sim.Second)
	if err := VerifyChain([]*Certificate{leafCert, interCert}, Anchors{"root": root.Pub}, 50*sim.Second); err == nil {
		t.Fatal("chain with expired intermediate accepted")
	}
}

func TestSchemeString(t *testing.T) {
	if Anonymous.String() != "anonymous" || Pseudonymous.String() != "pseudonymous" || Certified.String() != "certified" {
		t.Fatal("scheme names wrong")
	}
}

func TestReputationScores(t *testing.T) {
	r := NewReputation(1.0)
	if s := r.Score("unknown"); s != 0.5 {
		t.Fatalf("unknown score = %v", s)
	}
	for i := 0; i < 8; i++ {
		r.Report("honest", true, nil)
	}
	for i := 0; i < 8; i++ {
		r.Report("fraud", false, nil)
	}
	if s := r.Score("honest"); s <= 0.8 {
		t.Fatalf("honest score = %v", s)
	}
	if s := r.Score("fraud"); s >= 0.2 {
		t.Fatalf("fraud score = %v", s)
	}
}

func TestReputationScoreBoundsQuick(t *testing.T) {
	r := NewReputation(1.0)
	f := func(goods, bads uint8, name string) bool {
		for i := 0; i < int(goods%20); i++ {
			r.Report(name, true, nil)
		}
		for i := 0; i < int(bads%20); i++ {
			r.Report(name, false, nil)
		}
		s := r.Score(name)
		return s > 0 && s < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInaccurateMediatorFlipsReports(t *testing.T) {
	rng := sim.NewRNG(6)
	noisy := NewReputation(0.5)
	flip := func() bool { return rng.Bool(1 - noisy.Accuracy) }
	for i := 0; i < 200; i++ {
		noisy.Report("saint", true, flip)
	}
	s := noisy.Score("saint")
	if math.Abs(s-0.5) > 0.15 {
		t.Fatalf("50%%-accurate mediator should yield ~0.5, got %v", s)
	}
	perfect := NewReputation(1.0)
	for i := 0; i < 200; i++ {
		perfect.Report("saint", true, flip)
	}
	if perfect.Score("saint") < 0.95 {
		t.Fatal("perfect mediator corrupted reports")
	}
}

func TestGuarantorLiabilityCap(t *testing.T) {
	g := NewGuarantor("acme-card", 50)
	tx := g.Charge(500)
	refund := g.Dispute(tx)
	if refund != 450 {
		t.Fatalf("refund = %v, want 450", refund)
	}
	if loss := g.BuyerLoss(tx); loss != 50 {
		t.Fatalf("buyer loss = %v, want cap 50", loss)
	}
	// Double dispute pays nothing more.
	if g.Dispute(tx) != 0 {
		t.Fatal("double dispute paid out")
	}
}

func TestGuarantorSmallCharge(t *testing.T) {
	g := NewGuarantor("card", 50)
	tx := g.Charge(20)
	if refund := g.Dispute(tx); refund != 0 {
		t.Fatalf("refund below cap = %v", refund)
	}
	if loss := g.BuyerLoss(tx); loss != 20 {
		t.Fatalf("loss = %v", loss)
	}
}

func TestGuarantorUndisputedLoss(t *testing.T) {
	g := NewGuarantor("card", 50)
	tx := g.Charge(300)
	if loss := g.BuyerLoss(tx); loss != 300 {
		t.Fatalf("undisputed loss = %v", loss)
	}
	if g.Dispute(999) != 0 {
		t.Fatal("unknown tx disputed")
	}
}
