package trust

import (
	"bytes"
	"crypto/ed25519"
	"sync"
	"testing"

	"repro/internal/sim"
)

// A repeated Sign answers from the principal's memo. The answer must be
// the signature ed25519.Sign computes, and a copy the caller owns: a
// caller scribbling on its signature, or on the message it signed,
// must not change what the next Sign returns.
func TestSignMemoMatchesFreshSignature(t *testing.T) {
	p := NewPrincipal("router-3", Certified, sim.NewRNG(1))
	msg := []byte("lsa:3|1=2.5|4=7.25")
	want := ed25519.Sign(p.priv, msg)

	first := p.Sign(msg)
	if !bytes.Equal(first, want) {
		t.Fatalf("Sign = %x, want %x", first, want)
	}
	first[0] ^= 0xff
	if again := p.Sign(msg); !bytes.Equal(again, want) {
		t.Fatalf("memo hit after the caller mutated its copy = %x, want %x", again, want)
	}

	msg[len(msg)-1] = '6' // the caller reuses its buffer for another message
	if got, fresh := p.Sign(msg), ed25519.Sign(p.priv, msg); !bytes.Equal(got, fresh) {
		t.Fatalf("Sign of a message rewritten in place = %x, want %x", got, fresh)
	}
	msg[len(msg)-1] = '5'
	if got := p.Sign(msg); !bytes.Equal(got, want) {
		t.Fatalf("Sign after the memo moved on = %x, want %x", got, want)
	}
}

// Only successful verifications are remembered, keyed on the exact
// public key, message and signature: after a pair verifies, every
// variant of it must still fail.
func TestVerifyMemoRejectsVariants(t *testing.T) {
	rng := sim.NewRNG(2)
	p := NewPrincipal("router-3", Certified, rng)
	other := NewPrincipal("router-4", Certified, rng)
	msg := []byte("lsa:3|1=2.5|4=7.25")
	sig := p.Sign(msg)
	flip := func(b []byte, i int) []byte {
		c := bytes.Clone(b)
		c[i] ^= 1
		return c
	}
	cases := []struct {
		name     string
		msg, sig []byte
	}{
		{"flipped signature byte", msg, flip(sig, 17)},
		{"flipped message byte", flip(msg, 4), sig},
		{"truncated signature", msg, sig[:len(sig)-1]},
		{"empty signature", msg, nil},
	}
	for _, c := range cases {
		if !p.Verify(msg, sig) {
			t.Fatal("valid pair rejected")
		}
		if p.Verify(c.msg, c.sig) {
			t.Fatalf("%s verified after the valid pair did", c.name)
		}
	}

	// The memo holds copies: a caller rewriting the verified buffers in
	// place must not find them vouched for. Another pair verifies
	// first, so the next one is a miss the memo records.
	next := []byte("lsa:4|3=7.25")
	if !p.Verify(next, p.Sign(next)) {
		t.Fatal("valid pair rejected")
	}
	m, s := bytes.Clone(msg), bytes.Clone(sig)
	if !p.Verify(m, s) {
		t.Fatal("valid pair rejected")
	}
	s[0] ^= 1
	if p.Verify(m, s) {
		t.Fatal("signature flipped in place verified from the memo")
	}
	s[0] ^= 1
	m[0] ^= 1
	if p.Verify(m, s) {
		t.Fatal("message flipped in place verified from the memo")
	}

	// Pub is exported: under another key the pair must fail.
	if !p.Verify(msg, sig) {
		t.Fatal("valid pair rejected")
	}
	p.Pub = other.Pub
	if p.Verify(msg, sig) {
		t.Fatal("pair verified under a different public key")
	}
}

// A principal shared across goroutines: interleaved Sign and Verify
// calls on different messages keep every answer exact (run under
// -race to check the memos' locking).
func TestPrincipalConcurrentSignVerify(t *testing.T) {
	p := NewPrincipal("router-3", Certified, sim.NewRNG(3))
	msgs := [][]byte{[]byte("lsa:1"), []byte("lsa:2"), []byte("lsa:3")}
	sigs := make([][]byte, len(msgs))
	for i, m := range msgs {
		sigs[i] = ed25519.Sign(p.priv, m)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				k := (g + i) % len(msgs)
				if got := p.Sign(msgs[k]); !bytes.Equal(got, sigs[k]) {
					t.Errorf("goroutine %d: Sign(%q) = %x, want %x", g, msgs[k], got, sigs[k])
					return
				}
				if !p.Verify(msgs[k], sigs[k]) {
					t.Errorf("goroutine %d: valid signature on %q rejected", g, msgs[k])
					return
				}
				if w := (k + 1) % len(msgs); p.Verify(msgs[w], sigs[k]) {
					t.Errorf("goroutine %d: signature on %q verified for %q", g, msgs[k], msgs[w])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
