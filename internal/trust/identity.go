// Package trust implements the identity and trust framework of §V-B of
// the paper: not a single global identity scheme (which the paper argues
// is "a bad idea") but a framework of schemes — anonymous, pseudonymous,
// and certified — plus the third parties that mediate trust between
// strangers: certificate authorities, reputation services, and liability
// guarantors ("credit card companies limit our liability to $50").
//
// Signatures and certificates are real (crypto/ed25519); key generation
// is driven by the simulation RNG so runs stay deterministic.
package trust

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/sim"
)

// Scheme is how a party chooses to identify itself. The numbering matches
// the wire constants in internal/packet.
type Scheme uint8

// Identity schemes (§V-B1: "there are lots of ways that parties choose to
// identify themselves to each other").
const (
	// Anonymous: no linkable identity. Visible anonymity is the paper's
	// compromise — others can see you chose it and react.
	Anonymous Scheme = 0
	// Pseudonymous: a stable self-chosen name with a key, linkable
	// across interactions but not bound to a real-world identity.
	Pseudonymous Scheme = 1
	// Certified: a name vouched for by an authority chain.
	Certified Scheme = 2
)

func (s Scheme) String() string {
	switch s {
	case Anonymous:
		return "anonymous"
	case Pseudonymous:
		return "pseudonymous"
	default:
		return "certified"
	}
}

// rngReader adapts sim.RNG to io.Reader for deterministic key generation.
type rngReader struct{ r *sim.RNG }

func (rr rngReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(rr.r.Uint64())
	}
	return len(p), nil
}

// Principal is a key-holding party. Its methods are safe for concurrent
// use.
type Principal struct {
	Name   string
	Scheme Scheme
	Pub    ed25519.PublicKey
	priv   ed25519.PrivateKey

	// Ed25519 is deterministic (RFC 8032): one key signs one message
	// to one signature, and a (public key, message, signature) triple
	// always verifies alike. So the principal remembers its last
	// signature and its last successful verification, and answers a
	// repeat of either from memory, byte-identically.
	mu                  sync.Mutex
	signMsg, signSig    []byte // the last message signed, its signature
	okPub, okMsg, okSig []byte // the last triple that verified
}

// NewPrincipal generates a principal with a fresh deterministic keypair.
func NewPrincipal(name string, scheme Scheme, rng *sim.RNG) *Principal {
	pub, priv, err := ed25519.GenerateKey(rngReader{rng})
	if err != nil {
		panic("trust: key generation cannot fail with a working reader: " + err.Error())
	}
	return &Principal{Name: name, Scheme: scheme, Pub: pub, priv: priv}
}

// Sign signs msg with the principal's private key. The caller owns the
// returned slice.
func (p *Principal) Sign(msg []byte) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.signSig == nil || !bytes.Equal(msg, p.signMsg) {
		p.signSig = ed25519.Sign(p.priv, msg)
		p.signMsg = append(p.signMsg[:0], msg...)
	}
	return bytes.Clone(p.signSig)
}

// Verify checks a signature by this principal.
func (p *Principal) Verify(msg, sig []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.okSig != nil && bytes.Equal(sig, p.okSig) && bytes.Equal(msg, p.okMsg) && bytes.Equal(p.Pub, p.okPub) {
		return true
	}
	if !ed25519.Verify(p.Pub, msg, sig) {
		return false
	}
	p.okPub = append(p.okPub[:0], p.Pub...)
	p.okMsg = append(p.okMsg[:0], msg...)
	p.okSig = append(p.okSig[:0], sig...)
	return true
}

// Certificate binds a subject key and attributes under an issuer's
// signature, valid until Expiry (simulated time).
type Certificate struct {
	Subject    string
	SubjectKey ed25519.PublicKey
	Attributes map[string]string
	Issuer     string
	Expiry     sim.Time
	Sig        []byte
}

// certBytes is the canonical byte encoding that is signed. Attribute
// order is canonicalized so signatures are stable.
func certBytes(c *Certificate) []byte {
	var out []byte
	app := func(s string) {
		out = append(out, byte(len(s)>>8), byte(len(s)))
		out = append(out, s...)
	}
	app(c.Subject)
	out = append(out, c.SubjectKey...)
	keys := make([]string, 0, len(c.Attributes))
	for k := range c.Attributes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		app(k)
		app(c.Attributes[k])
	}
	app(c.Issuer)
	e := uint64(c.Expiry)
	out = append(out, byte(e>>56), byte(e>>48), byte(e>>40), byte(e>>32),
		byte(e>>24), byte(e>>16), byte(e>>8), byte(e))
	return out
}

// Issue creates a certificate for subject signed by issuer.
func Issue(issuer *Principal, subject string, subjectKey ed25519.PublicKey, attrs map[string]string, expiry sim.Time) *Certificate {
	c := &Certificate{
		Subject:    subject,
		SubjectKey: subjectKey,
		Attributes: attrs,
		Issuer:     issuer.Name,
		Expiry:     expiry,
	}
	c.Sig = issuer.Sign(certBytes(c))
	return c
}

// Certificate verification errors.
var (
	ErrExpired    = errors.New("trust: certificate expired")
	ErrBadSig     = errors.New("trust: bad certificate signature")
	ErrNoAnchor   = errors.New("trust: no path to a trust anchor")
	ErrChainOrder = errors.New("trust: chain subject/issuer mismatch")
)

// VerifyCert checks one certificate against the issuer's known key.
func VerifyCert(c *Certificate, issuerKey ed25519.PublicKey, now sim.Time) error {
	if now > c.Expiry {
		return ErrExpired
	}
	if !ed25519.Verify(issuerKey, certBytes(c), c.Sig) {
		return ErrBadSig
	}
	return nil
}

// Anchors is a set of trusted root principals, keyed by name. Which
// anchors a party installs is itself a choice — "the parties must be
// able to choose, so they can select third parties that they trust."
type Anchors map[string]ed25519.PublicKey

// VerifyChain validates chain[0] (the leaf) through intermediates to an
// anchor. chain[i]'s issuer must be chain[i+1]'s subject; the last
// certificate's issuer must be an anchor.
func VerifyChain(chain []*Certificate, anchors Anchors, now sim.Time) error {
	if len(chain) == 0 {
		return ErrNoAnchor
	}
	for i, c := range chain {
		var issuerKey ed25519.PublicKey
		if i+1 < len(chain) {
			next := chain[i+1]
			if next.Subject != c.Issuer {
				return fmt.Errorf("%w: %q issued by %q but next cert is for %q",
					ErrChainOrder, c.Subject, c.Issuer, next.Subject)
			}
			issuerKey = next.SubjectKey
		} else {
			k, ok := anchors[c.Issuer]
			if !ok {
				return fmt.Errorf("%w: issuer %q", ErrNoAnchor, c.Issuer)
			}
			issuerKey = k
		}
		if err := VerifyCert(c, issuerKey, now); err != nil {
			return fmt.Errorf("cert %q: %w", c.Subject, err)
		}
	}
	return nil
}
