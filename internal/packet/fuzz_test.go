package packet

import (
	"bytes"
	"testing"
)

// Fuzz targets for the TIP decoder — the one parser in the system that
// consumes bytes a hostile party controls (every middlebox and node
// decodes what the wire hands it). Seed corpus lives in
// testdata/fuzz/FuzzDecode* and CI runs a short -fuzz smoke on every
// push (see .github/workflows/ci.yml).

// fuzzSeeds returns representative wire images: every option kind,
// payloads, and a tunnel stack.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	plain, err := Serialize(
		&TIP{TTL: 32, Proto: LayerTypeRaw, Src: MakeAddr(1, 1), Dst: MakeAddr(9, 1)},
		&Raw{Data: []byte("probe")})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, plain)

	srcRouted, err := Serialize(
		&TIP{TTL: 16, Proto: LayerTypeTTP,
			Src: MakeAddr(2, 7), Dst: MakeAddr(5, 1),
			SourceRoute: &SourceRouteOption{Hops: []Addr{MakeAddr(3, 1), MakeAddr(4, 1)}},
			Payment:     &PaymentOption{Payer: MakeAddr(2, 7), Payee: MakeAddr(3, 1), AmountMilli: 1500, Nonce: 42, MAC: 0xdeadbeef},
			Identity:    &IdentityOption{Scheme: IdentityCertified, ID: []byte("alice")},
		},
		&TTP{SrcPort: 4000, DstPort: 25, Next: LayerTypeRaw},
		&Raw{Data: []byte("MAIL")})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, srcRouted)

	inner, err := Serialize(
		&TIP{TTL: 8, Proto: LayerTypeRaw, Src: MakeAddr(1, 1), Dst: MakeAddr(3, 1)},
		&Raw{Data: []byte("inner")})
	if err != nil {
		tb.Fatal(err)
	}
	tunneled, err := Serialize(
		&TIP{TTL: 8, Proto: LayerTypeTTP, Src: MakeAddr(1, 1), Dst: MakeAddr(2, 1)},
		&TTP{DstPort: 443, Next: LayerTypeTunnel},
		&Tunnel{Inner: LayerTypeTIP},
		&Raw{Data: inner})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, tunneled)

	// Mutation fodder: truncations and corruptions of a valid packet.
	seeds = append(seeds, plain[:4], plain[:tipMinHeader-1])
	corrupt := append([]byte(nil), plain...)
	corrupt[0] ^= 0xf0 // version nibble
	seeds = append(seeds, corrupt)

	// Datagram-boundary cases the wire engine actually sees: a packet
	// truncated mid-option, one truncated mid-payload, and an oversized
	// datagram (valid packet followed by receive-slot slack).
	seeds = append(seeds, srcRouted[:tipMinHeader+3], srcRouted[:len(srcRouted)-2])
	oversized := append(append([]byte(nil), plain...), 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A, 0x5A)
	seeds = append(seeds, oversized)
	// Header-length nibble inflated past the datagram, and a total-length
	// field shorter than the header — the two bounds the sanity filter
	// checks on raw bytes.
	badHlen := append([]byte(nil), plain...)
	badHlen[0] = tipVersion<<4 | 0x0f
	seeds = append(seeds, badHlen)
	badTotal := append([]byte(nil), plain...)
	badTotal[2], badTotal[3] = 0x00, 0x08
	seeds = append(seeds, badTotal)
	return seeds
}

// FuzzDecode asserts the decoder's safety invariants on arbitrary bytes:
// no panics, and on success the decoded views (contents, payload, option
// slices) stay inside the input buffer and describe a packet that
// re-serializes into a decodable header with identical fields. It also
// drives the wire sanity filter (filter.go) on every input, pinning the
// soundness half of the filter contract: Filter never rejects bytes the
// decoder accepts. (The contrapositive — a filter reject implies a
// decode reject — is the same property, so one check covers both.)
func FuzzDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The wire sanity filter must stay consistent with the decoder on
		// every input: a filter reject implies a decode reject
		// (completeness), and a successful decode implies the filter
		// accepted (soundness) — otherwise the UDP fast path would drop
		// packets the sim delivers, or vice versa.
		verdict := Filter(data)
		var tip TIP
		if err := tip.DecodeFrom(data); err != nil {
			return
		}
		if verdict != FilterAccept {
			t.Fatalf("filter rejects (%v) bytes that DecodeFrom accepts", verdict)
		}
		// Views must be slices of the input, in order, within bounds.
		if len(tip.LayerContents()) < tipMinHeader {
			t.Fatalf("decoded header shorter than minimum: %d", len(tip.LayerContents()))
		}
		if total := len(tip.LayerContents()) + len(tip.LayerPayload()); total > len(data) {
			t.Fatalf("decoded views cover %d bytes of a %d-byte input", total, len(data))
		}
		if v := data[0] >> 4; v != tipVersion {
			t.Fatalf("accepted version %d", v)
		}
		if sr := tip.SourceRoute; sr != nil && int(sr.Ptr) > len(sr.Hops) {
			t.Fatalf("source route pointer %d past %d hops", sr.Ptr, len(sr.Hops))
		}
		// Round-trip: re-serializing the decoded header must produce a
		// packet that decodes to the same fields. (The payload is carried
		// separately, so compare headers only.)
		payload := append([]byte(nil), tip.LayerPayload()...)
		out, err := Serialize(&tip, &Raw{Data: payload})
		if err != nil {
			t.Fatalf("re-serialize decoded packet: %v", err)
		}
		var rt TIP
		if err := rt.DecodeFrom(out); err != nil {
			t.Fatalf("decode re-serialized packet: %v", err)
		}
		if rt.TOS != tip.TOS || rt.TTL != tip.TTL || rt.Proto != tip.Proto || rt.Src != tip.Src || rt.Dst != tip.Dst {
			t.Fatalf("round-trip header mismatch: %+v vs %+v", rt, tip)
		}
		if !bytes.Equal(rt.LayerPayload(), payload) {
			t.Fatalf("round-trip payload mismatch")
		}
	})
}

// FuzzDecodeReuse is the differential target: DecodeReuse on a dirty TIP
// (options populated by a previous decode) must agree with DecodeFrom on
// a fresh TIP — same verdict, same fields, same options — for any input.
// This pins the fast path the forwarding loop depends on.
func FuzzDecodeReuse(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	dirty, err := Serialize(
		&TIP{TTL: 16, Proto: LayerTypeRaw,
			Src: MakeAddr(2, 7), Dst: MakeAddr(5, 1),
			SourceRoute: &SourceRouteOption{Ptr: 1, Hops: []Addr{MakeAddr(3, 1), MakeAddr(4, 1)}},
			Payment:     &PaymentOption{Payer: MakeAddr(2, 7), Payee: MakeAddr(3, 1), AmountMilli: 9, Nonce: 1, MAC: 2},
			Identity:    &IdentityOption{Scheme: IdentityPseudonym, ID: []byte("bob")},
		},
		&Raw{Data: []byte("x")})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fresh TIP
		freshErr := fresh.DecodeFrom(data)

		var reused TIP
		if err := reused.DecodeFrom(dirty); err != nil {
			t.Fatalf("decode dirty seed: %v", err)
		}
		reusedErr := reused.DecodeReuse(data)

		if (freshErr == nil) != (reusedErr == nil) {
			t.Fatalf("verdicts diverge: fresh=%v reused=%v", freshErr, reusedErr)
		}
		if freshErr != nil {
			return
		}
		if fresh.TOS != reused.TOS || fresh.TTL != reused.TTL || fresh.Proto != reused.Proto ||
			fresh.Src != reused.Src || fresh.Dst != reused.Dst {
			t.Fatalf("headers diverge: fresh=%+v reused=%+v", fresh, reused)
		}
		if !sameSourceRoute(fresh.SourceRoute, reused.SourceRoute) {
			t.Fatalf("source routes diverge: %+v vs %+v", fresh.SourceRoute, reused.SourceRoute)
		}
		if !samePayment(fresh.Payment, reused.Payment) {
			t.Fatalf("payments diverge: %+v vs %+v", fresh.Payment, reused.Payment)
		}
		if !sameIdentity(fresh.Identity, reused.Identity) {
			t.Fatalf("identities diverge: %+v vs %+v", fresh.Identity, reused.Identity)
		}
		if !bytes.Equal(fresh.LayerPayload(), reused.LayerPayload()) {
			t.Fatal("payload views diverge")
		}
	})
}

func sameSourceRoute(a, b *SourceRouteOption) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Ptr != b.Ptr || len(a.Hops) != len(b.Hops) {
		return false
	}
	for i := range a.Hops {
		if a.Hops[i] != b.Hops[i] {
			return false
		}
	}
	return true
}

func samePayment(a, b *PaymentOption) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

func sameIdentity(a, b *IdentityOption) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || (a.Scheme == b.Scheme && bytes.Equal(a.ID, b.ID))
}
