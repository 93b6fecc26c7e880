package packet

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func mustSerialize(t *testing.T, layers ...SerializableLayer) []byte {
	t.Helper()
	data, err := Serialize(layers...)
	if err != nil {
		t.Fatalf("Serialize: %v", err)
	}
	return data
}

func TestAddr(t *testing.T) {
	a := MakeAddr(12, 34)
	if a.Provider() != 12 || a.Host() != 34 {
		t.Fatalf("addr fields: %d.%d", a.Provider(), a.Host())
	}
	if a.String() != "12.34" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestAddrRoundTripQuick(t *testing.T) {
	f := func(p, h uint16) bool {
		a := MakeAddr(p, h)
		return a.Provider() == p && a.Host() == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumZeroOverSelf(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		b := make([]byte, len(data))
		copy(b, data)
		// Zero a checksum field, compute, insert, and verify the
		// whole-buffer checksum is zero (even-length buffers only —
		// the standard internet checksum property).
		if len(b)%2 == 1 {
			b = b[:len(b)-1]
		}
		if len(b) < 2 {
			return true
		}
		b[0], b[1] = 0, 0
		ck := Checksum(b)
		b[0], b[1] = byte(ck>>8), byte(ck)
		return Checksum(b) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTIPRoundTripMinimal(t *testing.T) {
	tip := &TIP{TOS: 5, TTL: 64, Proto: LayerTypeRaw, Src: MakeAddr(1, 2), Dst: MakeAddr(3, 4)}
	raw := &Raw{Data: []byte("hello tussle")}
	data := mustSerialize(t, tip, raw)

	p := NewPacket(data, LayerTypeTIP)
	if fail := errorLayer(p); fail != nil {
		t.Fatalf("decode failed: %v", fail.Err)
	}
	got := p.Layer(LayerTypeTIP).(*TIP)
	if got.TOS != 5 || got.TTL != 64 || got.Src != tip.Src || got.Dst != tip.Dst {
		t.Fatalf("TIP fields mismatch: %+v", got)
	}
	gotRaw := p.Layer(LayerTypeRaw).(*Raw)
	if string(gotRaw.Data) != "hello tussle" {
		t.Fatalf("payload = %q", gotRaw.Data)
	}
	if p.String() != "TIP/Raw" {
		t.Fatalf("chain = %q", p.String())
	}
}

func TestTIPRoundTripOptions(t *testing.T) {
	tip := &TIP{
		TOS: 1, TTL: 9, Proto: LayerTypeTTP,
		Src: MakeAddr(10, 1), Dst: MakeAddr(20, 2),
		SourceRoute: &SourceRouteOption{Ptr: 1, Hops: []Addr{MakeAddr(30, 0), MakeAddr(40, 0), MakeAddr(20, 0)}},
		Payment:     &PaymentOption{Payer: MakeAddr(10, 1), Payee: MakeAddr(30, 0), AmountMilli: 1500, Nonce: 7, MAC: 0xdeadbeefcafef00d},
		Identity:    &IdentityOption{Scheme: IdentityCertified, ID: []byte("alice")},
	}
	ttp := &TTP{SrcPort: 1000, DstPort: 80, Seq: 42, Next: LayerTypeRaw}
	raw := &Raw{Data: []byte("GET /")}
	data := mustSerialize(t, tip, ttp, raw)

	p := NewPacket(data, LayerTypeTIP)
	if fail := errorLayer(p); fail != nil {
		t.Fatalf("decode failed: %v", fail.Err)
	}
	got := p.Layer(LayerTypeTIP).(*TIP)
	if got.SourceRoute == nil || got.Payment == nil || got.Identity == nil {
		t.Fatalf("options missing: %+v", got)
	}
	if got.SourceRoute.Ptr != 1 || len(got.SourceRoute.Hops) != 3 || got.SourceRoute.Hops[2] != MakeAddr(20, 0) {
		t.Fatalf("source route mismatch: %+v", got.SourceRoute)
	}
	if *got.Payment != *tip.Payment {
		t.Fatalf("payment mismatch: %+v vs %+v", got.Payment, tip.Payment)
	}
	if got.Identity.Scheme != IdentityCertified || string(got.Identity.ID) != "alice" {
		t.Fatalf("identity mismatch: %+v", got.Identity)
	}
	gt := p.Layer(LayerTypeTTP).(*TTP)
	if gt.SrcPort != 1000 || gt.DstPort != 80 || gt.Seq != 42 {
		t.Fatalf("TTP mismatch: %+v", gt)
	}
}

func TestTIPRoundTripQuick(t *testing.T) {
	f := func(tos, ttl uint8, src, dst uint32, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		tip := &TIP{TOS: tos, TTL: ttl, Proto: LayerTypeRaw, Src: Addr(src), Dst: Addr(dst)}
		data, err := Serialize(tip, &Raw{Data: payload})
		if err != nil {
			return false
		}
		p := NewPacket(data, LayerTypeTIP)
		if errorLayer(p) != nil {
			return false
		}
		got := p.Layer(LayerTypeTIP).(*TIP)
		rawLayer := p.Layer(LayerTypeRaw)
		if rawLayer == nil {
			// Zero-length payloads produce no Raw layer; acceptable.
			return len(payload) == 0 &&
				got.TOS == tos && got.TTL == ttl
		}
		return got.TOS == tos && got.TTL == ttl &&
			got.Src == Addr(src) && got.Dst == Addr(dst) &&
			bytes.Equal(rawLayer.(*Raw).Data, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTIPChecksumDetectsCorruption(t *testing.T) {
	tip := &TIP{TTL: 3, Proto: LayerTypeRaw, Src: 1, Dst: 2}
	data := mustSerialize(t, tip, &Raw{Data: []byte("x")})
	for i := 0; i < tipMinHeader; i++ {
		corrupt := make([]byte, len(data))
		copy(corrupt, data)
		corrupt[i] ^= 0x10
		p := NewPacket(corrupt, LayerTypeTIP)
		if errorLayer(p) == nil {
			t.Fatalf("corruption at header byte %d not detected", i)
		}
	}
}

func TestTIPRejectsTruncated(t *testing.T) {
	tip := &TIP{TTL: 3, Proto: LayerTypeRaw, Src: 1, Dst: 2}
	data := mustSerialize(t, tip, &Raw{Data: []byte("abcdef")})
	for n := 0; n < len(data); n++ {
		p := NewPacket(data[:n], LayerTypeTIP)
		if n == 0 {
			// Nothing to decode: zero layers, no failure.
			continue
		}
		if errorLayer(p) == nil && n < len(data) {
			// A shorter-but-valid prefix would mean total-length is
			// not enforced.
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestTIPDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		var tip TIP
		_ = tip.DecodeFrom(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTIPSourceRouteTooLong(t *testing.T) {
	hops := make([]Addr, 11)
	tip := &TIP{Proto: LayerTypeRaw, SourceRoute: &SourceRouteOption{Hops: hops}}
	if _, err := Serialize(tip, &Raw{Data: []byte("x")}); err == nil {
		t.Fatal("11-hop source route accepted")
	}
}

func TestTTPRoundTripQuick(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win uint16, payload []byte) bool {
		ttp := &TTP{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: flags, Next: LayerTypeRaw, Window: win}
		data, err := Serialize(ttp, &Raw{Data: payload})
		if err != nil {
			return false
		}
		var got TTP
		if err := got.DecodeFrom(data); err != nil {
			return false
		}
		return got.SrcPort == sp && got.DstPort == dp && got.Seq == seq &&
			got.Ack == ack && got.Flags == flags && got.Window == win &&
			bytes.Equal(got.LayerPayload(), payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTunnelHidesInnerFromOuterClassifier(t *testing.T) {
	// Inner packet: the "forbidden" server traffic on port 80.
	inner := mustSerialize(t,
		&TIP{TTL: 5, Proto: LayerTypeTTP, Src: MakeAddr(1, 1), Dst: MakeAddr(2, 2)},
		&TTP{SrcPort: 80, DstPort: 5000, Next: LayerTypeRaw},
		&Raw{Data: []byte("response")})
	// Outer packet: innocuous-looking tunnel on an allowed port.
	outer := mustSerialize(t,
		&TIP{TTL: 5, Proto: LayerTypeTTP, Src: MakeAddr(1, 1), Dst: MakeAddr(3, 3)},
		&TTP{SrcPort: 7777, DstPort: 443, Next: LayerTypeTunnel},
		&Tunnel{Inner: LayerTypeTIP, ID: 9},
		&Raw{Data: inner})

	p := NewPacket(outer, LayerTypeTIP)
	if fail := errorLayer(p); fail != nil {
		t.Fatalf("decode failed: %v", fail.Err)
	}
	// The outer classifier sees port 443.
	outerTTP := p.Layer(LayerTypeTTP).(*TTP)
	if outerTTP.DstPort != 443 {
		t.Fatalf("outer port = %d", outerTTP.DstPort)
	}
	// Full decode reveals the tunnel and, inside it, the inner packet.
	tun := p.Layer(LayerTypeTunnel)
	if tun == nil {
		t.Fatal("tunnel layer missing")
	}
	innerPkt := NewPacket(tun.LayerPayload(), LayerTypeTIP)
	innerTTP := innerPkt.Layer(LayerTypeTTP)
	if innerTTP == nil || innerTTP.(*TTP).SrcPort != 80 {
		t.Fatalf("inner packet not recovered: %v", innerPkt)
	}
}

func TestPolicyLayerRoundTrip(t *testing.T) {
	pol := &Policy{Inner: LayerTypeRaw, Expression: `allow if role == "subscriber"`}
	data := mustSerialize(t, pol, &Raw{Data: []byte("body")})
	var got Policy
	if err := got.DecodeFrom(data); err != nil {
		t.Fatal(err)
	}
	if got.Expression != pol.Expression || got.Inner != LayerTypeRaw {
		t.Fatalf("policy mismatch: %+v", got)
	}
	if string(got.LayerPayload()) != "body" {
		t.Fatalf("payload = %q", got.LayerPayload())
	}
}

func TestPolicyRoundTripQuick(t *testing.T) {
	f := func(expr string, body []byte) bool {
		if len(expr) > 1000 {
			expr = expr[:1000]
		}
		pol := &Policy{Inner: LayerTypeRaw, Expression: expr}
		data, err := Serialize(pol, &Raw{Data: body})
		if err != nil {
			return false
		}
		var got Policy
		if err := got.DecodeFrom(data); err != nil {
			return false
		}
		return got.Expression == expr && bytes.Equal(got.LayerPayload(), body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCryptoSealOpen(t *testing.T) {
	key := []byte("shared secret key")
	plain := []byte("private conversation the government wants to tap")
	c := &Crypto{KeyID: 1, Nonce: 99}
	c.Seal(key, plain, LayerTypeRaw)

	got, err := c.Open(key)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatalf("roundtrip = %q", got)
	}
}

func TestCryptoOpenWrongKey(t *testing.T) {
	c := &Crypto{Nonce: 5}
	c.Seal([]byte("right"), []byte("data"), LayerTypeRaw)
	if _, err := c.Open([]byte("wrong")); !errors.Is(err, ErrAuth) {
		t.Fatalf("wrong key error = %v, want ErrAuth", err)
	}
}

func TestCryptoTamperDetected(t *testing.T) {
	key := []byte("k")
	c := &Crypto{Nonce: 5}
	c.Seal(key, []byte("ledger: pay alice 10"), LayerTypeRaw)
	c.Ciphertext[3] ^= 1
	if _, err := c.Open(key); !errors.Is(err, ErrAuth) {
		t.Fatalf("tamper error = %v, want ErrAuth", err)
	}
}

func TestCryptoRoundTripQuick(t *testing.T) {
	f := func(key []byte, nonce uint64, plain []byte) bool {
		if len(key) == 0 {
			key = []byte{0}
		}
		c := &Crypto{Nonce: nonce}
		c.Seal(key, plain, LayerTypeRaw)
		got, err := c.Open(key)
		return err == nil && bytes.Equal(got, plain)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCryptoOpaqueVsInspectableOnWire(t *testing.T) {
	key := []byte("k")
	mk := func(flags uint8) []byte {
		c := &Crypto{Flags: flags, KeyID: 2, Nonce: 1}
		c.Seal(key, []byte("payload"), LayerTypeTTP)
		data, err := Serialize(c)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	opaque := mk(0)
	inspectable := mk(CryptoInspectable)

	var co, ci Crypto
	if err := co.DecodeFrom(opaque); err != nil {
		t.Fatal(err)
	}
	if err := ci.DecodeFrom(inspectable); err != nil {
		t.Fatal(err)
	}
	if co.Flags&CryptoInspectable != 0 || co.Inner != LayerTypeNone {
		t.Fatalf("opaque layer decoded flags %#x, inner %v", co.Flags, co.Inner)
	}
	if ci.Flags&CryptoInspectable == 0 || ci.Inner != LayerTypeTTP {
		t.Fatalf("inspectable layer decoded flags %#x, inner %v", ci.Flags, ci.Inner)
	}
	// The opaque wire form must not leak the inner type byte.
	if opaque[1] != 0 {
		t.Fatal("opaque layer leaked inner type on the wire")
	}
}

func TestParserReuseNoAlloc(t *testing.T) {
	data := mustSerialize(t,
		&TIP{TTL: 4, Proto: LayerTypeTTP, Src: 1, Dst: 2},
		&TTP{Next: LayerTypeRaw},
		&Raw{Data: []byte("abc")})
	var tip TIP
	var ttp TTP
	var raw Raw
	allocs := testing.AllocsPerRun(200, func() {
		if err := tip.DecodeFrom(data); err != nil {
			t.Fatal(err)
		}
		if err := ttp.DecodeFrom(tip.LayerPayload()); err != nil {
			t.Fatal(err)
		}
		if err := raw.DecodeFrom(ttp.LayerPayload()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("decoding into caller-owned layers allocates %v per packet, want 0", allocs)
	}
	if string(raw.Data) != "abc" {
		t.Fatalf("raw = %q", raw.Data)
	}
}

func TestNewPacketUnknownFirstLayer(t *testing.T) {
	p := NewPacket([]byte{1, 2, 3}, LayerType(200))
	if errorLayer(p) == nil {
		t.Fatal("unknown layer type should produce DecodeFailure")
	}
}

func TestSerializeBufferGrowth(t *testing.T) {
	b := &SerializeBuffer{} // zero value usable
	big := b.Prepend(1000)
	for i := range big {
		big[i] = byte(i)
	}
	head := b.Prepend(4)
	copy(head, []byte{9, 9, 9, 9})
	out := b.Bytes()
	if len(out) != 1004 || out[0] != 9 || out[4] != 0 || out[1003] != byte(999%256) {
		t.Fatalf("buffer layout wrong: len=%d", len(out))
	}
}

func TestLayerTypeString(t *testing.T) {
	if LayerTypeTIP.String() != "TIP" {
		t.Fatalf("TIP name = %q", LayerTypeTIP.String())
	}
	if LayerType(123).String() != "LayerType(123)" {
		t.Fatalf("unknown name = %q", LayerType(123).String())
	}
}

func BenchmarkSerializeTIPTTP(b *testing.B) {
	buf := NewSerializeBuffer()
	tip := &TIP{TTL: 64, Proto: LayerTypeTTP, Src: 1, Dst: 2}
	ttp := &TTP{SrcPort: 1, DstPort: 2, Next: LayerTypeRaw}
	raw := &Raw{Data: make([]byte, 512)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SerializeLayers(buf, tip, ttp, raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewPacket(b *testing.B) {
	data, err := Serialize(
		&TIP{TTL: 64, Proto: LayerTypeTTP, Src: 1, Dst: 2},
		&TTP{Next: LayerTypeRaw},
		&Raw{Data: make([]byte, 512)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewPacket(data, LayerTypeTIP)
		if errorLayer(p) != nil {
			b.Fatal("decode failed")
		}
	}
}

func TestDecodeReuseMatchesDecodeFrom(t *testing.T) {
	withOpts, err := Serialize(
		&TIP{TTL: 9, Proto: LayerTypeRaw, Src: MakeAddr(1, 1), Dst: MakeAddr(9, 2),
			SourceRoute: &SourceRouteOption{Ptr: 1, Hops: []Addr{MakeAddr(3, 0), MakeAddr(5, 0)}},
			Payment:     &PaymentOption{Payer: MakeAddr(1, 1), Payee: MakeAddr(3, 0), AmountMilli: 250, Nonce: 7, MAC: 99},
			Identity:    &IdentityOption{Scheme: IdentityPseudonym, ID: []byte("alice")}},
		&Raw{Data: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Serialize(
		&TIP{TTL: 4, Proto: LayerTypeRaw, Src: MakeAddr(2, 1), Dst: MakeAddr(7, 2)},
		&Raw{Data: []byte("bye")})
	if err != nil {
		t.Fatal(err)
	}

	var fresh, reused TIP
	if err := fresh.DecodeFrom(withOpts); err != nil {
		t.Fatal(err)
	}
	if err := reused.DecodeReuse(withOpts); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("DecodeReuse diverged from DecodeFrom:\n%+v\nvs\n%+v", fresh, reused)
	}
	// Re-decoding a packet without options must clear the option fields.
	if err := reused.DecodeReuse(plain); err != nil {
		t.Fatal(err)
	}
	if reused.SourceRoute != nil || reused.Payment != nil || reused.Identity != nil {
		t.Fatalf("stale options survived re-decode: %+v", reused)
	}
}

func TestDecodeReuseRecyclesOptionStructs(t *testing.T) {
	data, err := Serialize(
		&TIP{TTL: 9, Proto: LayerTypeRaw, Src: MakeAddr(1, 1), Dst: MakeAddr(9, 2),
			SourceRoute: &SourceRouteOption{Hops: []Addr{MakeAddr(3, 0)}},
			Payment:     &PaymentOption{Payer: MakeAddr(1, 1), AmountMilli: 5},
			Identity:    &IdentityOption{Scheme: IdentityCertified, ID: []byte("bob")}},
		&Raw{Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	var tip TIP
	if err := tip.DecodeReuse(data); err != nil {
		t.Fatal(err)
	}
	sr, pay, id := tip.SourceRoute, tip.Payment, tip.Identity
	allocs := testing.AllocsPerRun(100, func() {
		if err := tip.DecodeReuse(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeReuse allocated %.1f/op, want 0", allocs)
	}
	if tip.SourceRoute != sr || tip.Payment != pay || tip.Identity != id {
		t.Fatal("DecodeReuse did not recycle the option structs")
	}
}

// errorLayer returns the packet's DecodeFailure layer if decoding
// failed, else nil.
func errorLayer(p *Packet) *DecodeFailure {
	for _, l := range p.layers {
		if f, ok := l.(*DecodeFailure); ok {
			return f
		}
	}
	return nil
}
