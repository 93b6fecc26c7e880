package packet

import (
	"errors"
	"fmt"
)

// TIP wire constants.
const (
	tipVersion   = 1
	tipMinHeader = 16
	tipMaxHeader = 120
)

// TIP option kinds.
const (
	optEnd         = 0
	optNop         = 1
	optSourceRoute = 2
	optPayment     = 3
	optIdentity    = 4
)

// Errors returned by TIP decoding.
var (
	ErrTruncated  = errors.New("packet: truncated header")
	ErrBadVersion = errors.New("packet: bad TIP version")
	ErrBadHeader  = errors.New("packet: malformed TIP header")
	ErrChecksum   = errors.New("packet: TIP checksum mismatch")
)

// Static pre-wrapped errors for the decode path. The decoder faces
// hostile wire input on the UDP fast path, where constructing an error
// with fmt.Errorf would hand an attacker two heap allocations per
// malformed datagram; these are built once and satisfy errors.Is against
// the sentinels above. Sites that need the offending value (serialize
// paths, which only ever see the caller's own packet) keep fmt.Errorf.
var (
	errVersionNibble  = fmt.Errorf("%w: version nibble mismatch", ErrBadVersion)
	errHeaderLenRange = fmt.Errorf("%w: header length out of range", ErrBadHeader)
	errTotalLenRange  = fmt.Errorf("%w: total length out of range", ErrBadHeader)
	errOptTruncated   = fmt.Errorf("%w: truncated option", ErrBadHeader)
	errOptLength      = fmt.Errorf("%w: option length out of range", ErrBadHeader)
	errOptSourceRoute = fmt.Errorf("%w: source route option", ErrBadHeader)
	errOptSrcRoutePtr = fmt.Errorf("%w: source route pointer past hops", ErrBadHeader)
	errOptPaymentLen  = fmt.Errorf("%w: payment option length", ErrBadHeader)
	errOptIdentityLen = fmt.Errorf("%w: identity option length", ErrBadHeader)
)

// SourceRouteOption is a loose provider-level source route: the list of
// waypoint addresses the sender wants the packet to traverse, and a
// pointer to the next unvisited waypoint. This is the "user control of
// routing" mechanism of §V-A4 — the choice point that provider-controlled
// path-vector routing lacks.
type SourceRouteOption struct {
	// Ptr indexes the next waypoint in Hops to visit.
	Ptr uint8
	// Hops are provider-level waypoints, visited in order.
	Hops []Addr
}

// Exhausted reports whether all waypoints have been visited.
func (o *SourceRouteOption) Exhausted() bool { return int(o.Ptr) >= len(o.Hops) }

// PaymentOption is an in-band payment voucher: the "value flow" protocol
// element §IV-C calls for ("If this value flow requires a protocol,
// design it"). Providers that forward a source-routed packet can redeem
// the voucher; without it they have no incentive to honor the route.
type PaymentOption struct {
	Payer       Addr
	Payee       Addr
	AmountMilli uint32 // thousandths of a currency unit
	Nonce       uint32
	MAC         uint64 // authenticator binding payer/payee/amount/nonce
}

// IdentityOption carries the sender's identity claim: the scheme says how
// to interpret it (anonymous, pseudonymous, certified — §V-B1's
// "framework for talking about identity, not a single identity scheme").
// An explicit Anonymous scheme makes anonymity visible, the paper's
// suggested compromise: "if you are trying to act in an anonymous way, it
// should be hard to disguise this fact."
type IdentityOption struct {
	Scheme uint8
	ID     []byte // at most 16 bytes
}

// Identity schemes.
const (
	IdentityAnonymous uint8 = 0
	IdentityPseudonym uint8 = 1
	IdentityCertified uint8 = 2
)

// TIP is the network layer of the simulated stack: a self-describing
// datagram with explicit type-of-service bits (the tussle-isolated QoS
// selector of §IV-A), hop limit, and optional source route, payment, and
// identity options.
type TIP struct {
	TOS      uint8
	TTL      uint8
	Proto    LayerType
	Src, Dst Addr

	SourceRoute *SourceRouteOption
	Payment     *PaymentOption
	Identity    *IdentityOption

	contents []byte
	payload  []byte
}

// LayerType implements Layer.
func (t *TIP) LayerType() LayerType { return LayerTypeTIP }

// LayerContents implements Layer.
func (t *TIP) LayerContents() []byte { return t.contents }

// LayerPayload implements Layer.
func (t *TIP) LayerPayload() []byte { return t.payload }

// NextLayerType implements DecodingLayer.
func (t *TIP) NextLayerType() LayerType { return t.Proto }

// DecodeFrom implements DecodingLayer. Option structs from a previous
// decode are discarded; use DecodeReuse to recycle them.
func (t *TIP) DecodeFrom(data []byte) error {
	return t.decode(data, false)
}

// DecodeReuse decodes like DecodeFrom but recycles the option structs
// (SourceRoute, Payment, Identity) already attached to t, including the
// source-route hop slice and identity byte slice, so steady-state
// re-decodes on a forwarding fast path are allocation-free. Callers must
// not retain pointers to t's options across calls: the structs are
// overwritten in place by the next DecodeReuse.
//
// Aliasing contract for pooled buffers: the option structs never alias
// data — hops and identity bytes are copied out — but LayerContents and
// LayerPayload are views into data, so once a pooled receive buffer is
// released and refilled, those views silently describe the next
// datagram. A wire worker must finish with (or copy) the views before
// recycling the buffer. On a decode error the exported fields are
// unspecified, but the recycled option structs are retained for the
// next decode, so a flood of malformed datagrams cannot force
// steady-state allocations.
func (t *TIP) DecodeReuse(data []byte) error {
	return t.decode(data, true)
}

func (t *TIP) decode(data []byte, reuse bool) error {
	if len(data) < tipMinHeader {
		return ErrTruncated
	}
	if v := data[0] >> 4; v != tipVersion {
		return errVersionNibble
	}
	hlen := int(data[0]&0x0f) * 8
	if hlen < tipMinHeader || hlen > len(data) {
		return errHeaderLenRange
	}
	total := int(getU16(data[2:]))
	if total < hlen || total > len(data) {
		return errTotalLenRange
	}
	if Checksum(data[:hlen]) != 0 {
		return ErrChecksum
	}
	t.TOS = data[1]
	t.TTL = data[4]
	t.Proto = LayerType(data[5])
	t.Src = getAddr(data[8:])
	t.Dst = getAddr(data[12:])
	var spare tipOptions
	if reuse {
		spare = tipOptions{sr: t.SourceRoute, pay: t.Payment, id: t.Identity}
	}
	t.SourceRoute = nil
	t.Payment = nil
	t.Identity = nil
	if err := t.decodeOptions(data[tipMinHeader:hlen], spare); err != nil {
		// A hostile packet must not bleed the option pool: any spare
		// struct the failed parse did not rebind returns to the scratch
		// TIP, so the next DecodeReuse stays allocation-free. (Without
		// this, alternating malformed and option-bearing packets on a
		// wire feed would force a fresh allocation per good packet.)
		// After an error the exported fields are unspecified; callers
		// must treat the TIP as scratch until the next successful decode.
		if reuse {
			if t.SourceRoute == nil {
				t.SourceRoute = spare.sr
			}
			if t.Payment == nil {
				t.Payment = spare.pay
			}
			if t.Identity == nil {
				t.Identity = spare.id
			}
		}
		return err
	}
	t.contents = data[:hlen]
	t.payload = data[hlen:total]
	return nil
}

// tipOptions carries option structs from a prior decode that
// decodeOptions may overwrite in place instead of allocating anew.
type tipOptions struct {
	sr  *SourceRouteOption
	pay *PaymentOption
	id  *IdentityOption
}

func (t *TIP) decodeOptions(opts []byte, spare tipOptions) error {
	for len(opts) > 0 {
		kind := opts[0]
		switch kind {
		case optEnd:
			return nil
		case optNop:
			opts = opts[1:]
			continue
		}
		if len(opts) < 2 {
			return errOptTruncated
		}
		olen := int(opts[1])
		if olen < 2 || olen > len(opts) {
			return errOptLength
		}
		body := opts[2:olen]
		switch kind {
		case optSourceRoute:
			if len(body) < 1 || (len(body)-1)%4 != 0 {
				return errOptSourceRoute
			}
			sr := spare.sr
			if sr == nil {
				sr = &SourceRouteOption{}
			}
			sr.Ptr = body[0]
			sr.Hops = sr.Hops[:0]
			for i := 1; i < len(body); i += 4 {
				sr.Hops = append(sr.Hops, getAddr(body[i:]))
			}
			if int(sr.Ptr) > len(sr.Hops) {
				return errOptSrcRoutePtr
			}
			t.SourceRoute = sr
		case optPayment:
			if len(body) != 24 {
				return errOptPaymentLen
			}
			pay := spare.pay
			if pay == nil {
				pay = &PaymentOption{}
			}
			*pay = PaymentOption{
				Payer:       getAddr(body),
				Payee:       getAddr(body[4:]),
				AmountMilli: getU32(body[8:]),
				Nonce:       getU32(body[12:]),
				MAC:         getU64(body[16:]),
			}
			t.Payment = pay
		case optIdentity:
			if len(body) < 1 || len(body) > 17 {
				return errOptIdentityLen
			}
			opt := spare.id
			if opt == nil {
				opt = &IdentityOption{}
			}
			opt.Scheme = body[0]
			if opt.ID == nil {
				opt.ID = make([]byte, 0, 16)
			}
			opt.ID = append(opt.ID[:0], body[1:]...)
			t.Identity = opt
		default:
			// Unknown options are skipped, not fatal: the network must
			// carry mechanisms it does not understand (design for the
			// unanticipated tussle).
		}
		opts = opts[olen:]
	}
	return nil
}

func (t *TIP) optionsLen() (int, error) {
	n := 0
	if t.SourceRoute != nil {
		if len(t.SourceRoute.Hops) > 10 {
			return 0, fmt.Errorf("%w: %d source route hops (max 10)", ErrBadHeader, len(t.SourceRoute.Hops))
		}
		n += 2 + 1 + 4*len(t.SourceRoute.Hops)
	}
	if t.Payment != nil {
		n += 2 + 24
	}
	if t.Identity != nil {
		if len(t.Identity.ID) > 16 {
			return 0, fmt.Errorf("%w: identity %d bytes (max 16)", ErrBadHeader, len(t.Identity.ID))
		}
		n += 2 + 1 + len(t.Identity.ID)
	}
	// Round up to an 8-byte boundary (the header-length field counts
	// 8-byte words); padding is NOP bytes then End.
	if rem := (tipMinHeader + n) % 8; rem != 0 {
		n += 8 - rem
	}
	return n, nil
}

// SerializeTo implements SerializableLayer.
func (t *TIP) SerializeTo(b *SerializeBuffer) error {
	optLen, err := t.optionsLen()
	if err != nil {
		return err
	}
	hlen := tipMinHeader + optLen
	if hlen > tipMaxHeader {
		return fmt.Errorf("%w: header %d bytes exceeds max %d", ErrBadHeader, hlen, tipMaxHeader)
	}
	total := hlen + b.Len()
	if total > 0xffff {
		return fmt.Errorf("%w: packet %d bytes exceeds 65535", ErrBadHeader, total)
	}
	h := b.Prepend(hlen)
	h[0] = tipVersion<<4 | byte(hlen/8)
	h[1] = t.TOS
	putU16(h[2:], uint16(total))
	h[4] = t.TTL
	h[5] = byte(t.Proto)
	// checksum at 6:8 computed last
	putAddr(h[8:], t.Src)
	putAddr(h[12:], t.Dst)
	o := h[tipMinHeader:]
	fill := func(n int) []byte { zone := o[:n]; o = o[n:]; return zone }
	if t.SourceRoute != nil {
		zone := fill(3 + 4*len(t.SourceRoute.Hops))
		zone[0] = optSourceRoute
		zone[1] = byte(len(zone))
		zone[2] = t.SourceRoute.Ptr
		for i, hop := range t.SourceRoute.Hops {
			putAddr(zone[3+4*i:], hop)
		}
	}
	if t.Payment != nil {
		zone := fill(26)
		zone[0] = optPayment
		zone[1] = 26
		putAddr(zone[2:], t.Payment.Payer)
		putAddr(zone[6:], t.Payment.Payee)
		putU32(zone[10:], t.Payment.AmountMilli)
		putU32(zone[14:], t.Payment.Nonce)
		putU64(zone[18:], t.Payment.MAC)
	}
	if t.Identity != nil {
		zone := fill(3 + len(t.Identity.ID))
		zone[0] = optIdentity
		zone[1] = byte(len(zone))
		zone[2] = t.Identity.Scheme
		copy(zone[3:], t.Identity.ID)
	}
	for i := range o {
		o[i] = optNop
	}
	if len(o) > 0 {
		o[len(o)-1] = optEnd
	}
	putU16(h[6:], Checksum(h))
	return nil
}

func (t *TIP) String() string {
	s := fmt.Sprintf("TIP %v->%v tos=%d ttl=%d proto=%v", t.Src, t.Dst, t.TOS, t.TTL, t.Proto)
	if t.SourceRoute != nil {
		s += fmt.Sprintf(" srcroute=%v@%d", t.SourceRoute.Hops, t.SourceRoute.Ptr)
	}
	if t.Payment != nil {
		s += fmt.Sprintf(" pay=%dm", t.Payment.AmountMilli)
	}
	return s
}
