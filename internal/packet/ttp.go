package packet

import "fmt"

// FlagACK is the TTP flag bit marking an acknowledgement.
const FlagACK uint8 = 1 << 1

const ttpHeaderLen = 16

// TTP is the transport layer: ports, sequence numbers, and flags. Port
// numbers are exactly the "well-known port" signal whose overloading
// §IV-A warns about — middleboxes that infer application or service class
// from ports create the distortion incentives (tunneling, port-hopping)
// the experiments measure.
type TTP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Next             LayerType
	Window           uint16

	contents []byte
	payload  []byte
}

// LayerType implements Layer.
func (t *TTP) LayerType() LayerType { return LayerTypeTTP }

// LayerContents implements Layer.
func (t *TTP) LayerContents() []byte { return t.contents }

// LayerPayload implements Layer.
func (t *TTP) LayerPayload() []byte { return t.payload }

// NextLayerType implements DecodingLayer.
func (t *TTP) NextLayerType() LayerType { return t.Next }

// DecodeFrom implements DecodingLayer.
func (t *TTP) DecodeFrom(data []byte) error {
	if len(data) < ttpHeaderLen {
		return ErrTruncated
	}
	t.SrcPort = getU16(data)
	t.DstPort = getU16(data[2:])
	t.Seq = getU32(data[4:])
	t.Ack = getU32(data[8:])
	t.Flags = data[12]
	t.Next = LayerType(data[13])
	t.Window = getU16(data[14:])
	t.contents = data[:ttpHeaderLen]
	t.payload = data[ttpHeaderLen:]
	return nil
}

// SerializeTo implements SerializableLayer.
func (t *TTP) SerializeTo(b *SerializeBuffer) error {
	h := b.Prepend(ttpHeaderLen)
	putU16(h, t.SrcPort)
	putU16(h[2:], t.DstPort)
	putU32(h[4:], t.Seq)
	putU32(h[8:], t.Ack)
	h[12] = t.Flags
	h[13] = byte(t.Next)
	putU16(h[14:], t.Window)
	return nil
}

func (t *TTP) String() string {
	return fmt.Sprintf("TTP %d->%d seq=%d flags=%02x", t.SrcPort, t.DstPort, t.Seq, t.Flags)
}

const tunnelHeaderLen = 4

// Tunnel encapsulates one packet inside another. Tunnels are the paper's
// canonical consumer counter-move: "users route and tunnel around"
// firewalls and value-pricing restrictions (§I, §V-A2). A middlebox that
// classifies by the outer header cannot see the inner one.
type Tunnel struct {
	Flags uint8
	Inner LayerType
	ID    uint16

	contents []byte
	payload  []byte
}

// LayerType implements Layer.
func (t *Tunnel) LayerType() LayerType { return LayerTypeTunnel }

// LayerContents implements Layer.
func (t *Tunnel) LayerContents() []byte { return t.contents }

// LayerPayload implements Layer.
func (t *Tunnel) LayerPayload() []byte { return t.payload }

// NextLayerType implements DecodingLayer.
func (t *Tunnel) NextLayerType() LayerType { return t.Inner }

// DecodeFrom implements DecodingLayer.
func (t *Tunnel) DecodeFrom(data []byte) error {
	if len(data) < tunnelHeaderLen {
		return ErrTruncated
	}
	t.Flags = data[0]
	t.Inner = LayerType(data[1])
	t.ID = getU16(data[2:])
	t.contents = data[:tunnelHeaderLen]
	t.payload = data[tunnelHeaderLen:]
	return nil
}

// SerializeTo implements SerializableLayer.
func (t *Tunnel) SerializeTo(b *SerializeBuffer) error {
	h := b.Prepend(tunnelHeaderLen)
	h[0] = t.Flags
	h[1] = byte(t.Inner)
	putU16(h[2:], t.ID)
	return nil
}

const policyHeaderLen = 4

// Policy carries an in-band policy expression (see internal/policy for
// the language). Endpoints and consenting middleboxes use it to negotiate
// constraints — the explicit protocol for run-time choice §IV-D calls for.
type Policy struct {
	Inner      LayerType
	Expression string

	contents []byte
	payload  []byte
}

// LayerType implements Layer.
func (p *Policy) LayerType() LayerType { return LayerTypePolicy }

// LayerContents implements Layer.
func (p *Policy) LayerContents() []byte { return p.contents }

// LayerPayload implements Layer.
func (p *Policy) LayerPayload() []byte { return p.payload }

// NextLayerType implements DecodingLayer.
func (p *Policy) NextLayerType() LayerType { return p.Inner }

// DecodeFrom implements DecodingLayer.
func (p *Policy) DecodeFrom(data []byte) error {
	if len(data) < policyHeaderLen {
		return ErrTruncated
	}
	exprLen := int(getU16(data[2:]))
	if policyHeaderLen+exprLen > len(data) {
		return fmt.Errorf("%w: policy expression %d bytes, %d available", ErrBadHeader, exprLen, len(data)-policyHeaderLen)
	}
	p.Inner = LayerType(data[0])
	p.Expression = string(data[policyHeaderLen : policyHeaderLen+exprLen])
	p.contents = data[:policyHeaderLen+exprLen]
	p.payload = data[policyHeaderLen+exprLen:]
	return nil
}

// SerializeTo implements SerializableLayer.
func (p *Policy) SerializeTo(b *SerializeBuffer) error {
	if len(p.Expression) > 0xffff {
		return fmt.Errorf("%w: policy expression too long", ErrBadHeader)
	}
	h := b.Prepend(policyHeaderLen + len(p.Expression))
	h[0] = byte(p.Inner)
	h[1] = 0
	putU16(h[2:], uint16(len(p.Expression)))
	copy(h[policyHeaderLen:], p.Expression)
	return nil
}
