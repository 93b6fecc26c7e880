// Package packet implements the self-describing datagram format used by
// the simulated internetwork: a layered packet model in the style of
// gopacket, with an eager decoder that tolerates unknown or malformed
// layers, reusable layers whose DecodeFrom fills caller-owned structs
// without allocating on hot paths, and a serialization buffer for
// constructing packets.
//
// The protocol family implemented here is deliberately not IP: it is the
// "TIP" (Tussle Internet Protocol) stack, a compact analogue whose choice
// points — type-of-service bits, source-route options, payment vouchers,
// tunnels, and an encryption layer with a visibility flag — are exactly
// the mechanisms "Tussle in Cyberspace" reasons about.
package packet

import "fmt"

// LayerType identifies a protocol layer. The value doubles as the
// on-the-wire "next protocol" field, making every datagram self-describing
// (§I of the paper: "the self-describing datagram packet").
type LayerType uint8

// Layer types the decoder knows. LayerTypeNone terminates decoding;
// LayerTypeRaw is an opaque payload.
const (
	LayerTypeNone    LayerType = 0
	LayerTypeRaw     LayerType = 1
	LayerTypeTIP     LayerType = 2
	LayerTypeTTP     LayerType = 3
	LayerTypeTunnel  LayerType = 4
	LayerTypeCrypto  LayerType = 5
	LayerTypePolicy  LayerType = 6
	LayerTypeFailure LayerType = 255
)

var layerNames = map[LayerType]string{
	LayerTypeNone:    "None",
	LayerTypeRaw:     "Raw",
	LayerTypeTIP:     "TIP",
	LayerTypeTTP:     "TTP",
	LayerTypeTunnel:  "Tunnel",
	LayerTypeCrypto:  "Crypto",
	LayerTypePolicy:  "Policy",
	LayerTypeFailure: "DecodeFailure",
}

func (t LayerType) String() string {
	if n, ok := layerNames[t]; ok {
		return n
	}
	return fmt.Sprintf("LayerType(%d)", uint8(t))
}

// Layer is one decoded protocol layer within a packet.
type Layer interface {
	// LayerType returns the type of this layer.
	LayerType() LayerType
	// LayerContents returns the bytes that make up this layer's header.
	LayerContents() []byte
	// LayerPayload returns the bytes this layer carries for the layers
	// above it.
	LayerPayload() []byte
}

// DecodingLayer is a Layer that can decode itself from bytes, reporting
// what layer follows it. Implementations are reusable: DecodeFrom
// overwrites all state, enabling allocation-free parsing.
type DecodingLayer interface {
	Layer
	// DecodeFrom parses data into the receiver. The receiver must not
	// retain data beyond the next call unless the caller guarantees
	// immutability.
	DecodeFrom(data []byte) error
	// NextLayerType reports the type of the layer carried in
	// LayerPayload, or LayerTypeNone when this is the final layer.
	NextLayerType() LayerType
}

// SerializableLayer is a Layer that can write itself into a
// SerializeBuffer.
type SerializableLayer interface {
	// SerializeTo prepends this layer's wire representation to b. The
	// buffer already contains the serialization of all layers above
	// this one.
	SerializeTo(b *SerializeBuffer) error
	LayerType() LayerType
}

// decoders maps a LayerType to a constructor for a fresh decoder.
var decoders = map[LayerType]func() DecodingLayer{
	LayerTypeRaw:    func() DecodingLayer { return &Raw{} },
	LayerTypeTIP:    func() DecodingLayer { return &TIP{} },
	LayerTypeTTP:    func() DecodingLayer { return &TTP{} },
	LayerTypeTunnel: func() DecodingLayer { return &Tunnel{} },
	LayerTypeCrypto: func() DecodingLayer { return &Crypto{} },
	LayerTypePolicy: func() DecodingLayer { return &Policy{} },
}

// Raw is an opaque payload layer.
type Raw struct {
	Data []byte
}

// LayerType implements Layer.
func (r *Raw) LayerType() LayerType { return LayerTypeRaw }

// LayerContents implements Layer; for Raw the contents are the payload.
func (r *Raw) LayerContents() []byte { return r.Data }

// LayerPayload implements Layer; Raw carries nothing above it.
func (r *Raw) LayerPayload() []byte { return nil }

// DecodeFrom implements DecodingLayer.
func (r *Raw) DecodeFrom(data []byte) error {
	r.Data = data
	return nil
}

// NextLayerType implements DecodingLayer.
func (r *Raw) NextLayerType() LayerType { return LayerTypeNone }

// SerializeTo implements SerializableLayer.
func (r *Raw) SerializeTo(b *SerializeBuffer) error {
	copy(b.Prepend(len(r.Data)), r.Data)
	return nil
}

// DecodeFailure records a layer that could not be decoded; the packet
// retains the undecodable bytes and the error.
type DecodeFailure struct {
	Data []byte
	Err  error
}

// LayerType implements Layer.
func (d *DecodeFailure) LayerType() LayerType { return LayerTypeFailure }

// LayerContents implements Layer.
func (d *DecodeFailure) LayerContents() []byte { return d.Data }

// LayerPayload implements Layer.
func (d *DecodeFailure) LayerPayload() []byte { return nil }

func (d *DecodeFailure) Error() string {
	return fmt.Sprintf("packet: decode failure: %v", d.Err)
}

// Packet is a fully decoded datagram.
type Packet struct {
	layers []Layer
}

// NewPacket decodes data starting at the given first layer type. Decoding
// is eager; a trailing DecodeFailure layer records any error. The data
// slice is retained, not copied — callers who will mutate it must pass a
// copy.
func NewPacket(data []byte, first LayerType) *Packet {
	p := &Packet{}
	rest := data
	t := first
	for t != LayerTypeNone && len(rest) > 0 {
		mk, ok := decoders[t]
		if !ok {
			p.layers = append(p.layers, &DecodeFailure{Data: rest, Err: fmt.Errorf("no decoder for %v", t)})
			return p
		}
		l := mk()
		if err := l.DecodeFrom(rest); err != nil {
			p.layers = append(p.layers, &DecodeFailure{Data: rest, Err: err})
			return p
		}
		p.layers = append(p.layers, l)
		rest = l.LayerPayload()
		t = l.NextLayerType()
	}
	return p
}

// Layer returns the first layer of the given type, or nil.
func (p *Packet) Layer(t LayerType) Layer {
	for _, l := range p.layers {
		if l.LayerType() == t {
			return l
		}
	}
	return nil
}

// String renders the layer chain, e.g. "TIP/TTP/Raw".
func (p *Packet) String() string {
	s := ""
	for i, l := range p.layers {
		if i > 0 {
			s += "/"
		}
		s += l.LayerType().String()
	}
	return s
}
