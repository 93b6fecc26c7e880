package packet

// SerializeBuffer builds packet bytes from the innermost layer outward:
// each layer prepends its header in front of everything serialized so far,
// mirroring gopacket's SerializeBuffer. The zero value is ready to use.
type SerializeBuffer struct {
	buf   []byte // backing storage
	start int    // index of first used byte
}

// NewSerializeBuffer returns a buffer with headroom for typical header
// stacks, avoiding reallocation in hot paths.
func NewSerializeBuffer() *SerializeBuffer {
	b := make([]byte, 256)
	return &SerializeBuffer{buf: b, start: len(b)}
}

// Bytes returns the serialized packet so far. The slice aliases the
// buffer; it is invalidated by further Prepend/Append calls.
func (s *SerializeBuffer) Bytes() []byte { return s.buf[s.start:] }

// Len returns the current serialized length.
func (s *SerializeBuffer) Len() int { return len(s.buf) - s.start }

// Clear resets the buffer for reuse, retaining storage.
func (s *SerializeBuffer) Clear() {
	if s.buf == nil {
		s.buf = make([]byte, 256)
	}
	s.start = len(s.buf)
}

// Prepend returns a writable slice of n bytes placed before the current
// contents.
func (s *SerializeBuffer) Prepend(n int) []byte {
	if s.buf == nil {
		s.Clear()
	}
	if n > s.start {
		used := len(s.buf) - s.start
		grown := make([]byte, n+used+256)
		newStart := len(grown) - used
		copy(grown[newStart:], s.buf[s.start:])
		s.buf = grown
		s.start = newStart
	}
	s.start -= n
	zone := s.buf[s.start : s.start+n]
	for i := range zone {
		zone[i] = 0
	}
	return zone
}

// SerializeLayers clears b and writes the given layers innermost-last
// (the natural reading order: outermost first), returning the packet
// bytes. Layers that need back-references (lengths, checksums, next-layer
// types) compute them during their own SerializeTo because inner layers
// are already in the buffer.
func SerializeLayers(b *SerializeBuffer, layers ...SerializableLayer) ([]byte, error) {
	b.Clear()
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(b); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

// Serialize is a convenience wrapper allocating a fresh buffer.
func Serialize(layers ...SerializableLayer) ([]byte, error) {
	out, err := SerializeLayers(NewSerializeBuffer(), layers...)
	if err != nil {
		return nil, err
	}
	cp := make([]byte, len(out))
	copy(cp, out)
	return cp, nil
}
