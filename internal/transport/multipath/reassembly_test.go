package multipath

import (
	"bytes"
	"testing"
)

func TestPrefixCheck(t *testing.T) {
	want := []byte("abcdef")
	cases := []struct {
		name             string
		writes           []string
		prefix, complete bool
	}{
		{"exact match", []string{"ab", "", "cdef"}, true, true},
		{"short prefix", []string{"abc"}, true, false},
		{"nothing written", nil, true, false},
		{"flipped byte", []string{"ab", "cDef"}, false, false},
		{"overlong stream", []string{"abcdef", "g"}, false, false},
		{"overlong write", []string{"abcdefg"}, false, false},
		{"mismatch stays", []string{"x", "bcdef"}, false, false},
	}
	for _, c := range cases {
		chk := &PrefixCheck{Want: want}
		for _, w := range c.writes {
			if n, err := chk.Write([]byte(w)); n != len(w) || err != nil {
				t.Fatalf("%s: Write(%q) = %d, %v; want %d, nil", c.name, w, n, err, len(w))
			}
		}
		if chk.Prefix() != c.prefix || chk.Complete() != c.complete {
			t.Errorf("%s: Prefix %v Complete %v, want %v %v", c.name, chk.Prefix(), chk.Complete(), c.prefix, c.complete)
		}
	}
}

// refReassembly is the receiver's reassembly as it stood when it kept
// the whole stream in memory: FuzzReassembly's reference.
type refReassembly struct {
	Data []byte
	Dups int
	next uint32
	buf  map[uint32][]byte
}

func (r *refReassembly) accept(seq uint32, payload []byte) {
	switch {
	case seq == r.next:
		r.Data = append(r.Data, payload...)
		r.next++
	case seq > r.next && r.buf[seq] == nil:
		r.buf[seq] = append([]byte{}, payload...)
	default:
		r.Dups++
	}
	for b := r.buf[r.next]; b != nil; b = r.buf[r.next] {
		r.Data = append(r.Data, b...)
		delete(r.buf, r.next)
		r.next++
	}
}

// writeLog is an Out that records the stream and the length of each
// write.
type writeLog struct {
	bytes.Buffer
	lens []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.lens = append(w.lens, len(p))
	return w.Buffer.Write(p)
}

// fuzzSegments cuts stream into segments whose lengths are cuts' bytes
// modulo 17 (empty segments included), then into 8-byte segments once
// cuts runs out.
func fuzzSegments(stream, cuts []byte) [][]byte {
	var segs [][]byte
	for i := 0; len(stream) > 0 || i < len(cuts); i++ {
		n := 8
		if i < len(cuts) {
			n = int(cuts[i]) % 17
		}
		n = min(n, len(stream))
		segs = append(segs, stream[:n])
		stream = stream[n:]
	}
	return segs
}

// FuzzReassembly cuts a fuzz-chosen stream into segments and delivers
// them in a fuzz-chosen order, each order byte naming one segment, so
// segments arrive out of order, repeatedly, or never. After every
// delivery Out must hold exactly the longest contiguous prefix of the
// segments delivered so far, each written once and in order, as the
// reference reassembly's Data does; Bytes must equal its length and
// Dups the number of repeats. The caller's payload buffer is scribbled
// on after each delivery, as the wire reuses its receive slots.
// The committed seed corpus lives in testdata/fuzz/FuzzReassembly
// (regenerated with FuzzMultipathAck's); CI runs a short -fuzz smoke.
func FuzzReassembly(f *testing.F) {
	for _, c := range reassemblyCorpus() {
		f.Add(c[0], c[1], c[2])
	}
	f.Fuzz(func(t *testing.T, stream, cuts, order []byte) {
		if len(stream) > 4096 || len(cuts) > 512 || len(order) > 512 {
			return
		}
		segs := fuzzSegments(stream, cuts)
		if len(segs) == 0 {
			return
		}
		r := NewReceiverCore(9, 7000)
		out := &writeLog{}
		r.Out = out
		ref := &refReassembly{buf: map[uint32][]byte{}}
		seen := make([]bool, len(segs))
		repeats, prefix := 0, 0
		var scratch []byte
		for i, o := range order {
			k := int(o) % len(segs)
			if seen[k] {
				repeats++
			}
			seen[k] = true
			for prefix < len(segs) && seen[prefix] {
				prefix++
			}
			scratch = append(scratch[:0], segs[k]...)
			r.accept(uint32(k), scratch, 1+i%3)
			for j := range scratch {
				scratch[j] ^= 0xff
			}
			ref.accept(uint32(k), segs[k])

			want := bytes.Join(segs[:prefix], nil)
			if !bytes.Equal(out.Bytes(), want) || !bytes.Equal(ref.Data, want) {
				t.Fatalf("after delivering segment %d (#%d): Out holds %q, reference %q, want %q", k, i, out.Bytes(), ref.Data, want)
			}
			if len(out.lens) != prefix {
				t.Fatalf("after delivering segment %d (#%d): %d writes for %d in-order segments", k, i, len(out.lens), prefix)
			}
			for j, n := range out.lens {
				if n != len(segs[j]) {
					t.Fatalf("write %d is %d bytes, segment %d has %d", j, n, j, len(segs[j]))
				}
			}
			if r.Bytes != len(want) || r.Dups != repeats || ref.Dups != repeats {
				t.Fatalf("after delivering segment %d (#%d): Bytes %d Dups %d (reference %d), want %d and %d",
					k, i, r.Bytes, r.Dups, ref.Dups, len(want), repeats)
			}
		}
	})
}

// reassemblyCorpus is the committed seed set (stream, cuts, order):
// in order, reversed, duplicates of held and of delivered segments, a
// gap that stalls the stream, empty segments, and an empty stream.
func reassemblyCorpus() [][3][]byte {
	fox := []byte("the quick brown fox jumps over the lazy dog")
	return [][3][]byte{
		{fox, []byte{4, 6, 6, 4, 6}, []byte{0, 1, 2, 3, 4, 5, 6, 7}},
		{fox, []byte{4, 6, 6, 4, 6}, []byte{7, 6, 5, 4, 3, 2, 1, 0}},
		{fox, []byte{9, 9, 9}, []byte{2, 2, 0, 0, 1, 2, 1, 0}},
		{fox, []byte{5, 5, 5, 5}, []byte{0, 2, 3, 4, 5, 6}},
		{fox, []byte{0, 3, 0, 0, 5, 16}, []byte{3, 1, 0, 2, 5, 4, 6, 7, 8, 9}},
		{nil, []byte{0, 0}, []byte{1, 0, 1}},
	}
}
