package stego

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestPaddingRoundTrip(t *testing.T) {
	rng := sim.NewRNG(1)
	cover := MakeCover(ZeroPadding, 50, 8, rng)
	msg := []byte("exfiltrate this")
	used := EmbedPadding(cover, msg)
	if used != len(msg) {
		t.Fatalf("used %d fields", used)
	}
	for i, p := range cover {
		want := make([]byte, len(p))
		if i < len(msg) {
			want[0] = msg[i]
		}
		if !bytes.Equal(p, want) {
			t.Fatalf("padding field %d = %v, want %v", i, p, want)
		}
	}
}

func TestPaddingRoundTripQuick(t *testing.T) {
	rng := sim.NewRNG(2)
	f := func(msg []byte) bool {
		if len(msg) > 100 {
			msg = msg[:100]
		}
		cover := MakeCover(ZeroPadding, 120, 4, rng)
		EmbedPadding(cover, msg)
		for i, b := range msg {
			if cover[i][0] != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroCoverDetection(t *testing.T) {
	rng := sim.NewRNG(3)
	det := PaddingDetector{Expected: ZeroPadding}

	innocent := MakeCover(ZeroPadding, 200, 8, rng)
	if s := det.Suspicion(innocent); s != 0 {
		t.Fatalf("innocent suspicion = %v", s)
	}
	// Whitened (random-looking) message in zero padding: glaring.
	stego := MakeCover(ZeroPadding, 200, 8, rng)
	msg := make([]byte, 200)
	for i := range msg {
		msg[i] = byte(rng.Uint64()) | 1 // ensure nonzero
	}
	EmbedPadding(stego, msg)
	if s := det.Suspicion(stego); s < 0.9 {
		t.Fatalf("stego in zero cover suspicion = %v, should be obvious", s)
	}
}

func TestRandomCoverHidesPerfectly(t *testing.T) {
	rng := sim.NewRNG(4)
	det := PaddingDetector{Expected: RandomPadding}

	innocent := MakeCover(RandomPadding, 400, 8, rng)
	base := det.Suspicion(innocent)

	stego := MakeCover(RandomPadding, 400, 8, rng)
	msg := make([]byte, 400)
	for i := range msg {
		msg[i] = byte(rng.Uint64()) // whitened ciphertext
	}
	EmbedPadding(stego, msg)
	embedded := det.Suspicion(stego)
	// Indistinguishable: both near the noise floor.
	if embedded > base+0.1 {
		t.Fatalf("whitened stego in random cover detected: %v vs baseline %v", embedded, base)
	}
}

func TestUnwhitenedMessageInRandomCoverDetected(t *testing.T) {
	rng := sim.NewRNG(5)
	det := PaddingDetector{Expected: RandomPadding}
	stego := MakeCover(RandomPadding, 400, 8, rng)
	// ASCII text is far from uniform: detectable even in random cover.
	msg := bytes.Repeat([]byte("aaaa"), 100)
	EmbedPadding(stego, msg)
	if s := det.Suspicion(stego); s < 0.3 {
		t.Fatalf("plaintext stego suspicion = %v", s)
	}
}

func TestTimingRoundTripLowJitter(t *testing.T) {
	rng := sim.NewRNG(6)
	c := TimingChannel{Base: 10 * sim.Millisecond, Delta: 4 * sim.Millisecond}
	bits := make([]int, 200)
	for i := range bits {
		bits[i] = int(rng.Uint64() & 1)
	}
	gaps := c.EmbedTiming(bits, 200*sim.Microsecond, rng)
	got := c.ExtractTiming(gaps)
	if ber := BitErrorRate(bits, got); ber > 0.01 {
		t.Fatalf("low-jitter BER = %v", ber)
	}
}

func TestTimingDegradesWithJitter(t *testing.T) {
	rng := sim.NewRNG(7)
	c := TimingChannel{Base: 10 * sim.Millisecond, Delta: 2 * sim.Millisecond}
	bits := make([]int, 500)
	for i := range bits {
		bits[i] = int(rng.Uint64() & 1)
	}
	low := c.EmbedTiming(bits, 100*sim.Microsecond, rng)
	high := c.EmbedTiming(bits, 5*sim.Millisecond, rng)
	berLow := BitErrorRate(bits, c.ExtractTiming(low))
	berHigh := BitErrorRate(bits, c.ExtractTiming(high))
	if berHigh <= berLow {
		t.Fatalf("jitter should raise BER: %v vs %v", berHigh, berLow)
	}
	if berHigh < 0.1 {
		t.Fatalf("heavy jitter BER = %v, should approach coin flipping", berHigh)
	}
}

func TestTimingDetectorSeparates(t *testing.T) {
	rng := sim.NewRNG(8)
	det := TimingDetector{}
	c := TimingChannel{Base: 10 * sim.Millisecond, Delta: 5 * sim.Millisecond}
	bits := make([]int, 300)
	for i := range bits {
		bits[i] = int(rng.Uint64() & 1)
	}
	covert := c.EmbedTiming(bits, 300*sim.Microsecond, rng)
	covertScore := det.Suspicion(covert)

	// Innocent traffic: unimodal jitter around one gap.
	innocent := make([]sim.Time, 300)
	for i := range innocent {
		innocent[i] = 10*sim.Millisecond + sim.Time(rng.Normal(0, float64(sim.Millisecond)))
	}
	innocentScore := det.Suspicion(innocent)
	if covertScore <= innocentScore+0.2 {
		t.Fatalf("detector failed: covert %v vs innocent %v", covertScore, innocentScore)
	}
}

func TestTimingDetectorSmallSample(t *testing.T) {
	det := TimingDetector{}
	if s := det.Suspicion([]sim.Time{1, 2}); s != 0 {
		t.Fatalf("small-sample suspicion = %v", s)
	}
	if s := det.Suspicion([]sim.Time{5, 5, 5, 5, 5}); s != 0 {
		t.Fatalf("zero-variance suspicion = %v", s)
	}
}

func TestBitErrorRateEdges(t *testing.T) {
	if BitErrorRate(nil, nil) != 0 {
		t.Fatal("empty BER")
	}
	if ber := BitErrorRate([]int{1, 0, 1}, []int{1}); ber != 2.0/3 {
		t.Fatalf("short-received BER = %v", ber)
	}
	if ber := BitErrorRate([]int{1, 1}, []int{0, 0}); ber != 1 {
		t.Fatalf("all-wrong BER = %v", ber)
	}
}

func TestInspectionGameCycles(t *testing.T) {
	a := InspectionGame(8, 5, 1)
	// No saddle point: maximin < minimax.
	maximin := math.Max(math.Min(a[0][0], a[0][1]), math.Min(a[1][0], a[1][1]))
	minimax := math.Min(math.Max(a[0][0], a[1][0]), math.Max(a[0][1], a[1][1]))
	if maximin >= minimax {
		t.Fatalf("inspection game has a saddle: maximin %v minimax %v", maximin, minimax)
	}
}
