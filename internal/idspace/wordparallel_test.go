package idspace

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// Reference implementations: the seed's per-byte / per-digit loops, kept
// here as the spec the word-parallel rewrites must match bit for bit.

func naiveCmp(a, b ID) int {
	for i := 0; i < Bytes; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

func naiveXOR(a, b ID) ID {
	var out ID
	for i := 0; i < Bytes; i++ {
		out[i] = a[i] ^ b[i]
	}
	return out
}

func naiveSub(a, b ID) ID {
	var out ID
	var borrow int16
	for i := Bytes - 1; i >= 0; i-- {
		d := int16(a[i]) - int16(b[i]) - borrow
		if d < 0 {
			d += 256
			borrow = 1
		} else {
			borrow = 0
		}
		out[i] = byte(d)
	}
	return out
}

func naiveAdd(a, b ID) ID {
	var out ID
	var carry uint16
	for i := Bytes - 1; i >= 0; i-- {
		s := uint16(a[i]) + uint16(b[i]) + carry
		out[i] = byte(s)
		carry = s >> 8
	}
	return out
}

func naiveCommonDigits(s Space, a, b ID) int {
	n := 0
	for i := 0; i < s.Digits(); i++ {
		if s.Digit(a, i) == s.Digit(b, i) {
			n++
		}
	}
	return n
}

func naiveSharedPrefix(s Space, a, b ID) int {
	m := s.Digits()
	for i := 0; i < m; i++ {
		if s.Digit(a, i) != s.Digit(b, i) {
			return i
		}
	}
	return m
}

// correlatedPairs yields ID pairs biased toward the structure the random
// generator almost never produces — long shared prefixes, single-digit
// differences, equal IDs, all-zeros/all-ones words — which is exactly
// where leading-zero and SWAR lane arithmetic can go wrong.
func correlatedPairs(rng *rand.Rand, n int) [][2]ID {
	pairs := make([][2]ID, 0, n)
	for len(pairs) < n {
		a := Random(rng)
		b := a
		switch rng.Intn(6) {
		case 0: // equal
		case 1: // flip one bit
			i := rng.Intn(Bits)
			b[i/8] ^= 1 << uint(7-i%8)
		case 2: // change one byte
			b[rng.Intn(Bytes)] = byte(rng.Intn(256))
		case 3: // diverge from a random byte onward
			from := rng.Intn(Bytes)
			for i := from; i < Bytes; i++ {
				b[i] = byte(rng.Intn(256))
			}
		case 4: // extreme words
			a = Zero
			for i := range b {
				b[i] = 0xff
			}
			for i := rng.Intn(Bytes + 1); i < Bytes; i++ {
				b[i] = 0
			}
		case 5: // difference only in the trailing 32-bit word
			b[16+rng.Intn(4)] ^= byte(1 + rng.Intn(255))
		}
		pairs = append(pairs, [2]ID{a, b})
	}
	return pairs
}

func TestWordParallelDigitOpsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pairs := correlatedPairs(rng, 2000)
	for _, b := range []int{1, 2, 4, 8} {
		s := MustSpace(b)
		for _, p := range pairs {
			x, y := p[0], p[1]
			if got, want := s.CommonDigits(x, y), naiveCommonDigits(s, x, y); got != want {
				t.Fatalf("b=%d CommonDigits(%v, %v) = %d, want %d", b, x.Hex(), y.Hex(), got, want)
			}
			if got, want := s.SharedPrefix(x, y), naiveSharedPrefix(s, x, y); got != want {
				t.Fatalf("b=%d SharedPrefix(%v, %v) = %d, want %d", b, x.Hex(), y.Hex(), got, want)
			}
		}
	}
}

// TestWordsEntryPointsAgainstNaive checks the metrics and the ring
// arithmetic on decoded IDs, which MPIL's routing step and Pastry's leaf
// set call directly, against the per-digit and per-byte references, and
// pins the XOR metric's top word against the top 64 bits of the
// byte-wise XOR distance it replaced.
func TestWordsEntryPointsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pairs := correlatedPairs(rng, 2000)
	for i := 0; i < 2000; i++ {
		pairs = append(pairs, [2]ID{Random(rng), Random(rng)})
	}
	// Subtractions that wrap through zero, borrowing out of the trailing
	// 32-bit word and across every word boundary.
	var ones ID
	for i := range ones {
		ones[i] = 0xff
	}
	pairs = append(pairs,
		[2]ID{Zero, Zero}, [2]ID{ones, ones},
		[2]ID{Zero, FromUint64(1)}, [2]ID{FromUint64(1), FromUint64(2)},
		[2]ID{Zero, ones}, [2]ID{FromUint64(1 << 32), FromUint64(1)},
		[2]ID{MustParseHex("0000000000000000000000010000000000000000"), FromUint64(1)},
		[2]ID{MustParseHex("0000000000000001000000000000000000000000"), FromUint64(1)},
	)
	for _, p := range pairs {
		x, y := p[0], p[1]
		xw, yw := x.Words(), y.Words()
		if got, want := xw.Sub(yw), naiveSub(x, y).Words(); got != want {
			t.Fatalf("Words.Sub(%v, %v) = %#x, want %#x", x.Hex(), y.Hex(), got, want)
		}
		if got, want := yw.Sub(xw), naiveSub(y, x).Words(); got != want {
			t.Fatalf("Words.Sub(%v, %v) = %#x, want %#x", y.Hex(), x.Hex(), got, want)
		}
		if got, want := xw.Cmp(yw), naiveCmp(x, y); got != want {
			t.Fatalf("Words.Cmp(%v, %v) = %d, want %d", x.Hex(), y.Hex(), got, want)
		}
		if got, want := xw.Sub(yw).Cmp(yw.Sub(xw)), naiveCmp(naiveSub(x, y), naiveSub(y, x)); got != want {
			t.Fatalf("Cmp of the two ring distances between %v and %v = %d, want %d", x.Hex(), y.Hex(), got, want)
		}
	}
	for _, b := range []int{1, 2, 4, 8} {
		s := MustSpace(b)
		for _, p := range pairs {
			x, y := p[0], p[1]
			if got, want := s.CommonDigitsWords(x.Words(), y.Words()), naiveCommonDigits(s, x, y); got != want {
				t.Fatalf("b=%d CommonDigitsWords(%v, %v) = %d, want %d", b, x.Hex(), y.Hex(), got, want)
			}
			if got, want := s.SharedPrefixWords(x.Words(), y.Words()), naiveSharedPrefix(s, x, y); got != want {
				t.Fatalf("b=%d SharedPrefixWords(%v, %v) = %d, want %d", b, x.Hex(), y.Hex(), got, want)
			}
		}
	}
	for _, p := range pairs {
		k, id := p[0], p[1]
		x := naiveXOR(k, id)
		if got, want := ^(k.Words().W0 ^ id.Words().W0), ^binary.BigEndian.Uint64(x[:8]); got != want {
			t.Fatalf("XOR metric(%v, %v) = %#x, want %#x", k.Hex(), id.Hex(), got, want)
		}
	}
}

func TestWordParallelArithmeticAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, p := range correlatedPairs(rng, 2000) {
		x, y := p[0], p[1]
		if got, want := x.Cmp(y), naiveCmp(x, y); got != want {
			t.Fatalf("Cmp(%v, %v) = %d, want %d", x.Hex(), y.Hex(), got, want)
		}
		if got, want := x.XOR(y), naiveXOR(x, y); got != want {
			t.Fatalf("XOR(%v, %v) = %v, want %v", x.Hex(), y.Hex(), got.Hex(), want.Hex())
		}
		if got, want := x.Sub(y), naiveSub(x, y); got != want {
			t.Fatalf("Sub(%v, %v) = %v, want %v", x.Hex(), y.Hex(), got.Hex(), want.Hex())
		}
		if got, want := x.add(y), naiveAdd(x, y); got != want {
			t.Fatalf("add(%v, %v) = %v, want %v", x.Hex(), y.Hex(), got.Hex(), want.Hex())
		}
	}
}

func TestWordParallelQuickProperties(t *testing.T) {
	for _, b := range []int{1, 2, 4, 8} {
		s := MustSpace(b)
		cd := func(x, y ID) bool { return s.CommonDigits(x, y) == naiveCommonDigits(s, x, y) }
		sp := func(x, y ID) bool { return s.SharedPrefix(x, y) == naiveSharedPrefix(s, x, y) }
		if err := quick.Check(cd, quickConfig()); err != nil {
			t.Errorf("b=%d CommonDigits: %v", b, err)
		}
		if err := quick.Check(sp, quickConfig()); err != nil {
			t.Errorf("b=%d SharedPrefix: %v", b, err)
		}
	}
	cmp := func(x, y ID) bool { return x.Cmp(y) == naiveCmp(x, y) }
	sub := func(x, y ID) bool { return x.Sub(y) == naiveSub(x, y) }
	if err := quick.Check(cmp, quickConfig()); err != nil {
		t.Errorf("Cmp: %v", err)
	}
	if err := quick.Check(sub, quickConfig()); err != nil {
		t.Errorf("Sub: %v", err)
	}
}

func TestWordsRoundTrip(t *testing.T) {
	f := func(x ID) bool { return x.Words().ID() == x }
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Error(err)
	}
}

// --- digit-op microbenches across the digit-width sweep ---

func benchIDs() (ID, ID) {
	rng := rand.New(rand.NewSource(7))
	return Random(rng), Random(rng)
}

func BenchmarkCommonDigits(b *testing.B) {
	x, y := benchIDs()
	for _, bits := range []int{1, 2, 4, 8} {
		s := MustSpace(bits)
		b.Run(s.digitsLabel(), func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += s.CommonDigits(x, y)
			}
			benchSink = sink
		})
	}
}

func BenchmarkSharedPrefix(b *testing.B) {
	// A long shared prefix exercises the full scan depth.
	x, _ := benchIDs()
	y := x
	y[18] ^= 0x01
	for _, bits := range []int{1, 2, 4, 8} {
		s := MustSpace(bits)
		b.Run(s.digitsLabel(), func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += s.SharedPrefix(x, y)
			}
			benchSink = sink
		})
	}
}

func BenchmarkCmp(b *testing.B) {
	x, _ := benchIDs()
	y := x
	y[19] ^= 0x01 // equal until the last byte: worst case
	b.ReportAllocs()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += x.Cmp(y)
	}
	benchSink = sink
}

func BenchmarkSub(b *testing.B) {
	x, y := benchIDs()
	b.ReportAllocs()
	var sink ID
	for i := 0; i < b.N; i++ {
		sink = x.Sub(y)
	}
	benchSinkID = sink
}

func BenchmarkWordsSub(b *testing.B) {
	x, y := benchIDs()
	xw, yw := x.Words(), y.Words()
	b.ReportAllocs()
	var sink Words
	for i := 0; i < b.N; i++ {
		sink = xw.Sub(yw)
	}
	benchSinkWords = sink
}

var (
	benchSinkWords Words
	benchSink      int
	benchSinkID    ID
)

func (s Space) digitsLabel() string {
	switch s.b {
	case 1:
		return "b1"
	case 2:
		return "b2"
	case 4:
		return "b4"
	default:
		return "b8"
	}
}
