package idspace

import (
	"fmt"
	"math/bits"
)

// Space describes a positional view of the 160-bit ID space: IDs read as
// strings of Digits() digits, each B bits wide (base 2^B). The paper's
// analysis (Section 5) is parameterized the same way, with m = M*b.
//
// The zero value is not valid; construct with NewSpace.
type Space struct {
	b int // bits per digit
}

// NewSpace returns the base-2^b view of the ID space. b must be one of
// 1, 2, 4 or 8 so that digits pack evenly into bytes.
func NewSpace(b int) (Space, error) {
	switch b {
	case 1, 2, 4, 8:
		return Space{b: b}, nil
	default:
		return Space{}, fmt.Errorf("idspace: unsupported digit width %d bits (want 1, 2, 4 or 8)", b)
	}
}

// MustSpace is NewSpace that panics on invalid b. Intended for
// package-level defaults and tests.
func MustSpace(b int) Space {
	s, err := NewSpace(b)
	if err != nil {
		panic(err)
	}
	return s
}

// B returns the digit width in bits.
func (s Space) B() int { return s.b }

// Base returns the radix 2^b of the digit alphabet.
func (s Space) Base() int { return 1 << uint(s.b) }

// Digits returns M, the number of digits in an ID under this view.
func (s Space) Digits() int { return Bits / s.b }

// Digit extracts digit i of the ID, where digit 0 is the most significant.
func (s Space) Digit(id ID, i int) int {
	if i < 0 || i >= s.Digits() {
		panic(fmt.Sprintf("idspace: digit index %d out of range for %d-digit space", i, s.Digits()))
	}
	bitOff := i * s.b
	byteIdx := bitOff / 8
	shift := 8 - s.b - (bitOff % 8)
	return int(id[byteIdx]>>uint(shift)) & (s.Base() - 1)
}

// SetDigit returns a copy of id with digit i replaced by v. It is used by
// tests and by ID constructors that need precise digit patterns.
func (s Space) SetDigit(id ID, i, v int) ID {
	if v < 0 || v >= s.Base() {
		panic(fmt.Sprintf("idspace: digit value %d out of range for base %d", v, s.Base()))
	}
	bitOff := i * s.b
	byteIdx := bitOff / 8
	shift := uint(8 - s.b - (bitOff % 8))
	mask := byte((s.Base() - 1) << shift)
	id[byteIdx] = (id[byteIdx] &^ mask) | byte(v)<<shift
	return id
}

// CommonDigits is the MPIL routing metric (paper Section 4.1): the number
// of digit positions at which a and b hold the same value — equivalently
// the number of zero digits in a XOR b. Higher is closer.
func (s Space) CommonDigits(a, b ID) int { return s.CommonDigitsWords(a.Words(), b.Words()) }

// CommonDigitsWords is CommonDigits on decoded IDs. The count runs
// word-parallel (SWAR) over the 160-bit XOR as three 64-bit words: each
// b-bit lane folds its bits into a single flag bit and a popcount
// finishes the job. The trailing word is zero-extended from 32 bits, so
// its phantom high half contributes exactly 32/b spurious zero digits,
// subtracted as a constant.
func (s Space) CommonDigitsWords(a, b Words) int {
	x0, x1, x2 := a.W0^b.W0, a.W1^b.W1, a.W2^b.W2
	switch s.b {
	case 8:
		return zeroBytes(x0) + zeroBytes(x1) + zeroBytes(x2) - 32/8
	case 4:
		return zeroNibbles(x0) + zeroNibbles(x1) + zeroNibbles(x2) - 32/4
	case 2:
		return zeroPairs(x0) + zeroPairs(x1) + zeroPairs(x2) - 32/2
	default: // b == 1: common bits = 160 - popcount
		return Bits - bits.OnesCount64(x0) - bits.OnesCount64(x1) - bits.OnesCount64(x2)
	}
}

// zeroBytes counts zero bytes in x. For each byte, (b&0x7f)+0x7f sets bit
// 7 iff the low seven bits are nonzero; OR-ing x back in folds bit 7
// itself, so the complement's high bits flag exactly the zero bytes. The
// per-byte adds cannot carry across lanes (0x7f+0x7f < 0x100).
func zeroBytes(x uint64) int {
	const lo7 = 0x7f7f7f7f7f7f7f7f
	t := (x & lo7) + lo7
	return bits.OnesCount64(^(t | x) & 0x8080808080808080)
}

// zeroNibbles counts zero 4-bit lanes in x by OR-folding each lane onto
// its lowest bit.
func zeroNibbles(x uint64) int {
	y := x | x>>2
	y |= y >> 1
	return 16 - bits.OnesCount64(y&0x1111111111111111)
}

// zeroPairs counts zero 2-bit lanes in x.
func zeroPairs(x uint64) int {
	y := x | x>>1
	return 32 - bits.OnesCount64(y&0x5555555555555555)
}

// SharedPrefix is Pastry's routing metric: the length (in digits) of the
// longest common prefix of a and b. It ranges over [0, Digits()].
func (s Space) SharedPrefix(a, b ID) int { return s.SharedPrefixWords(a.Words(), b.Words()) }

// SharedPrefixWords is SharedPrefix on decoded IDs. The prefix length in
// digits is the number of leading zero bits of a XOR b, truncated to a
// whole number of digits.
func (s Space) SharedPrefixWords(a, b Words) int {
	var lz int
	switch {
	case a.W0 != b.W0:
		lz = bits.LeadingZeros64(a.W0 ^ b.W0)
	case a.W1 != b.W1:
		lz = 64 + bits.LeadingZeros64(a.W1^b.W1)
	case a.W2 != b.W2:
		lz = 128 + bits.LeadingZeros32(uint32(a.W2^b.W2))
	default:
		return s.Digits()
	}
	return lz / s.b
}
