// Package idspace implements the 160-bit identifier space shared by MPIL
// and Pastry, together with the digit arithmetic both routing algorithms
// are built on.
//
// Identifiers are fixed-width 160-bit strings (the width used by the paper
// and by Pastry/Chord). An ID can be viewed as a string of M = 160/b digits
// in base 2^b. MPIL's routing metric counts the number of digit positions
// at which two IDs agree (Section 4.1 of the paper); Pastry's prefix
// routing uses the length of the longest shared digit prefix. Both views
// are provided here, along with XOR and circular numeric comparisons used
// by the Pastry leaf set.
package idspace

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"math/rand"
)

// Bits is the width of every identifier in bits.
const Bits = 160

// Bytes is the width of every identifier in bytes.
const Bytes = Bits / 8

// ID is a 160-bit identifier. The zero value is the all-zeros ID, which is
// a valid identifier. Byte 0 holds the most significant bits.
type ID [Bytes]byte

// Zero is the all-zeros identifier.
var Zero ID

// FromBytes builds an ID from the first Bytes bytes of p. If p is shorter
// than Bytes, the remaining low-order bytes are zero.
func FromBytes(p []byte) ID {
	var id ID
	copy(id[:], p)
	return id
}

// FromString hashes an arbitrary string (an object name, a node address)
// into the ID space using SHA-1, the hash historically used by Pastry
// deployments; SHA-1 output is exactly 160 bits wide.
func FromString(s string) ID {
	return ID(sha1.Sum([]byte(s)))
}

// FromUint64 places v in the low-order 64 bits of an otherwise-zero ID.
// It is intended for tests and examples where readable IDs matter.
func FromUint64(v uint64) ID {
	var id ID
	for i := 0; i < 8; i++ {
		id[Bytes-1-i] = byte(v >> (8 * i))
	}
	return id
}

// Random draws an ID uniformly at random from the full 160-bit space using
// the supplied deterministic source.
func Random(rng *rand.Rand) ID {
	var id ID
	for i := 0; i < Bytes; i += 4 {
		v := rng.Uint32()
		id[i] = byte(v >> 24)
		id[i+1] = byte(v >> 16)
		id[i+2] = byte(v >> 8)
		id[i+3] = byte(v)
	}
	return id
}

// ParseHex parses a 40-character hexadecimal string into an ID.
func ParseHex(s string) (ID, error) {
	var id ID
	if len(s) != 2*Bytes {
		return id, fmt.Errorf("idspace: hex ID must be %d characters, got %d", 2*Bytes, len(s))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("idspace: parse hex ID: %w", err)
	}
	copy(id[:], b)
	return id, nil
}

// MustParseHex is ParseHex that panics on malformed input. It is intended
// for tests and package-level example tables.
func MustParseHex(s string) ID {
	id, err := ParseHex(s)
	if err != nil {
		panic(err)
	}
	return id
}

// Hex renders the ID as a 40-character lowercase hexadecimal string.
func (id ID) Hex() string { return hex.EncodeToString(id[:]) }

// String implements fmt.Stringer with a short 8-character prefix, which is
// what log lines and traces want.
func (id ID) String() string { return hex.EncodeToString(id[:4]) }

// IsZero reports whether the ID is the all-zeros identifier.
func (id ID) IsZero() bool { return id == Zero }

// Words is an ID decoded into big-endian machine words: W0 holds the
// most significant 64 bits, W1 the next 64 and W2 the trailing 32,
// zero-extended. All hot arithmetic below runs word-parallel over this
// form instead of looping per byte or per digit, and a caller that
// measures many keys against the same IDs decodes each ID once and keeps
// its Words: MPIL's routing step, and Pastry's leaf-set ordering and
// routing rule.
type Words struct{ W0, W1, W2 uint64 }

// Words decodes the ID into its word form.
func (id ID) Words() Words {
	return Words{
		binary.BigEndian.Uint64(id[0:8]),
		binary.BigEndian.Uint64(id[8:16]),
		uint64(binary.BigEndian.Uint32(id[16:20])),
	}
}

// ID is the inverse of ID.Words. Bits of W2 above the low 32 are
// dropped, which is the mod-2^160 wrap add relies on.
func (w Words) ID() ID {
	var id ID
	binary.BigEndian.PutUint64(id[0:8], w.W0)
	binary.BigEndian.PutUint64(id[8:16], w.W1)
	binary.BigEndian.PutUint32(id[16:20], uint32(w.W2))
	return id
}

// Cmp compares two decoded IDs as 160-bit unsigned integers, returning
// -1, 0 or +1.
func (w Words) Cmp(o Words) int {
	switch {
	case w.W0 != o.W0:
		if w.W0 < o.W0 {
			return -1
		}
		return 1
	case w.W1 != o.W1:
		if w.W1 < o.W1 {
			return -1
		}
		return 1
	case w.W2 != o.W2:
		if w.W2 < o.W2 {
			return -1
		}
		return 1
	}
	return 0
}

// Sub returns w-o mod 2^160, the clockwise ring distance from o to w.
// Both W2 operands are below 2^32, so the 64-bit subtraction borrows
// exactly when the 32-bit one would; the mask drops the bits that
// borrow sets above the low 32, keeping the result a valid decoded ID
// that Cmp can order.
func (w Words) Sub(o Words) Words {
	d2, borrow := bits.Sub64(w.W2, o.W2, 0)
	d1, borrow := bits.Sub64(w.W1, o.W1, borrow)
	d0, _ := bits.Sub64(w.W0, o.W0, borrow)
	return Words{d0, d1, d2 & 0xffffffff}
}

// RingDist is ID.RingDist on decoded IDs.
func (w Words) RingDist(o Words) Words {
	cw, ccw := w.Sub(o), o.Sub(w)
	if cw.Cmp(ccw) <= 0 {
		return cw
	}
	return ccw
}

// CloserRing is ID.CloserRing on decoded IDs.
func (w Words) CloserRing(target, rival Words) bool {
	if c := w.RingDist(target).Cmp(rival.RingDist(target)); c != 0 {
		return c < 0
	}
	return w.Cmp(rival) < 0
}

// Cmp compares two IDs as 160-bit unsigned integers, returning -1, 0 or +1.
func (id ID) Cmp(other ID) int { return id.Words().Cmp(other.Words()) }

// Less reports whether id < other as 160-bit unsigned integers.
func (id ID) Less(other ID) bool { return id.Cmp(other) < 0 }

// XOR returns the bitwise exclusive-or of two IDs, the raw material of the
// Kademlia-style distance and of MPIL's common-digit count.
func (id ID) XOR(other ID) ID {
	a, b := id.Words(), other.Words()
	return Words{a.W0 ^ b.W0, a.W1 ^ b.W1, a.W2 ^ b.W2}.ID()
}

// Bit returns bit i of the ID, where bit 0 is the most significant.
func (id ID) Bit(i int) int {
	if i < 0 || i >= Bits {
		panic(fmt.Sprintf("idspace: bit index %d out of range", i))
	}
	return int(id[i/8]>>(7-uint(i%8))) & 1
}

// add returns id+other mod 2^160.
func (id ID) add(other ID) ID {
	a, b := id.Words(), other.Words()
	s2 := a.W2 + b.W2
	s1, c1 := bits.Add64(a.W1, b.W1, s2>>32)
	s0, _ := bits.Add64(a.W0, b.W0, c1)
	return Words{s0, s1, s2}.ID()
}

// Sub returns id-other mod 2^160, i.e. the clockwise ring distance from
// other to id.
func (id ID) Sub(other ID) ID { return id.Words().Sub(other.Words()).ID() }

// RingDist returns the distance between two IDs on the circular 160-bit
// ring: min(a-b, b-a) mod 2^160. Pastry's leaf set and final delivery rule
// use this circular closeness.
func (id ID) RingDist(other ID) ID { return id.Words().RingDist(other.Words()).ID() }

// CloserRing reports whether id is strictly closer to target than rival is,
// under circular numeric distance. Ties are broken toward the numerically
// smaller ID so the relation is a total order for distinct IDs.
func (id ID) CloserRing(target, rival ID) bool {
	return id.Words().CloserRing(target.Words(), rival.Words())
}

// Between reports whether id lies on the clockwise arc (low, high], the
// ring-interval test used when deciding leaf-set coverage. When low ==
// high the arc is the full ring and every ID qualifies.
func (id ID) Between(low, high ID) bool {
	if low == high {
		return true
	}
	if low.Less(high) {
		return low.Less(id) && !high.Less(id)
	}
	// The arc wraps through zero.
	return low.Less(id) || !high.Less(id)
}
