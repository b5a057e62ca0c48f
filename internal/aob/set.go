package aob

import (
	"math/bits"
	"math/rand/v2"
)

// hashSeed keys VectorSet hashing per process, so colliding chunks cannot
// be precomputed to lengthen one bucket.
var hashSeed = rand.Uint64()

// VectorSet is a content-addressed set of vectors: the intern table the RE
// representations (packages re and rex) keep their chunk symbols in. It is
// keyed by a 64-bit hash computed in place over a vector's words, and a
// bucket resolves by Equal, so a hash match alone never decides identity.
// Looking up a vector that is already a member allocates nothing. The zero
// value is not usable; call NewVectorSet. A VectorSet is not safe for
// concurrent use.
type VectorSet struct {
	buckets map[uint64][]*Vector
	n       int
}

// NewVectorSet returns an empty set.
func NewVectorSet() *VectorSet {
	return &VectorSet{buckets: make(map[uint64][]*Vector)}
}

// Intern returns the member equal to v and false, or adds v itself and
// returns it and true. A vector added to the set must not be mutated
// afterwards: its bucket is fixed by the content it had when added.
func (s *VectorSet) Intern(v *Vector) (*Vector, bool) {
	h := v.hash()
	b := s.buckets[h]
	for _, m := range b {
		if m.Equal(v) {
			return m, false
		}
	}
	s.buckets[h] = append(b, v)
	s.n++
	return v, true
}

// Len returns the number of members.
func (s *VectorSet) Len() int { return s.n }

// Clear removes every member, keeping the table's storage for reuse.
func (s *VectorSet) Clear() {
	clear(s.buckets)
	s.n = 0
}

// hash mixes every storage word and the way count into 64 bits. Four
// independent lanes keep the multiplies off one dependency chain; each word
// is folded in with a full 64x64->128-bit multiply, so every input bit
// reaches every output bit.
func (v *Vector) hash() uint64 {
	const m0, m1 = 0xa0761d6478bd642f, 0xe7037ed1a0b428db
	w := v.words
	h0, h1, h2, h3 := hashSeed, hashSeed^m0, hashSeed^m1, hashSeed+uint64(v.ways)
	for ; len(w) >= 4; w = w[4:] {
		h0 = mix(h0^w[0], m0)
		h1 = mix(h1^w[1], m0)
		h2 = mix(h2^w[2], m0)
		h3 = mix(h3^w[3], m0)
	}
	for _, x := range w {
		h0 = mix(h0^x, m0)
	}
	return mix(mix(h0^h1, m1)^mix(h2^h3, m1), m0)
}

// mix is the wyhash folding step: the two halves of x*m xored together.
func mix(x, m uint64) uint64 {
	hi, lo := bits.Mul64(x, m)
	return hi ^ lo
}
