package aob

import (
	"math/rand"
	"testing"
)

// This file cross-validates every AoB operation against a deliberately
// naive reference model (bool slices and linear scans) exhaustively at
// small widths — the same exhaustive-simulation discipline the class
// required ("100% line coverage of the Verilog code").

// model is the naive reference implementation.
type model []bool

func modelOf(v *Vector) model {
	m := make(model, v.Channels())
	for ch := range m {
		m[ch] = v.Get(uint64(ch))
	}
	return m
}

func (m model) equal(v *Vector) bool {
	if uint64(len(m)) != v.Channels() {
		return false
	}
	for ch := range m {
		if m[ch] != v.Get(uint64(ch)) {
			return false
		}
	}
	return true
}

// The gate ops write m channel by channel, exactly as Table 3 specifies
// them; the operands may alias m.

func (m model) and(a, b model) {
	for ch := range m {
		m[ch] = a[ch] && b[ch]
	}
}

func (m model) or(a, b model) {
	for ch := range m {
		m[ch] = a[ch] || b[ch]
	}
}

func (m model) xor(a, b model) {
	for ch := range m {
		m[ch] = a[ch] != b[ch]
	}
}

func (m model) not() {
	for ch := range m {
		m[ch] = !m[ch]
	}
}

func (m model) cnot(ctrl model) { m.xor(m, ctrl) }

func (m model) ccnot(b, c model) {
	for ch := range m {
		m[ch] = m[ch] != (b[ch] && c[ch])
	}
}

// had writes the Hadamard pattern Hk: channel ch holds bit k of ch.
func (m model) had(k int) {
	for ch := range m {
		m[ch] = ch>>uint(k)&1 == 1
	}
}

func (m model) next(s uint64) uint64 {
	for ch := s + 1; ch < uint64(len(m)); ch++ {
		if m[ch] {
			return ch
		}
	}
	return 0
}

func (m model) popAfter(s uint64) uint64 {
	var n uint64
	for ch := s + 1; ch < uint64(len(m)); ch++ {
		if m[ch] {
			n++
		}
	}
	return n
}

func (m model) pop() uint64 {
	var n uint64
	for _, b := range m {
		if b {
			n++
		}
	}
	return n
}

// enumerateVectors yields every possible vector for ways <= 4, or a random
// sample for larger ways.
func enumerateVectors(t *testing.T, ways int, f func(v *Vector)) {
	t.Helper()
	n := uint64(1) << uint(ways)
	if ways <= 4 {
		for bits := uint64(0); bits < uint64(1)<<n; bits++ {
			v := New(ways)
			for ch := uint64(0); ch < n; ch++ {
				v.Set(ch, bits>>ch&1 == 1)
			}
			f(v)
		}
		return
	}
	r := rand.New(rand.NewSource(int64(ways)))
	for trial := 0; trial < 200; trial++ {
		f(randVector(r, ways))
	}
}

func TestReferenceUnaryOpsExhaustive(t *testing.T) {
	for ways := 0; ways <= 3; ways++ {
		enumerateVectors(t, ways, func(v *Vector) {
			m := modelOf(v)
			// Not.
			nv, nm := v.Clone(), modelOf(v)
			nv.Not()
			if nm.not(); !nm.equal(nv) {
				t.Fatalf("ways=%d not: %s", ways, v)
			}
			// Pop / Any / All.
			if v.Pop() != m.pop() {
				t.Fatalf("ways=%d pop: %s", ways, v)
			}
			if v.Any() != (m.pop() > 0) {
				t.Fatalf("ways=%d any: %s", ways, v)
			}
			if v.All() != (m.pop() == uint64(len(m))) {
				t.Fatalf("ways=%d all: %s", ways, v)
			}
			// Next / NextHW / PopAfter at every start.
			for s := uint64(0); s < v.Channels(); s++ {
				if v.Next(s) != m.next(s) {
					t.Fatalf("ways=%d next(%d): %s", ways, s, v)
				}
				if v.NextHW(s) != m.next(s) {
					t.Fatalf("ways=%d nextHW(%d): %s", ways, s, v)
				}
				if v.PopAfter(s) != m.popAfter(s) {
					t.Fatalf("ways=%d popAfter(%d): %s", ways, s, v)
				}
			}
		})
	}
}

func TestReferenceBinaryOpsExhaustive(t *testing.T) {
	const ways = 2 // 16 x 16 operand pairs, every op
	enumerateVectors(t, ways, func(a *Vector) {
		enumerateVectors(t, ways, func(b *Vector) {
			ma, mb := modelOf(a), modelOf(b)
			d, md := New(ways), make(model, len(ma))
			d.And(a, b)
			if md.and(ma, mb); !md.equal(d) {
				t.Fatalf("and %s %s", a, b)
			}
			d.Or(a, b)
			if md.or(ma, mb); !md.equal(d) {
				t.Fatalf("or %s %s", a, b)
			}
			d.Xor(a, b)
			if md.xor(ma, mb); !md.equal(d) {
				t.Fatalf("xor %s %s", a, b)
			}
			// CNot: a ^= b.
			c, mc := a.Clone(), modelOf(a)
			c.CNot(b)
			if mc.cnot(mb); !mc.equal(c) {
				t.Fatalf("cnot %s %s", a, b)
			}
			// Swap.
			x, y := a.Clone(), b.Clone()
			x.Swap(y)
			if !ma.equal(y) || !mb.equal(x) {
				t.Fatalf("swap %s %s", a, b)
			}
		})
	})
}

func TestReferenceTernaryOpsExhaustive(t *testing.T) {
	const ways = 1 // 4^3 = 64 triples, every op, every channel
	enumerateVectors(t, ways, func(a *Vector) {
		enumerateVectors(t, ways, func(b *Vector) {
			enumerateVectors(t, ways, func(cc *Vector) {
				ma, mb, mc := modelOf(a), modelOf(b), modelOf(cc)
				// CCNot: a ^= b & c.
				x, mx := a.Clone(), modelOf(a)
				x.CCNot(b, cc)
				if mx.ccnot(mb, mc); !mx.equal(x) {
					t.Fatalf("ccnot %s %s %s", a, b, cc)
				}
				// CSwap controlled by c.
				p, q := a.Clone(), b.Clone()
				p.CSwap(q, cc)
				for ch := range ma {
					wantP, wantQ := ma[ch], mb[ch]
					if mc[ch] {
						wantP, wantQ = wantQ, wantP
					}
					if p.Get(uint64(ch)) != wantP || q.Get(uint64(ch)) != wantQ {
						t.Fatalf("cswap %s %s ctrl %s", a, b, cc)
					}
				}
			})
		})
	})
}

func TestReferenceLargeWaysSampled(t *testing.T) {
	for _, ways := range []int{7, 9, 13, 16} {
		enumerateVectors(t, ways, func(v *Vector) {
			m := modelOf(v)
			if v.Pop() != m.pop() {
				t.Fatalf("ways=%d pop", ways)
			}
			r := rand.New(rand.NewSource(99))
			for probe := 0; probe < 20; probe++ {
				s := r.Uint64() & (v.Channels() - 1)
				if v.Next(s) != m.next(s) {
					t.Fatalf("ways=%d next(%d)", ways, s)
				}
				if v.PopAfter(s) != m.popAfter(s) {
					t.Fatalf("ways=%d popAfter(%d)", ways, s)
				}
			}
		})
	}
}
