package re

import (
	"math/rand"
	"runtime"
	"testing"

	"tangled/internal/aob"
)

// Interning edge cases: the hashed table resolves by content, the Hadamard
// cache follows cap resets, adopted scratch vectors are never rewritten, and
// interning a known chunk allocates no chunk-sized memory.

// TestInternResolvesByContent plants a symbol with different content in the
// bucket of Had(1)'s content by rewriting it after adoption. Interning
// Had(1) again must not return it.
func TestInternResolvesByContent(t *testing.T) {
	s := MustSpace(8, 6)
	s.scratch.Had(1)
	planted := s.intern()
	planted.Not()
	s.scratch.Had(1)
	got := s.intern()
	if got == planted {
		t.Fatal("intern returned a same-bucket symbol with different content")
	}
	if !got.Equal(aob.HadVector(6, 1)) {
		t.Fatalf("intern returned %s, want the Had(1) chunk", got)
	}
	s.scratch.Had(1)
	if s.intern() != got {
		t.Fatal("re-interning Had(1) missed the symbol just adopted")
	}
	if n := s.SymbolCount(); n != 4 {
		t.Fatalf("SymbolCount = %d, want 4 (zero, one, planted, Had(1))", n)
	}
}

// TestHadCacheFollowsReset walks a cap-4 table through two resets with Had
// alone. The counts are those of interning every Had(k) afresh; after each
// reset Had(k) must return the new table's symbol, never a cached one from
// before, while zero/one stay pointer-shared.
func TestHadCacheFollowsReset(t *testing.T) {
	s := MustSpace(10, 6)
	zero, one := s.Zero().runs[0].sym, s.One().runs[0].sym
	s.SetSymbolCap(4)
	hadSym := func(k int) *aob.Vector { return s.Had(k).runs[0].sym }
	fresh := func(k int) *aob.Vector {
		s.scratch.CopyFrom(aob.HadVector(6, k))
		return s.intern()
	}
	check := func(step string, symbols int, resets uint64) {
		t.Helper()
		if s.SymbolCount() != symbols || s.Resets() != resets {
			t.Fatalf("%s: SymbolCount %d Resets %d, want %d and %d",
				step, s.SymbolCount(), s.Resets(), symbols, resets)
		}
		if s.Zero().runs[0].sym != zero || s.One().runs[0].sym != one {
			t.Fatalf("%s: zero/one symbols no longer shared", step)
		}
	}

	h3 := hadSym(3)
	hadSym(4)
	check("had3 had4", 4, 0)
	h5 := hadSym(5) // fifth symbol: reset to zero, one, had5
	check("had5", 3, 1)
	if hadSym(5) != h5 || fresh(5) != h5 {
		t.Fatal("Had(5) after the reset is not the table's symbol")
	}
	got := hadSym(3)
	check("had3 after reset", 4, 1)
	if got == h3 {
		t.Fatal("Had(3) returned the symbol cached before the reset")
	}
	if fresh(3) != got {
		t.Fatal("Had(3) is not pointer-equal to interning a fresh Had vector")
	}
	hadSym(4) // reset again: zero, one, had4
	check("had4 after reset", 3, 2)
	if fresh(4) != hadSym(4) {
		t.Fatal("Had(4) after the second reset is not the table's symbol")
	}
	if hadSym(3) == got {
		t.Fatal("Had(3) survived the second reset in the cache")
	}
}

// TestAdoptedScratchNeverRewritten holds every symbol a long op sequence
// mints, with a copy of its content, and checks none changes afterwards.
func TestAdoptedScratchNeverRewritten(t *testing.T) {
	s := MustSpace(10, 6)
	r := rand.New(rand.NewSource(99))
	held := map[*aob.Vector]*aob.Vector{}
	hold := func(p *Pattern) {
		for _, ru := range p.runs {
			if ru.sym == s.scratch {
				t.Fatal("a pattern references the scratch vector")
			}
			if _, ok := held[ru.sym]; !ok {
				held[ru.sym] = ru.sym.Clone()
			}
		}
	}
	random := func() *Pattern {
		v := aob.New(10)
		for i := 0; i < v.NumWords(); i++ {
			v.SetWord(i, r.Uint64()&r.Uint64())
		}
		p, err := s.FromDense(v)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := random()
	hold(p)
	for step := 0; step < 400; step++ {
		q := random()
		if step%3 == 0 {
			q = s.Had(r.Intn(10))
		}
		hold(q)
		switch step % 4 {
		case 0:
			p = p.And(q)
		case 1:
			p = p.Or(q)
		case 2:
			p = p.Xor(q)
		case 3:
			p = p.Not()
		}
		hold(p)
	}
	for sym, want := range held {
		if !sym.Equal(want) {
			t.Fatal("an interned symbol was rewritten after adoption")
		}
	}
}

// bytesPerRun reports the heap bytes one call of f allocates, averaged.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestInternHitAllocs pins the zero-allocation hit path at the hardware
// chunk size, where one chunk is 8 KiB: a warm Had(k) and an And of a
// memoized chunk pair allocate only the Pattern and its run slice.
func TestInternHitAllocs(t *testing.T) {
	s := MustSpace(20, 16)
	chunkBytes := uint64(aob.New(16).NumWords() * 8)
	for k := 0; k < 16; k++ {
		s.Had(k)
	}
	had := func() { s.Had(9) }
	x, y := s.Had(3), s.Had(19)
	x.And(y)
	and := func() { x.And(y) }
	for _, c := range []struct {
		name string
		f    func()
	}{{"Had", had}, {"And", and}} {
		if a := testing.AllocsPerRun(100, c.f); a > 2 {
			t.Errorf("%s: %.1f allocations per call, want at most 2 (Pattern, runs)", c.name, a)
		}
		if b := bytesPerRun(100, c.f); b >= chunkBytes {
			t.Errorf("%s: %d bytes per call, a chunk is %d", c.name, b, chunkBytes)
		}
	}
}
