package aob

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestKernelsBeatChannelLoop gates the PBP premise the register file rests
// on: a Qat gate on an E-way register is NumWords word-parallel operations,
// not 2^E per-channel steps. At 16 ways (1024 words, 65536 channels) every
// channel-parallel kernel must run at least minRatio times faster than the
// channel-at-a-time model of reference_test.go on the same operands, after
// first agreeing with it. On a 2-CPU Xeon VM the weakest kernels (Not, Pop,
// PopAfter) read 40-60x and And ~600x, so the bound leaves room for a loaded
// runner while a kernel that fell back to per-channel work fails it.
//
// Next and All are checked for correctness only (by the reference tests):
// both stop at the first channel that decides them, so on random operands
// the channel loop exits nearly as early as the kernel (1.1-1.6x) and a
// ratio would gate on the input rather than the kernel.
func TestKernelsBeatChannelLoop(t *testing.T) {
	const ways, minRatio = 16, 2.0
	r := rand.New(rand.NewSource(ways))
	a, b, c := randVector(r, ways), randVector(r, ways), randVector(r, ways)
	ma, mb, mc := modelOf(a), modelOf(b), modelOf(c)
	dst, md := New(ways), make(model, a.Channels())
	probe := a.Channels() / 3

	// Each kernel/ref pair returns its reduction result, or 0 for the gate
	// ops, whose result is the state of dst/md.
	kernels := []struct {
		name        string
		kernel, ref func() uint64
	}{
		{"And", func() uint64 { dst.And(a, b); return 0 }, func() uint64 { md.and(ma, mb); return 0 }},
		{"Or", func() uint64 { dst.Or(a, b); return 0 }, func() uint64 { md.or(ma, mb); return 0 }},
		{"Xor", func() uint64 { dst.Xor(a, b); return 0 }, func() uint64 { md.xor(ma, mb); return 0 }},
		{"Not", func() uint64 { dst.Not(); return 0 }, func() uint64 { md.not(); return 0 }},
		{"CNot", func() uint64 { dst.CNot(a); return 0 }, func() uint64 { md.cnot(ma); return 0 }},
		{"CCNot", func() uint64 { dst.CCNot(b, c); return 0 }, func() uint64 { md.ccnot(mb, mc); return 0 }},
		{"Had", func() uint64 { dst.Had(ways - 1); return 0 }, func() uint64 { md.had(ways - 1); return 0 }},
		{"Pop", a.Pop, ma.pop},
		{"PopAfter", func() uint64 { return a.PopAfter(probe) }, func() uint64 { return ma.popAfter(probe) }},
	}
	for _, k := range kernels {
		dst.CopyFrom(c)
		copy(md, mc)
		if got, want := k.kernel(), k.ref(); got != want || !md.equal(dst) {
			t.Fatalf("%s at %d ways disagrees with the channel model", k.name, ways)
		}
		kernelNs, refNs := fastestNs(k.kernel), fastestNs(k.ref)
		ratio := refNs / kernelNs
		t.Logf("%-8s w%d  kernel %9.1f ns  channel loop %11.1f ns  %7.1fx", k.name, ways, kernelNs, refNs, ratio)
		if ratio < minRatio {
			t.Errorf("%s at %d ways is only %.2fx the channel loop, want >= %.0fx", k.name, ways, ratio, minRatio)
		}
	}
}

// fastestNs returns f's best per-call time over several rounds, so a
// preempted round cannot drag the figure down.
func fastestNs(f func() uint64) float64 {
	const rounds, calls = 7, 4
	best := math.Inf(1)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		for j := 0; j < calls; j++ {
			f()
		}
		best = math.Min(best, float64(time.Since(start).Nanoseconds())/calls)
	}
	return best
}
