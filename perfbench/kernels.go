package main

import (
	"fmt"
	"time"

	"tangled/internal/aob"
)

// aobSink keeps kernel results alive so the calls are not optimized away.
var aobSink uint64

// aobKernel is one aob.Vector kernel call; i varies the argument.
type aobKernel struct {
	name string
	call func(v, a, b *aob.Vector, i int)
}

var aobKernelSet = []aobKernel{
	{"and", func(v, a, b *aob.Vector, _ int) { v.And(a, b) }},
	{"xor", func(v, a, b *aob.Vector, _ int) { v.Xor(a, b) }},
	{"cnot", func(v, a, _ *aob.Vector, _ int) { v.CNot(a) }},
	{"ccnot", func(v, a, b *aob.Vector, _ int) { v.CCNot(a, b) }},
	{"had", func(v, _, _ *aob.Vector, i int) { v.Had(i % v.Ways()) }},
	// Next from channel 0 of a vector whose first set channel is the
	// middle one scans half the vector.
	{"next", func(_, a, _ *aob.Vector, _ int) { aobSink += a.Next(0) }},
	{"pop", func(v, _, _ *aob.Vector, _ int) { aobSink += v.Pop() }},
}

var aobWidths = []int{8, 12, 16}

const (
	aobReps   = 5
	aobTarget = 4 * time.Millisecond // length of one timed repetition
)

// aobKernels times every kernel at 8, 12 and 16 ways: the median over
// repetitions of ns per call, with one span around each repetition (a span
// per call would cost more than the smaller kernels).
func aobKernels(tr *tracer) map[string]float64 {
	out := map[string]float64{}
	for _, w := range aobWidths {
		for _, k := range aobKernelSet {
			a := aob.HadVector(w, w-1)
			b := aob.HadVector(w, 0)
			v := aob.HadVector(w, 1)
			n := 1
			for {
				start := time.Now()
				for i := 0; i < n; i++ {
					k.call(v, a, b, i)
				}
				if time.Since(start) >= aobTarget/4 {
					n = int(float64(n) * float64(aobTarget) / float64(time.Since(start)+1))
					break
				}
				n *= 4
			}
			n = max(n, 1)
			var reps []float64
			for r := 0; r < aobReps; r++ {
				id, start := tr.begin()
				for i := 0; i < n; i++ {
					k.call(v, a, b, i)
				}
				d := time.Since(start)
				tr.end(id, 0, "aob."+k.name, "aob", fmt.Sprintf("w%d n=%d", w, n), start)
				reps = append(reps, float64(d.Nanoseconds())/float64(n))
			}
			out[fmt.Sprintf("aob.%s_ns.w%d", k.name, w)] = medianF(reps)
		}
	}
	return out
}
