package main

import (
	"fmt"
	"math/bits"
	"time"

	"tangled/internal/backend"
	"tangled/internal/compile"
	"tangled/internal/farm/farmtest"
	"tangled/internal/server"
)

// Every op is a pure function of (seed, op index): the untraced and traced
// phases, and two runs with one seed, send byte-identical requests, and the
// programs receive only these generated inputs.

type opKind uint8

const (
	opRun opKind = iota
	opBatch
	opJob
)

// progClass labels a program for the checks and the per-layer breakdown.
type progClass uint8

const (
	classMiss      progClass = iota // distinct corpus program: a memo miss
	classHot                        // hot-set corpus program, primed in setup
	classDense                      // factoring, functional dense at 16 ways
	classPipelined                  // factoring, 5-stage pipeline at 16 ways
	classRE                         // factoring, functional RE at 20 ways
)

type program struct {
	req   server.RunRequest
	class progClass
	n     uint64 // factoring modulus; 0 for corpus programs
}

type op struct {
	index int
	kind  opKind
	id    string
	progs []program
}

// progID is the request ID of program j of o, as the server derives it.
func (o *op) progID(j int) string {
	if o.kind == opBatch {
		return server.DeriveBatchProgramID(o.id, j)
	}
	return o.id
}

type fleetKind uint8

const (
	fleetSingle fleetKind = iota // one server
	fleetRouted                  // coordinator in front of three workers
	fleetJobs                    // one server with the durable job store
)

type workload struct {
	name  string
	why   string
	limit time.Duration // latency limit of slo_frac
	fleet fleetKind
	// clients is the sender count (-1: one per CPU). With rate 0 they run
	// a closed loop; with a rate they are paced to it (see runPhase).
	clients int
	rate    float64
	// op builds timed op i; warm builds the setup's warm-up ops, which
	// never share a program with a timed op.
	op   func(in *inputs, i int) op
	warm func(in *inputs, clients int) []op
}

var workloads = []*workload{
	{
		name:    "run-seq",
		why:     "one client, distinct /v1/run misses at 6 ways: per-request serving cost (coalescer, admission, codec, assembly)",
		limit:   10 * time.Millisecond,
		fleet:   fleetSingle,
		clients: 1,
		op:      func(in *inputs, i int) op { return in.corpusOp(opRun, i) },
		warm: func(in *inputs, _ int) []op {
			return in.warmCorpus(opRun, 32)
		},
	},
	{
		name:    "mix-routed",
		why:     "500 ops/s paced over one sender per CPU through a coordinator and 3 workers: memo hits, routing by memo key, forward hop, planner",
		limit:   10 * time.Millisecond,
		fleet:   fleetRouted,
		clients: -1,
		rate:    500,
		op:      (*inputs).mixOp,
		warm:    (*inputs).mixWarm,
	},
	{
		name:    "batch-sat",
		why:     "one client per CPU sending 16-program Fig 10 factoring batches at 16 and 20 ways: AoB kernels, machine models, assembly",
		limit:   100 * time.Millisecond,
		fleet:   fleetSingle,
		clients: -1,
		op:      (*inputs).factorOp,
		warm: func(in *inputs, clients int) []op {
			var ops []op
			for w := 0; w < 2*clients; w++ {
				o := in.factorOp(warmBase + w)
				o.id = fmt.Sprintf("w%d-%d", in.seed, w)
				ops = append(ops, o)
			}
			return ops
		},
	},
	{
		name:    "jobs-durable",
		why:     "one client submitting async jobs with an fsync'd WAL and watching the event stream: the jobs layer",
		limit:   100 * time.Millisecond,
		fleet:   fleetJobs,
		clients: 1,
		op:      func(in *inputs, i int) op { return in.corpusOp(opJob, i) },
		warm: func(in *inputs, _ int) []op {
			return in.warmCorpus(opJob, 16)
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	corpusPool = 1021 // base corpus programs per run (prime, see uniqueSrc)
	hotSet     = 64
	batchSize  = 16
	warmBase   = 1 << 26 // op index of the first warm-up op
	hotKey     = 3 << 30 // unique-prefix namespace of the hot set
)

// factorNs are the odd semiprimes in [15, 221] whose Fig 10 programs the
// factoring batches draw from; each runs with bitlen(n)-bit operands, so
// the operands span 4x4 to 8x8.
var factorNs = []uint64{
	15, 21, 33, 35, 39, 51, 55, 57, 65, 69, 77, 85, 87, 91, 93, 95,
	111, 115, 119, 123, 129, 133, 141, 143, 145, 155, 159, 161, 177,
	183, 185, 187, 201, 203, 205, 209, 213, 215, 217, 219, 221,
}

type factorKey struct {
	n    uint64
	ways int
}

// inputs holds the generated base programs of one run.
type inputs struct {
	seed   int64
	corpus []string
	hot    []string
	factor map[factorKey]string
}

func genInputs(w *workload, seed int64) (*inputs, error) {
	in := &inputs{seed: seed}
	if w.name == "batch-sat" {
		in.factor = map[factorKey]string{}
		for _, n := range factorNs {
			for _, ways := range []int{16, 20} {
				src, err := factorSrc(n, ways)
				if err != nil {
					return nil, err
				}
				in.factor[factorKey{n, ways}] = src
			}
		}
		return in, nil
	}
	in.corpus = make([]string, corpusPool)
	for j := range in.corpus {
		in.corpus[j] = farmtest.Generate(int64(mix(seed, uint64(j), 0xC0) >> 1))
	}
	in.hot = make([]string, hotSet)
	for h := range in.hot {
		in.hot[h] = uniqueSrc(hotKey+uint32(h), in.corpus[h])
	}
	return in, nil
}

// factorSrc is the Fig 10 factoring program for n at ways, with
// bitlen(n)-bit operands.
func factorSrc(n uint64, ways int) (string, error) {
	b := bits.Len64(n)
	fr, err := compile.FactorProgram(n, ways, b, b, compile.Options{Reuse: true})
	if err != nil {
		return "", fmt.Errorf("factor program n=%d ways=%d: %w", n, ways, err)
	}
	return fr.Asm, nil
}

// mix is SplitMix64 over (seed, a, b): the per-op random choices.
func mix(seed int64, a, b uint64) uint64 {
	z := uint64(seed) ^ a*0x9E3779B97F4A7C15 ^ b*0xD1B54A32D192ED03
	z += 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// uniqueSrc prefixes src with four instructions that load k into $12 and
// $13, registers neither the corpus generator nor the factoring compiler
// uses. Distinct k make distinct programs, so the memo always misses.
func uniqueSrc(k uint32, src string) string {
	return fmt.Sprintf("lex $12,%d\nlhi $12,%d\nlex $13,%d\nlhi $13,%d\n%s",
		int8(k), int8(k>>8), int8(k>>16), int8(k>>24), src)
}

// corpusProgram is distinct corpus program j of op i.
func (in *inputs) corpusProgram(i, j int) program {
	base := in.corpus[mix(in.seed, uint64(i), uint64(j))%corpusPool]
	return program{
		class: classMiss,
		req: server.RunRequest{
			Src:      uniqueSrc(uint32(i*batchSize+j), base),
			Ways:     farmtest.Ways,
			MaxSteps: farmtest.Budget,
		},
	}
}

func (in *inputs) hotProgram(h int, auto bool) program {
	p := program{class: classHot, req: server.RunRequest{
		Src: in.hot[h], Ways: farmtest.Ways, MaxSteps: farmtest.Budget,
	}}
	if auto {
		p.req.Backend = backend.Auto
	}
	return p
}

func (in *inputs) opID(i int) string { return fmt.Sprintf("s%d-%d", in.seed, i) }

func (in *inputs) corpusOp(kind opKind, i int) op {
	return op{index: i, kind: kind, id: in.opID(i), progs: []program{in.corpusProgram(i, 0)}}
}

func (in *inputs) warmCorpus(kind opKind, n int) []op {
	ops := make([]op, n)
	for w := range ops {
		ops[w] = in.corpusOp(kind, warmBase+w)
		ops[w].id = fmt.Sprintf("w%d-%d", in.seed, w)
	}
	return ops
}

// mixOp is op i of mix-routed: 60% hot runs, 10% hot runs with
// backend:"auto", 20% distinct runs, 10% batches of 4 hot and 4 distinct.
// Hits are fastest and misses wait for the coalescer, so p50 falls inside
// the plain hits and p90 inside the misses, away from a group boundary.
func (in *inputs) mixOp(i int) op {
	o := op{index: i, kind: opRun, id: in.opID(i)}
	u := mix(in.seed, uint64(i), 0xA1) % 100
	hot := int(mix(in.seed, uint64(i), 0xA2) % hotSet)
	switch {
	case u < 60:
		o.progs = []program{in.hotProgram(hot, false)}
	case u < 70:
		o.progs = []program{in.hotProgram(hot, true)}
	case u < 90:
		o.progs = []program{in.corpusProgram(i, 0)}
	default:
		o.kind = opBatch
		for j := 0; j < 8; j++ {
			if j%2 == 0 {
				o.progs = append(o.progs, in.hotProgram(int(mix(in.seed, uint64(i), uint64(j))%hotSet), false))
			} else {
				o.progs = append(o.progs, in.corpusProgram(i, j))
			}
		}
	}
	return o
}

// mixWarm primes the hot set, plain and auto, so it sits in the owning
// workers' memo before timing, then warms the miss and batch paths.
func (in *inputs) mixWarm(int) []op {
	var ops []op
	for h := 0; h < hotSet; h++ {
		for _, auto := range []bool{false, true} {
			ops = append(ops, op{kind: opRun, id: fmt.Sprintf("p%d-%d-%t", in.seed, h, auto),
				progs: []program{in.hotProgram(h, auto)}})
		}
	}
	for w, o := range in.warmCorpus(opRun, 24) {
		ops = append(ops, o)
		if w%6 == 0 {
			b := op{kind: opBatch, id: fmt.Sprintf("wb%d-%d", in.seed, w)}
			for j := 0; j < 8; j++ {
				b.progs = append(b.progs, in.corpusProgram(warmBase+1000+w, j))
			}
			ops = append(ops, b)
		}
	}
	return ops
}

// factorOp is op i of batch-sat: a batch of 16 distinct factoring
// programs, 8 dense at 16 ways, 4 pipelined (5 stages) at 16 ways and 4 RE
// at 20 ways, each with a unique prefix so the memo misses.
func (in *inputs) factorOp(i int) op {
	o := op{index: i, kind: opBatch, id: in.opID(i), progs: make([]program, batchSize)}
	for j := range o.progs {
		n := factorNs[mix(in.seed, uint64(i), uint64(j))%uint64(len(factorNs))]
		p := &o.progs[j]
		p.n = n
		switch {
		case j < 8:
			p.class = classDense
			p.req = server.RunRequest{Ways: 16}
		case j < 12:
			p.class = classPipelined
			p.req = server.RunRequest{Mode: "pipelined", Stages: 5, Ways: 16}
		default:
			p.class = classRE
			p.req = server.RunRequest{Backend: "re", Ways: 20}
		}
		ways := 16
		if p.class == classRE {
			ways = 20
		}
		p.req.Src = uniqueSrc(uint32(i*batchSize+j), in.factor[factorKey{n, ways}])
	}
	return o
}
