package opt_test

// The differential proof of the optimizer: every program in the shared
// 200-program corpus (internal/farm/farmtest) is optimized and then executed
// optimized-vs-unoptimized on the functional reference machine, the 4-stage
// pipeline, the 5-stage pipeline, and the run-length-compressed RE backend —
// all through the farm engine, the same path the server uses. The observable
// outcome (final Tangled register file and sys output) must be byte-identical
// on every backend. Programs the optimizer refuses must come back verbatim.
//
// Retired instruction counts and cycle counts are NOT compared: shrinking the
// program is the point. Both sides halt within the corpus budget because the
// optimized program retires at most as many instructions as the original.

import (
	"testing"

	"tangled/internal/asm"
	"tangled/internal/farm"
	"tangled/internal/farm/farmtest"
	"tangled/internal/opt"
	"tangled/internal/pipeline"
	"tangled/internal/qat"
)

// diffBackends builds the four-backend job set for one program.
func diffBackends(name string, prog *asm.Program) []farm.Job {
	p4 := pipeline.Config{Config: qat.Config{Ways: farmtest.Ways}, Stages: 4, Forwarding: true, MulLatency: 1, QatNextLatency: 1}
	p5 := pipeline.Config{Config: qat.Config{Ways: farmtest.Ways}, Stages: 5, Forwarding: true, MulLatency: 1, QatNextLatency: 1}
	return []farm.Job{
		{Name: name + "/functional", Prog: prog, Mode: farm.Functional, Ways: farmtest.Ways, MaxSteps: farmtest.Budget},
		{Name: name + "/pipe4", Prog: prog, Mode: farm.Pipelined, Pipeline: p4, MaxSteps: farmtest.Budget},
		{Name: name + "/pipe5", Prog: prog, Mode: farm.Pipelined, Pipeline: p5, MaxSteps: farmtest.Budget},
		{Name: name + "/re", Prog: prog, Mode: farm.Functional, Ways: farmtest.Ways,
			Backend: qat.BackendRE, MaxSteps: farmtest.Budget},
	}
}

// TestDifferentialCorpus is the optimizer's main correctness gate.
func TestDifferentialCorpus(t *testing.T) {
	engine := farm.New(0)
	applied, refused, savedWords := 0, 0, 0
	reasons := map[string]int{}

	for i := 0; i < farmtest.Programs; i++ {
		src := farmtest.Generate(farmtest.Seed(i))
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("program %d does not assemble: %v", i, err)
		}
		optProg, rep := opt.Optimize(prog, opt.Options{Ways: farmtest.Ways})
		if !rep.Applied {
			refused++
			reasons[rep.Reason]++
			if optProg != prog {
				t.Fatalf("program %d: refused (%s) but not returned verbatim", i, rep.Reason)
			}
			continue
		}
		applied++
		savedWords += rep.WordsBefore - rep.WordsAfter
		if len(optProg.Words) > len(prog.Words) {
			t.Fatalf("program %d: optimizer grew the program %d -> %d words",
				i, len(prog.Words), len(optProg.Words))
		}

		jobs := append(diffBackends("orig", prog), diffBackends("opt", optProg)...)
		results, _ := engine.Run(nil, jobs)
		for _, res := range results {
			if res.Err != nil {
				t.Fatalf("program %d, %s: %v\n%s", i, res.Name, res.Err, src)
			}
		}
		for b := 0; b < 4; b++ {
			o, q := results[b], results[b+4]
			if o.Regs != q.Regs {
				t.Fatalf("program %d, %s: registers diverge\n  original:  %v\n  optimized: %v\nreport: %+v\nsource:\n%s",
					i, o.Name, o.Regs, q.Regs, rep, src)
			}
			if o.Output != q.Output {
				t.Fatalf("program %d, %s: output diverges\n  original:  %q\n  optimized: %q\nsource:\n%s",
					i, o.Name, o.Output, q.Output, src)
			}
			if q.Insts > o.Insts {
				t.Fatalf("program %d, %s: optimized retired MORE instructions (%d > %d)",
					i, o.Name, q.Insts, o.Insts)
			}
		}
	}

	t.Logf("corpus: %d applied, %d refused (%v), %d words saved", applied, refused, reasons, savedWords)
	if applied == 0 {
		t.Fatal("optimizer accepted nothing from the corpus: the acceptance conditions are vacuous")
	}
	if savedWords == 0 {
		t.Fatal("optimizer saved nothing across the corpus: the passes are vacuous")
	}
}

// TestCorpusIdempotence re-optimizes every accepted corpus program and
// requires a byte-identical image in zero rounds: the fixpoint is stable.
func TestCorpusIdempotence(t *testing.T) {
	for i := 0; i < farmtest.Programs; i++ {
		prog, err := asm.Assemble(farmtest.Generate(farmtest.Seed(i)))
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		q1, rep1 := opt.Optimize(prog, opt.Options{Ways: farmtest.Ways})
		if !rep1.Applied {
			continue
		}
		q2, rep2 := opt.Optimize(q1, opt.Options{Ways: farmtest.Ways})
		if !rep2.Applied {
			t.Fatalf("program %d: re-optimization refused: %s", i, rep2.Reason)
		}
		if rep2.Rounds != 0 || len(q2.Words) != len(q1.Words) {
			t.Fatalf("program %d: not a fixpoint: %d rounds, %d -> %d words",
				i, rep2.Rounds, len(q1.Words), len(q2.Words))
		}
		for j := range q1.Words {
			if q2.Words[j] != q1.Words[j] {
				t.Fatalf("program %d: word %d differs on re-optimization", i, j)
			}
		}
	}
}
