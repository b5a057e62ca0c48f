package opt_test

import (
	"context"
	"testing"

	"tangled/internal/asm"
	"tangled/internal/farm"
	"tangled/internal/opt"
)

// shrinkExamples are peephole-rich programs, dense in the patterns the
// passes target: overwritten stores, foldable constant chains, cancelling
// Qat inverters and energy-redundant re-inits. Each is lint-clean,
// load-free (so the rewrite is provable) and halts.
var shrinkExamples = []struct{ name, src string }{
	{"dead-stores", `
	lex	$1, 11
	lex	$2, 22
	lex	$3, 33
	lex	$1, 1
	lex	$2, 2
	lex	$3, 3
	add	$1, $2
	add	$1, $3
	lex	$0, 1
	sys
	lex	$0, 0
	sys
`},
	{"const-chain", `
	lex	$4, 7
	lhi	$4, 0
	copy	$5, $4
	add	$5, $4
	mul	$5, $4
	lex	$6, 0
	add	$5, $6
	lex	$0, 1
	sys
	lex	$0, 0
	sys
`},
	{"qat-not-pairs", `
	one	@1
	not	@2
	not	@2
	cnot	@3, @1
	not	@4
	not	@4
	xor	@5, @1, @3
	pop	$1, @5
	pop	$2, @3
	lex	$0, 0
	sys
`},
	{"energy-reinit", `
	zero	@1
	zero	@2
	one	@3
	one	@3
	cnot	@4, @1
	ccnot	@5, @3, @3
	swap	@6, @7
	pop	$2, @5
	pop	$3, @3
	lex	$0, 0
	sys
`},
	{"mixed-loop", `
	lex	$1, 3
	lex	$5, -1
	lex	$7, 99
	lex	$7, 1
	not	$8
	not	$8
loop:	add	$2, $1
	add	$1, $5
	brt	$1, loop
	lex	$0, 0
	sys
`},
}

// TestExamplesShrink gates the recompiler's reason to exist: on the
// peephole-rich examples it must remove at least 5% of the static
// instructions on average and save switched bits in the static energy
// model, each rewrite first shown to run to the same registers and sys
// output as its original on the functional farm path. The figures are
// deterministic (46.5% mean reduction and 3072 switched bits today), so
// the bounds catch passes that silently stop firing, not noise.
func TestExamplesShrink(t *testing.T) {
	const ways, minMeanPct = 8, 5.0
	engine := farm.New(0)
	var sumPct float64
	var switchedSaved uint64
	for _, ex := range shrinkExamples {
		prog, err := asm.Assemble(ex.src)
		if err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		optProg, rep := opt.Optimize(prog, opt.Options{Ways: ways})
		if !rep.Applied {
			t.Fatalf("%s: optimizer refused (%s)", ex.name, rep.Reason)
		}
		if rep.WordsBefore != len(prog.Words) || rep.WordsAfter != len(optProg.Words) {
			t.Fatalf("%s: report says %d -> %d words, programs have %d -> %d",
				ex.name, rep.WordsBefore, rep.WordsAfter, len(prog.Words), len(optProg.Words))
		}
		results, _ := engine.Run(context.Background(), []farm.Job{
			{Name: "orig", Prog: prog, Mode: farm.Functional, Ways: ways},
			{Name: "opt", Prog: optProg, Mode: farm.Functional, Ways: ways},
		})
		o, q := results[0], results[1]
		if o.Err != nil || q.Err != nil {
			t.Fatalf("%s: original err %v, optimized err %v", ex.name, o.Err, q.Err)
		}
		if o.Regs != q.Regs || o.Output != q.Output {
			t.Fatalf("%s: rewrite diverged: regs %v vs %v, output %q vs %q",
				ex.name, o.Regs, q.Regs, o.Output, q.Output)
		}
		pct := 100 * float64(rep.InstsBefore-rep.InstsAfter) / float64(rep.InstsBefore)
		sumPct += pct
		switchedSaved += rep.SwitchedBefore - rep.SwitchedAfter
		t.Logf("%-14s insts %2d -> %2d (%5.1f%%), words %2d -> %2d, switched -%d, erased -%d",
			ex.name, rep.InstsBefore, rep.InstsAfter, pct, rep.WordsBefore, rep.WordsAfter,
			rep.SwitchedBefore-rep.SwitchedAfter, rep.ErasedBefore-rep.ErasedAfter)
	}
	mean := sumPct / float64(len(shrinkExamples))
	t.Logf("mean instruction reduction %.1f%%, switched bits saved %d", mean, switchedSaved)
	if mean < minMeanPct {
		t.Errorf("mean instruction reduction %.1f%%, want >= %.0f%%", mean, minMeanPct)
	}
	if switchedSaved == 0 {
		t.Error("the examples saved no switched bits")
	}
}
