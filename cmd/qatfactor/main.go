// qatfactor runs the complete Figure 10 toolchain for an arbitrary
// composite: it compiles a word-level factoring program to gate-level
// Tangled/Qat assembly, executes it on the cycle-accurate pipeline, and
// reports the factors with instruction/cycle accounting.
//
// Usage:
//
//	qatfactor [-ways N] [-abits N] [-bbits N] [-reuse] [-asm] n
//
// Examples:
//
//	qatfactor 15                  # the paper's scaled-down problem
//	qatfactor -reuse 221          # the original LCPC'20 problem
//	qatfactor -asm 15             # print the generated assembly
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"tangled/internal/compile"
	"tangled/internal/pipeline"
	"tangled/internal/qasm"
	"tangled/internal/qat"
)

func main() {
	ways := flag.Int("ways", 0, "entanglement degree (default abits+bbits)")
	aBits := flag.Int("abits", 0, "first operand bits (default: fit n)")
	bBits := flag.Int("bbits", 0, "second operand bits (default: abits)")
	reuse := flag.Bool("reuse", false, "recycle Qat registers (needed beyond ~5x5 bits)")
	constRegs := flag.Bool("const-regs", false, "use the Section 5 constant-register bank")
	reversible := flag.Bool("reversible", false, "restrict to reversible gates")
	showAsm := flag.Bool("asm", false, "print the generated assembly and exit")
	stages := flag.Int("stages", 5, "pipeline depth (4 or 5)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: qatfactor [flags] n")
		os.Exit(2)
	}
	n, err := strconv.ParseUint(flag.Arg(0), 0, 16)
	if err != nil || n < 4 {
		fatal(fmt.Errorf("bad n %q (need a composite >= 4)", flag.Arg(0)))
	}

	ab := *aBits
	if ab == 0 {
		for uint64(1)<<uint(ab) <= n {
			ab++
		}
	}
	bb := *bBits
	if bb == 0 {
		bb = ab
	}
	w := *ways
	if w == 0 {
		w = ab + bb
	}

	opts := compile.Options{Reuse: *reuse, ConstantRegs: *constRegs, Reversible: *reversible}
	if *showAsm {
		res, err := compile.FactorProgram(n, w, ab, bb, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Asm)
		return
	}

	cfg := pipeline.Config{
		Config: qat.Config{Ways: w}, Stages: *stages, Forwarding: true,
		MulLatency: 1, QatNextLatency: 1,
	}
	rep, err := qasm.Factor(n, ab, bb, opts, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d = %d x %d\n", n, rep.Factors[0], rep.Factors[1])
	fmt.Printf("gate-level Qat instructions: %d\n", rep.QatInsts)
	fmt.Printf("Qat registers used:          %d\n", rep.RegsUsed)
	if s := rep.Result.Pipe; s != nil {
		fmt.Printf("pipeline: %d cycles, %d retired, CPI %.3f\n", s.Cycles, s.Insts, s.CPI())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qatfactor:", err)
	os.Exit(1)
}
