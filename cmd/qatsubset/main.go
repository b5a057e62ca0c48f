// qatsubset compiles and runs a subset-sum search on the simulated
// Tangled/Qat hardware: every subset of the weights is explored in one
// entangled superposition, and the solution count plus first solution come
// back through the pop/next measurement instructions.
//
// Usage:
//
//	qatsubset [-ways N] [-asm] target w1 w2 w3 ...
//
// Example:
//
//	qatsubset 100 3 34 4 12 5 2 17 29 8 21 6 11 41 9 14 7
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
	ways := flag.Int("ways", 0, "entanglement degree (default: number of items)")
	showAsm := flag.Bool("asm", false, "print the generated assembly and exit")
	stages := flag.Int("stages", 5, "pipeline depth (4 or 5)")
	flag.Parse()
	if flag.NArg() < 2 {
		fmt.Fprintln(os.Stderr, "usage: qatsubset [flags] target w1 w2 ...")
		os.Exit(2)
	}
	target, err := strconv.ParseUint(flag.Arg(0), 0, 32)
	if err != nil {
		fatal(fmt.Errorf("bad target %q", flag.Arg(0)))
	}
	var weights []uint64
	for _, arg := range flag.Args()[1:] {
		w, err := strconv.ParseUint(arg, 0, 32)
		if err != nil || w == 0 {
			fatal(fmt.Errorf("bad weight %q", arg))
		}
		weights = append(weights, w)
	}
	w := *ways
	if w == 0 {
		w = len(weights)
	}

	res, err := compile.SubsetSumProgram(weights, target, w, compile.Options{Reuse: true})
	if err != nil {
		fatal(err)
	}
	if *showAsm {
		fmt.Print(res.Asm)
		return
	}
	cfg := pipeline.Config{Config: qat.Config{Ways: w}, Stages: *stages, Forwarding: true,
		MulLatency: 1, QatNextLatency: 1}
	run, err := qasm.RunPipelined(res.Asm, cfg)
	if err != nil {
		fatal(err)
	}
	count := uint64(run.Regs[2])
	fmt.Printf("solutions: %d of %d subsets\n", count, uint64(1)<<uint(len(weights)))
	if count == 0 {
		return
	}
	first := uint64(run.Regs[1])
	if first == 0 && run.Regs[4] == 1 {
		fmt.Println("first solution: the empty subset")
	} else {
		var parts []uint64
		var sum uint64
		for i, wt := range weights {
			if first>>uint(i)&1 == 1 {
				parts = append(parts, wt)
				sum += wt
			}
		}
		fmt.Printf("first solution: mask %#x = %v (sum %d)\n", first, parts, sum)
	}
	fmt.Printf("%d Qat instructions, %d registers; %d pipeline cycles (CPI %.3f)\n",
		res.QatInsts, res.RegsUsed, run.Pipe.Cycles, run.Pipe.CPI())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qatsubset:", err)
	os.Exit(1)
}
