package farm_test

// The differential harness extended to the RE backend: the same seeded
// corpus (internal/farm/farmtest) executed through the farm on the
// run-encoded register file — at several chunk/spill geometries — must
// reproduce the functional reference bit-for-bit: registers, output,
// retired instructions, and the full memory + Qat state digest. This is the
// acceptance gate for promoting internal/re from a library to an execution
// backend.

import (
	"fmt"
	"strings"
	"testing"

	"tangled/internal/asm"
	"tangled/internal/cpu"
	"tangled/internal/farm"
	"tangled/internal/farm/farmtest"
	"tangled/internal/pipeline"
	"tangled/internal/qat"
)

// TestDifferentialREBackend runs every corpus program on the RE backend and
// compares against the functional reference. The chunk/spill geometry is
// varied with the corpus index so full-width chunks, multi-run patterns,
// and the spill path all see the whole corpus over a run.
func TestDifferentialREBackend(t *testing.T) {
	engine := farm.New(0)
	for i := 0; i < diffPrograms; i++ {
		src := farmtest.Generate(farmtest.Seed(i))
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("program %d does not assemble: %v\n%s", i, err, src)
		}
		ref := runReference(t, prog)

		// Three geometries: full-width chunks (single-run symbols), halved
		// chunks (real run structure), and halved chunks with a spill budget
		// of one (the spill path on almost every write).
		jobs := []farm.Job{
			{Name: "re-full", Prog: prog, Mode: farm.Functional, Ways: diffWays,
				Backend: "re"},
			{Name: "re-chunked", Prog: prog, Mode: farm.Functional, Ways: diffWays,
				Backend: "re", REChunkWays: diffWays / 2, RESpillRuns: -1},
			{Name: "re-spill", Prog: prog, Mode: farm.Functional, Ways: diffWays,
				Backend: "re", REChunkWays: diffWays / 2, RESpillRuns: 1},
		}
		digests := make([]uint64, len(jobs))
		for k := range jobs {
			k := k
			jobs[k].Inspect = func(m *cpu.Machine) { digests[k] = machineDigest(m) }
		}
		results, _ := engine.Run(nil, jobs)
		for k, res := range results {
			if res.Err != nil {
				t.Fatalf("program %d, %s: %v\n%s", i, res.Name, res.Err, src)
			}
			if res.Regs != ref.regs {
				t.Fatalf("program %d: %s regs %v != functional %v\n%s", i, res.Name, res.Regs, ref.regs, src)
			}
			if res.Output != ref.output {
				t.Fatalf("program %d: %s output %q != functional %q\n%s", i, res.Name, res.Output, ref.output, src)
			}
			if res.Insts != ref.insts {
				t.Fatalf("program %d: %s retired %d != functional %d\n%s", i, res.Name, res.Insts, ref.insts, src)
			}
			if digests[k] != ref.digest {
				t.Fatalf("program %d: %s memory/Qat state diverged from functional\n%s", i, res.Name, src)
			}
		}
	}
}

// pipeGrid lists the pipelined RE acceptance grid over one corpus program:
// 4 and 5 stages at 6, 12 and 16 ways, each as a dense job followed by RE
// jobs at the default chunk and at 4-way chunks.
func pipeGrid(prog *asm.Program) []farm.Job {
	var jobs []farm.Job
	for _, stages := range []int{4, 5} {
		for _, ways := range []int{6, 12, 16} {
			cfg := pipeline.DefaultConfig()
			cfg.Stages, cfg.Ways = stages, ways
			for _, geom := range []struct {
				backend string
				chunk   int
			}{{qat.BackendDense, 0}, {qat.BackendRE, 0}, {qat.BackendRE, 4}} {
				c := cfg
				c.Backend, c.ChunkWays = geom.backend, geom.chunk
				jobs = append(jobs, farm.Job{
					Name: fmt.Sprintf("%s/stages=%d/ways=%d/chunk=%d", geom.backend, stages, ways, geom.chunk),
					Prog: prog, Mode: farm.Pipelined, Pipeline: c, MaxSteps: diffBudget,
				})
			}
		}
	}
	return jobs
}

// TestDifferentialPipelinedREBackend is the pipelined RE acceptance gate:
// cycle counts are architectural, so every corpus program run pipelined on
// the RE register file must match the same pipeline on the dense file in
// registers, output, retired instructions and the full cycle accounting
// (cycles and every stall and flush counter). Each job's machine is
// inspected, so a register file other than the one named cannot pass.
func TestDifferentialPipelinedREBackend(t *testing.T) {
	engine := farm.New(0)
	for i := 0; i < diffPrograms; i++ {
		src := farmtest.Generate(farmtest.Seed(i))
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("program %d does not assemble: %v\n%s", i, err, src)
		}
		jobs := pipeGrid(prog)
		built := make([]string, len(jobs))
		for k := range jobs {
			jobs[k].Inspect = func(m *cpu.Machine) { built[k] = m.Qat.Backend() }
		}
		results, _ := engine.Run(nil, jobs)
		var dense farm.Result
		for k, res := range results {
			if res.Err != nil {
				t.Fatalf("program %d, %s: %v\n%s", i, res.Name, res.Err, src)
			}
			if want := strings.SplitN(res.Name, "/", 2)[0]; res.Backend != want || built[k] != want {
				t.Fatalf("program %d, %s: reported %q, built %q", i, res.Name, res.Backend, built[k])
			}
			if res.Backend == qat.BackendDense {
				dense = res
				continue
			}
			if res.Regs != dense.Regs || res.Output != dense.Output || res.Insts != dense.Insts {
				t.Fatalf("program %d: %s regs=%v output=%q insts=%d, %s regs=%v output=%q insts=%d\n%s",
					i, res.Name, res.Regs, res.Output, res.Insts, dense.Name, dense.Regs, dense.Output, dense.Insts, src)
			}
			if *res.Pipe != *dense.Pipe {
				t.Fatalf("program %d: %s stats %+v != %s stats %+v\n%s", i, res.Name, *res.Pipe, dense.Name, *dense.Pipe, src)
			}
		}
	}
}

// TestPipelinedREBeyondDense runs the corpus pipelined on RE at 20 ways, a
// width no dense machine holds, against functional RE at the same width.
func TestPipelinedREBeyondDense(t *testing.T) {
	const ways = 20
	engine := farm.New(0)
	cfg := pipeline.DefaultConfig()
	cfg.Ways, cfg.Backend = ways, qat.BackendRE
	for i := 0; i < diffPrograms; i++ {
		src := farmtest.Generate(farmtest.Seed(i))
		results, _ := engine.Run(nil, []farm.Job{
			{Name: "functional", Src: src, Ways: ways, Backend: qat.BackendRE, MaxSteps: diffBudget},
			{Name: "pipelined", Src: src, Mode: farm.Pipelined, Pipeline: cfg, MaxSteps: diffBudget},
		})
		fn, pipe := results[0], results[1]
		if fn.Err != nil || pipe.Err != nil {
			t.Fatalf("program %d: functional err=%v, pipelined err=%v\n%s", i, fn.Err, pipe.Err, src)
		}
		if pipe.Regs != fn.Regs || pipe.Output != fn.Output || pipe.Insts != fn.Insts {
			t.Fatalf("program %d: pipelined regs=%v output=%q insts=%d, functional regs=%v output=%q insts=%d\n%s",
				i, pipe.Regs, pipe.Output, pipe.Insts, fn.Regs, fn.Output, fn.Insts, src)
		}
		if pipe.Backend != qat.BackendRE {
			t.Fatalf("program %d: pipelined run served by %q", i, pipe.Backend)
		}
	}
}
