package main

import (
	"context"
	"fmt"
	"time"

	"tangled/internal/asm"
	"tangled/internal/farm"
	"tangled/internal/farm/farmtest"
	"tangled/internal/server"
)

// checker compares every served result, after the timed phases, with the
// same program run directly on a farm engine with memo off.
type checker struct {
	eng    *farm.Engine
	in     *inputs
	refs   map[string]*farm.Result
	factor map[uint64][2]uint16 // dense factors of each modulus

	mismatches int
	failures   []string

	// Per machine model ("dense", "re", "pipelined"), over every reference
	// execution: jobs, heap allocations, execution time, instructions and
	// cycles.
	jobs, allocs, insts, cycles map[string]uint64
	exec                        map[string]time.Duration
	// Assembly allocations, measured serially over distinct sources when
	// wantAsm is set.
	wantAsm                bool
	asmAllocs, asmPrograms uint64
}

func newChecker(workers int, in *inputs) *checker {
	return &checker{
		eng: farm.New(workers), in: in,
		refs: map[string]*farm.Result{}, factor: map[uint64][2]uint16{},
		jobs: map[string]uint64{}, allocs: map[string]uint64{}, insts: map[string]uint64{},
		cycles: map[string]uint64{}, exec: map[string]time.Duration{},
	}
}

func refKey(r *server.RunRequest) string {
	return fmt.Sprintf("%s|%d|%s|%d|%d|%d|%t\n%s", r.Mode, r.Ways, r.Backend, r.Stages, r.MaxSteps, r.ChunkWays, r.ConstRegs, r.Src)
}

// reference runs each distinct program of progs once, grouped by machine
// model so allocations per job can be read per model.
func (ck *checker) reference(ctx context.Context, progs []server.RunRequest) {
	groups := map[string][]farm.Job{}
	keys := map[string][]string{}
	var order []string
	for i := range progs {
		k := refKey(&progs[i])
		if _, ok := ck.refs[k]; ok {
			continue
		}
		prog, err := asm.Assemble(progs[i].Src)
		if err != nil {
			ck.refs[k] = &farm.Result{Err: err}
			continue
		}
		job := farmJob(progs[i], "ref", prog)
		m := modeOf(&job)
		if _, ok := groups[m]; !ok {
			order = append(order, m)
		}
		ck.refs[k] = nil // claimed
		groups[m] = append(groups[m], job)
		keys[m] = append(keys[m], k)
	}
	const chunk = 64
	for _, m := range order {
		g := groups[m]
		for off := 0; off < len(g); off += chunk {
			part := g[off:min(off+chunk, len(g))]
			a0 := allocObjects()
			rs, starts, ends := runTimed(ctx, ck.eng, part)
			ck.allocs[m] += allocObjects() - a0
			for i := range rs {
				r := rs[i]
				ck.refs[keys[m][off+i]] = &r
				ck.jobs[m]++
				ck.exec[m] += ends[i].Sub(starts[i])
				ck.insts[m] += r.Insts
				if r.Pipe != nil {
					ck.cycles[m] += r.Pipe.Cycles
				}
			}
		}
	}
}

// measureAsm assembles up to 256 of the phase's distinct sources serially
// and counts their heap allocations.
func (ck *checker) measureAsm(progs []server.RunRequest) {
	seen := map[string]bool{}
	for i := range progs {
		if len(seen) == 256 {
			break
		}
		if seen[progs[i].Src] {
			continue
		}
		seen[progs[i].Src] = true
		a0 := allocObjects()
		asm.Assemble(progs[i].Src)
		ck.asmAllocs += allocObjects() - a0
		ck.asmPrograms++
	}
}

// check verifies every op of ph: each result must equal the direct run's
// registers, output and counts; factoring results must multiply back to n
// and match the dense machine's factors; jobs must reach completed with
// that result. A mismatch fails the op.
func (ck *checker) check(ctx context.Context, w *workload, in *inputs, ph *phase) {
	var progs []server.RunRequest
	ops := make([]op, len(ph.recs))
	for i, rec := range ph.recs {
		ops[i] = w.op(in, rec.index)
		for _, p := range ops[i].progs {
			progs = append(progs, p.req)
		}
	}
	if ck.wantAsm && ck.asmPrograms == 0 {
		ck.measureAsm(progs)
	}
	ck.reference(ctx, progs)
	for i, rec := range ph.recs {
		if rec.err != "" {
			continue
		}
		o := &ops[i]
		if rec.job != nil && rec.job.State != "completed" {
			ck.fail(rec, fmt.Sprintf("op %s: job state %s (%s)", o.id, rec.job.State, rec.job.Reason))
			continue
		}
		for j := range o.progs {
			got := servedResult(rec, j)
			if got == nil {
				ck.fail(rec, fmt.Sprintf("op %s program %d: no result", o.id, j))
				continue
			}
			if msg := ck.compare(ctx, &o.progs[j], got); msg != "" {
				ck.fail(rec, fmt.Sprintf("op %s program %d: %s", o.id, j, msg))
			}
		}
	}
}

func (ck *checker) fail(rec *opRecord, msg string) {
	rec.checkFails++
	ck.mismatches++
	if len(ck.failures) < 20 {
		ck.failures = append(ck.failures, msg)
	}
}

func (ck *checker) compare(ctx context.Context, p *program, got *server.RunResult) string {
	ref := ck.refs[refKey(&p.req)]
	switch {
	case ref == nil:
		return "no reference run"
	case ref.Err != nil:
		return fmt.Sprintf("reference run failed: %v", ref.Err)
	case got.Error != "":
		return fmt.Sprintf("served error %q (code %d)", got.Error, got.Code)
	case got.Regs != ref.Regs:
		return fmt.Sprintf("registers %v, direct run %v", got.Regs, ref.Regs)
	case got.Output != ref.Output:
		return fmt.Sprintf("output %q, direct run %q", got.Output, ref.Output)
	case got.Insts != ref.Insts:
		return fmt.Sprintf("%d instructions, direct run %d", got.Insts, ref.Insts)
	case ref.Pipe != nil && got.Cycles != ref.Pipe.Cycles:
		return fmt.Sprintf("%d cycles, direct run %d", got.Cycles, ref.Pipe.Cycles)
	}
	if p.n == 0 {
		return ""
	}
	f := [2]uint16{got.Regs[4], got.Regs[1]}
	if uint64(f[0])*uint64(f[1]) != p.n {
		return fmt.Sprintf("factors %d x %d != %d", f[0], f[1], p.n)
	}
	want, err := ck.denseFactors(ctx, p.n)
	if err != nil {
		return err.Error()
	}
	if f != want {
		return fmt.Sprintf("factors %v, dense machine %v", f, want)
	}
	return ""
}

// denseFactors runs n's unprefixed factoring program on the functional
// dense machine at 16 ways.
func (ck *checker) denseFactors(ctx context.Context, n uint64) ([2]uint16, error) {
	if f, ok := ck.factor[n]; ok {
		return f, nil
	}
	prog, err := asm.Assemble(ck.in.factor[factorKey{n, 16}])
	if err != nil {
		return [2]uint16{}, fmt.Errorf("factor %d: %w", n, err)
	}
	rs, _ := ck.eng.Run(ctx, []farm.Job{farmJob(server.RunRequest{Ways: 16}, "dense", prog)})
	if rs[0].Err != nil {
		return [2]uint16{}, fmt.Errorf("factor %d on the dense machine: %w", n, rs[0].Err)
	}
	f := [2]uint16{rs[0].Regs[4], rs[0].Regs[1]}
	ck.factor[n] = f
	return f, nil
}

// The simulated counts of a fixed program set (the first 32 corpus
// programs, functional and 5-stage pipelined at 6 ways, and three Fig 10
// programs on the dense, pipelined and RE machines). They depend on the
// programs' semantics only, never on speed or seed, so a change that only
// makes the simulator faster leaves them exactly as pinned here.
const (
	wantInstsTotal  = 4636
	wantCyclesTotal = 4443
)

type invariants struct {
	insts, cycles, pipeInsts uint64
	err                      error
}

func (v invariants) cpi() float64 {
	if v.pipeInsts == 0 {
		return 0
	}
	return float64(v.cycles) / float64(v.pipeInsts)
}

func simInvariants(ctx context.Context) invariants {
	var reqs []server.RunRequest
	for i := 0; i < 32; i++ {
		src := farmtest.Generate(farmtest.Seed(i))
		reqs = append(reqs,
			server.RunRequest{Src: src, Ways: farmtest.Ways, MaxSteps: farmtest.Budget},
			server.RunRequest{Src: src, Mode: "pipelined", Stages: 5, Ways: farmtest.Ways, MaxSteps: farmtest.Budget})
	}
	var v invariants
	for _, n := range []uint64{15, 77, 221} {
		for _, r := range []server.RunRequest{{Ways: 16}, {Mode: "pipelined", Stages: 5, Ways: 16}, {Backend: "re", Ways: 20}} {
			src, err := factorSrc(n, r.Ways)
			if err != nil {
				v.err = err
				return v
			}
			r.Src = src
			reqs = append(reqs, r)
		}
	}
	var jobs []farm.Job
	for i := range reqs {
		prog, err := asm.Assemble(reqs[i].Src)
		if err != nil {
			v.err = fmt.Errorf("invariant program %d: %w", i, err)
			return v
		}
		jobs = append(jobs, farmJob(reqs[i], "invariant", prog))
	}
	rs, _ := farm.New(1).Run(ctx, jobs)
	for i := range rs {
		if rs[i].Err != nil {
			v.err = fmt.Errorf("invariant program %d: %w", i, rs[i].Err)
			return v
		}
		if rs[i].Pipe != nil {
			v.cycles += rs[i].Pipe.Cycles
			v.pipeInsts += rs[i].Insts
		} else {
			v.insts += rs[i].Insts
		}
	}
	if v.insts != wantInstsTotal || v.cycles != wantCyclesTotal {
		v.err = fmt.Errorf("cpu.insts_total %d (pinned %d), pipeline.cycles_total %d (pinned %d)",
			v.insts, wantInstsTotal, v.cycles, wantCyclesTotal)
	}
	return v
}
