package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"tangled/internal/asm"
	"tangled/internal/backend"
	"tangled/internal/cluster"
	"tangled/internal/cpu"
	"tangled/internal/farm"
	"tangled/internal/memo"
	"tangled/internal/obs"
	"tangled/internal/pipeline"
	"tangled/internal/qasm"
	"tangled/internal/qat"
	"tangled/internal/server"
)

// The server's internal layers cannot be wrapped from outside internal/,
// so the traced run's layer spans come from a replay: after the traced
// phase, the benchmark calls each layer's public function on the same
// request, in the order a worker's handler calls them, on an engine built
// like a worker's (memo and metrics on). Joined by request ID with the
// handler spans of the traced phase, they split the handler's time into
// the layers and a residual (coalescer wait, admission, codec).

// replayer mirrors one worker.
type replayer struct {
	tr     *tracer
	eng    *farm.Engine
	routed bool
}

func newReplayer(tr *tracer, routed bool) *replayer {
	reg := obs.NewRegistry()
	eng := farm.New(0)
	eng.SetObs(farm.NewObs(reg))
	cache := memo.New(memo.DefaultCap)
	cache.SetObs(memo.NewObs(reg))
	eng.SetMemo(cache)
	return &replayer{tr: tr, eng: eng, routed: routed}
}

// prime executes the hot set, as the workers did during setup.
func (rp *replayer) prime(ctx context.Context, in *inputs) error {
	for h := range in.hot {
		for _, auto := range []bool{false, true} {
			p := in.hotProgram(h, auto)
			prog, err := asm.Assemble(p.req.Src)
			if err != nil {
				return fmt.Errorf("hot program %d: %w", h, err)
			}
			job := farmJob(p.req, "prime", prog)
			if rs, _ := rp.eng.Run(ctx, []farm.Job{job}); rs[0].Err != nil {
				return fmt.Errorf("hot program %d: %w", h, rs[0].Err)
			}
		}
	}
	return nil
}

// replay runs every completed op of the traced phase, with as many
// goroutines as the phase had clients so the farm sees the same overlap.
func (rp *replayer) replay(ctx context.Context, cfg *config, in *inputs, ph *phase) {
	parallel(cfg.clients, len(ph.recs), func(i int) {
		rec := ph.recs[i]
		if rec.err != "" {
			return
		}
		o := cfg.w.op(in, rec.index)
		rp.replayOp(ctx, &o, rec)
	})
}

// replayOp makes the calls a handler makes for op o: decode, route key
// (routed fleets), assemble, plan (auto), memo key and probe per program,
// then one farm run over the misses.
func (rp *replayer) replayOp(ctx context.Context, o *op, rec *opRecord) {
	tr := rp.tr
	root, rootStart := tr.begin()
	var misses []farm.Job
	var modes []string
	for j := range o.progs {
		id := o.progID(j)
		req := o.progs[j].req
		req.ID = id
		body, _ := json.Marshal(&req)
		served := servedResult(rec, j)

		s, t := tr.begin()
		var dec server.RunRequest
		derr := json.Unmarshal(body, &dec)
		json.Marshal(served)
		tr.end(s, root, "server.codec", o.id, "", t)
		if derr != nil {
			continue
		}
		if rp.routed {
			s, t = tr.begin()
			cluster.RouteKey(&dec)
			tr.end(s, root, "cluster.RouteKey", o.id, "", t)
		}
		s, t = tr.begin()
		prog, err := asm.Assemble(dec.Src)
		words := 0
		if err == nil {
			words = len(prog.Words)
		}
		tr.end(s, root, "asm.Assemble", o.id, strconv.Itoa(words), t)
		if err != nil {
			continue
		}
		job := farmJob(dec, id, prog)
		if dec.Backend == backend.Auto {
			probe := func(c qat.Config) bool {
				pj := job
				pj.Ways, pj.ConstantRegs = c.Ways, c.ConstantRegs
				pj.Backend, pj.REChunkWays, pj.RESpillRuns = c.Backend, c.ChunkWays, c.SpillRuns
				_, hit := rp.eng.MemoProbe(&pj)
				return hit
			}
			s, t = tr.begin()
			plan, err := backend.PlanAuto(prog, qat.Config{Ways: job.Ways, ConstantRegs: job.ConstantRegs, Backend: backend.Auto}, probe)
			tr.end(s, root, "backend.PlanAuto", o.id, "", t)
			if err == nil {
				job.Backend, job.REChunkWays, job.RESpillRuns = plan.Config.Backend, plan.Config.ChunkWays, plan.Config.SpillRuns
			}
		}
		s, t = tr.begin()
		rp.eng.MemoKey(&job)
		tr.end(s, root, "memo.MemoKey", o.id, "", t)
		s, t = tr.begin()
		_, hit := rp.eng.MemoProbe(&job)
		tr.end(s, root, "memo.MemoProbe", o.id, strconv.FormatBool(hit), t)
		if !hit {
			misses = append(misses, job)
			modes = append(modes, modeOf(&job))
		}
	}
	if len(misses) > 0 {
		s, t := tr.begin()
		_, starts, ends := runTimed(ctx, rp.eng, misses)
		tr.end(s, root, "farm.Run", o.id, "", t)
		for k := range misses {
			id, _ := tr.begin()
			tr.record(id, s, "farm.job", o.id, modes[k], starts[k], ends[k])
		}
	}
	tr.end(root, 0, "replay.op", o.id, "", rootStart)
}

// runTimed runs jobs on eng and returns, per job, when it started and
// ended. farm.Result.Duration cannot serve: it always reads zero (runJob
// sets it in a deferred call after its unnamed result was copied). So an
// Inspect hook notes each job's end on its worker, and each start follows
// from the engine's dispatch order: W workers take jobs in index order, a
// worker taking the next job as soon as its previous one ends, so job k
// (k >= W) starts at the (k-W+1)th end. An Inspect hook bypasses the memo,
// which changes nothing here: replayed and reference runs never repeat a
// program.
func runTimed(ctx context.Context, eng *farm.Engine, jobs []farm.Job) ([]farm.Result, []time.Time, []time.Time) {
	ends := make([]time.Time, len(jobs))
	for k := range jobs {
		jobs[k].Inspect = func(*cpu.Machine) { ends[k] = time.Now() }
	}
	start := time.Now()
	rs, _ := eng.Run(ctx, jobs)
	for k := range ends {
		if ends[k].IsZero() { // failed before running
			ends[k] = start
		}
	}
	sorted := append([]time.Time(nil), ends...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Before(sorted[b]) })
	w := min(eng.Workers(), len(jobs))
	starts := make([]time.Time, len(jobs))
	for k := range starts {
		starts[k] = start
		if k >= w {
			starts[k] = sorted[k-w]
		}
	}
	return rs, starts, ends
}

// servedResult is what the fleet returned for program j of rec.
func servedResult(rec *opRecord, j int) *server.RunResult {
	if rec.job != nil {
		return rec.job.Result
	}
	if j < len(rec.results) {
		return &rec.results[j]
	}
	return nil
}

// farmJob maps a request to the farm job a worker builds for it.
func farmJob(req server.RunRequest, id string, prog *asm.Program) farm.Job {
	steps := req.MaxSteps
	if steps == 0 || steps > qasm.MaxSteps {
		steps = qasm.MaxSteps
	}
	job := farm.Job{Name: id, Prog: prog, MaxSteps: steps}
	if req.Mode == "pipelined" {
		cfg := pipeline.DefaultConfig()
		if req.Stages != 0 {
			cfg.Stages = req.Stages
		}
		if req.Ways != 0 {
			cfg.Ways = req.Ways
		}
		cfg.ConstantRegs = req.ConstRegs
		job.Mode, job.Pipeline = farm.Pipelined, cfg
		return job
	}
	job.Mode = farm.Functional
	job.Ways, job.ConstantRegs = req.Ways, req.ConstRegs
	job.Backend, job.REChunkWays, job.RESpillRuns = req.Backend, req.ChunkWays, req.SpillRuns
	return job
}

// modeOf names the machine a job runs on: dense, re or pipelined.
func modeOf(j *farm.Job) string {
	switch {
	case j.Mode == farm.Pipelined:
		return "pipelined"
	case j.Backend == qat.BackendRE:
		return "re"
	default:
		return "dense"
	}
}
