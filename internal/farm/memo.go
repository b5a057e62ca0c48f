package farm

// Memoization hook-up: the engine can carry a content-addressed execution
// cache (internal/memo) consulted by every worker before running a job.
// Qat execution is deterministic and every job starts from the same
// zero-initialized machine state (cpu.Machine.Load), so a job's outcome is
// a pure function of (mode, machine configuration, step budget, program
// words) — exactly what memo.ExecKey hashes. Workers that miss execute and
// populate the cache; identical jobs running concurrently collapse onto one
// execution through the cache's singleflight.
//
// Two kinds of jobs must see a real machine and therefore bypass the cache:
// jobs with an Inspect hook (they observe post-run machine state) and
// pipelined jobs while a trace ring is attached (their value is the
// cycle-by-cycle rows, which a cache hit would not emit). Job.NoMemo is the
// caller-controlled opt-out for everything else.

import (
	"tangled/internal/asm"
	"tangled/internal/memo"
)

// SetMemo attaches (or with nil detaches) the engine-wide execution cache.
// Safe to call concurrently with Run; jobs pick up the value current when
// they start.
func (e *Engine) SetMemo(c *memo.Cache) { e.memo.Store(c) }

// Memo returns the engine-wide cache, nil when disabled.
func (e *Engine) Memo() *memo.Cache { return e.memo.Load() }

// jobCache resolves the cache a job should consult: the engine's, or nil
// when there is none or the job must execute for real (NoMemo, Inspect,
// pipelined trace capture).
func (e *Engine) jobCache(j *Job, o *Obs) *memo.Cache {
	c := e.memo.Load()
	if c == nil || j.NoMemo || j.Inspect != nil {
		return nil
	}
	if j.Mode == Pipelined && o != nil && o.Trace != nil {
		return nil
	}
	return c
}

// ExecKey describes j's execution for memo keying, over its resolved
// program and step budget. It keys the canonical machine config
// (Job.canonicalConfig), so equivalent spellings in either mode hash
// identically; invalid configs still key consistently on their spelling,
// and the execution path reports their error. It is the one keying
// function: the engine keys every job through it, and the cluster router
// keys requests through it so a route key is the worker's memo key. An
// unresolved backend.Auto job keys under the auto name itself, apart from
// every executable identity — the engine never keys one (it resolves
// first); the router uses it as a stable ring position.
func ExecKey(j *Job, prog *asm.Program, maxSteps uint64) memo.ExecKey {
	cfg, _ := j.canonicalConfig()
	return memo.ExecKey{Pipelined: j.Mode == Pipelined, Machine: cfg, MaxSteps: maxSteps, Words: prog.Words}
}

// keyFor resolves j's identity through the prelude (storing the assembled
// program back into j.Prog, so a subsequent real run does not re-assemble)
// and returns its cache and content address. ok is false when the job
// bypasses the cache or the prelude fails; such failures surface through
// the normal execution path.
func (e *Engine) keyFor(j *Job) (c *memo.Cache, k memo.Key, ok bool) {
	o := e.currentObs()
	if c = e.jobCache(j, o); c == nil {
		return nil, k, false
	}
	// An auto job must resolve to a concrete backend before keying: a key
	// over the unresolved pseudo-name would alias the dense spelling. The
	// resolution is sticky (written back into j) so a subsequent real run
	// executes exactly the identity keyed here.
	prog, maxSteps, _, err := e.prepare(j, o)
	if err != nil {
		return nil, k, false
	}
	j.Prog = prog
	return c, ExecKey(j, prog, maxSteps).Sum(), true
}

// MemoKey exposes j's content address to serving layers that need to
// populate the cache under the job's *original* identity while executing
// a rewritten image (the optimize-at-admission path: the memo key must
// stay the submitted program so later submissions of the same source hit,
// whatever the optimizer did to the executed words). Returns false when
// the job would bypass the cache (NoMemo, Inspect, traced pipelined runs,
// no cache attached) or its identity cannot be resolved; when j carries
// source it is assembled and stored back into j.Prog, like MemoProbe.
func (e *Engine) MemoKey(j *Job) (memo.Key, bool) {
	_, k, ok := e.keyFor(j)
	return k, ok
}

// MemoProbe checks whether j's result is already cached, without executing
// anything or touching the worker pool. On a hit it returns the finished
// Result (Cached set, Job index zero — the caller owns placement). Serving
// layers call this before admission control so cache hits never consume an
// admission slot or batching latency. When j carries source, the probe
// assembles it and stores the program back into j.Prog; assembly and
// planner failures report as a miss and surface through the run path.
func (e *Engine) MemoProbe(j *Job) (Result, bool) {
	c, k, ok := e.keyFor(j)
	if !ok {
		return Result{}, false
	}
	ent, ok := c.Get(k)
	if !ok {
		return Result{}, false
	}
	return Result{
		Name:    j.Name,
		Regs:    ent.Regs,
		Output:  ent.Output,
		Insts:   ent.Insts,
		Pipe:    ent.Pipe,
		Err:     ent.Err,
		Cached:  true,
		Backend: j.servedBackend(),
	}, true
}
