package farm

// Auto-backend resolution: a Job may name backend.Auto instead of a
// concrete register file, and the farm resolves it here — before pool
// keys, memo keys, or machines exist — through the static planner
// (internal/backend), with a memo probe so a previously executed identity
// under either concrete backend wins over the static prediction. Every
// entry point that derives a job identity (runJob, Resolve, MemoProbe,
// MemoKey) resolves it through the one prelude, Engine.prepare, because a
// key computed on the unresolved pseudo-name would silently alias the
// dense spelling.

import (
	"tangled/internal/asm"
	"tangled/internal/backend"
	"tangled/internal/lint"
	"tangled/internal/qat"
)

// resolveAuto resolves the backend.Auto pseudo-backend in place on j,
// returning the static profile that drove the decision (nil when j did not
// ask for auto). Pipelined and functional jobs plan alike: the planner
// picks the register file, and the pipeline's timing is the same on every
// one. The planner may fail with backend.UnservableError when the
// requested width exceeds every backend; the profile rides on that error.
func (e *Engine) resolveAuto(j *Job, prog *asm.Program, maxSteps uint64, o *Obs) (*lint.Profile, error) {
	cfg := j.machineConfig()
	if cfg.Backend != backend.Auto {
		return nil, nil
	}
	var probe func(qat.Config) bool
	if cache := e.jobCache(j, o); cache != nil {
		probe = func(c qat.Config) bool {
			t := *j
			t.setQat(c)
			_, ok := cache.Get(ExecKey(&t, prog, maxSteps).Sum())
			return ok
		}
	}
	plan, err := backend.PlanAuto(prog,
		qat.Config{Ways: cfg.Ways, ConstantRegs: cfg.ConstantRegs, Backend: backend.Auto}, probe)
	if err != nil {
		return nil, err
	}
	// The plan is canonical; width is untouched by design (the planner only
	// picks the file the requested width runs on).
	j.setQat(plan.Config)
	return plan.Profile, nil
}
