package cluster

// Routing-key derivation: the coordinator keys each run on the same memo
// ExecKey the worker will compute, so a repeated program consistently lands
// on the node whose cache already holds the entry. The derivation shares
// the worker's helpers — RunRequest.StepBudget clamps the budget,
// RunRequest.PipelineConfig builds the pipelined organization, and
// memo.ExecKey.SetQat keys the canonical Qat config as farm.jobKey does —
// with one deliberate divergence: a backend:"auto" request is keyed under a
// router-only pseudo-backend instead of being planned here. Planning needs
// the per-node profile and memo probe; the router only needs *stability*
// (same request → same node), and the chosen node's own planner then
// resolves and memoizes it.

import (
	"tangled/internal/asm"
	"tangled/internal/backend"
	"tangled/internal/memo"
	"tangled/internal/qat"
	"tangled/internal/server"
)

// routeAutoBackend marks backend:"auto" route keys. Worker memo keys only
// ever use 0 (dense) and 1 (run-encoded), so the marker cannot collide
// with a real entry's key — it exists purely to give auto requests their
// own stable ring position.
const routeAutoBackend = 0xFF

// RouteKey derives the consistent-hash coordinate for one run request.
// ok=false means the request has no stable execution identity here — it
// fails validation, or its source doesn't assemble — and should fall back
// to least-in-flight routing (the worker then owns the error report).
func RouteKey(req *server.RunRequest) (uint64, bool) {
	if err := req.Validate(); err != nil {
		return 0, false
	}
	var words []uint16
	if req.Src != "" {
		p, err := asm.Assemble(req.Src)
		if err != nil {
			return 0, false
		}
		words = p.Words
	} else {
		words = req.Words
	}
	// Clamp against the default ceiling. A worker running with a custom
	// -max-steps may key under a different budget than we route on; that
	// costs locality for over-budget requests, never correctness.
	ek := memo.ExecKey{MaxSteps: req.StepBudget(0), Words: words}
	if req.Mode == "pipelined" {
		ek.Pipelined = true
		ek.Pipeline = req.PipelineConfig()
		return ek.Sum().Uint64(), true
	}
	if req.Backend == backend.Auto {
		ek.Backend = routeAutoBackend
		ek.Ways = req.Ways
		ek.ConstantRegs = req.ConstRegs
		return ek.Sum().Uint64(), true
	}
	cfg, err := backend.Canonicalize(qat.Config{Ways: req.Ways, ConstantRegs: req.ConstRegs,
		Backend: req.Backend, ChunkWays: req.ChunkWays, SpillRuns: req.SpillRuns})
	if err != nil {
		return 0, false
	}
	ek.SetQat(cfg)
	return ek.Sum().Uint64(), true
}
