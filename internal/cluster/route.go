package cluster

// Routing-key derivation: the coordinator keys each run on the same memo
// key the worker will compute, so a repeated program consistently lands on
// the node whose cache already holds the entry. The derivation is the
// worker's own — RunRequest.Validate, RunRequest.FarmJob and farm.ExecKey —
// with one deliberate divergence: a backend:"auto" request is not planned
// here, and farm.ExecKey keys it under the auto name itself. Planning
// needs the per-node profile and memo probe; the router only needs
// *stability* (same request → same node), and the chosen node's own
// planner then resolves and memoizes it.

import (
	"tangled/internal/farm"
	"tangled/internal/server"
)

// RouteKey derives the consistent-hash coordinate for one run request.
// ok=false means the request has no stable execution identity here — it
// fails validation, or its source doesn't assemble — and should fall back
// to least-in-flight routing (the worker then owns the error report).
func RouteKey(req *server.RunRequest) (uint64, bool) {
	if err := req.Validate(); err != nil {
		return 0, false
	}
	prog, err := req.Program()
	if err != nil {
		return 0, false
	}
	// Clamp against the default ceiling. A worker running with a custom
	// -max-steps may key under a different budget than we route on; that
	// costs locality for over-budget requests, never correctness.
	job := req.FarmJob(req.ID, prog, 0)
	return farm.ExecKey(&job, prog, job.MaxSteps).Sum().Uint64(), true
}
