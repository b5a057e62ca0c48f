package cluster

import (
	"testing"

	"tangled/internal/farm/farmtest"
	"tangled/internal/qat"
	"tangled/internal/server"
)

// TestRouteKeyIsWorkerMemoKey pins memo-hot routing's premise over the
// 200-program corpus: the coordinator's route key is the memo key the
// worker computes for the job it builds from the same request, and
// equivalent spellings of one configuration share it.
func TestRouteKeyIsWorkerMemoKey(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	// Each group lists equivalent spellings; distinct groups are distinct
	// executions and must key apart.
	groups := [][]server.RunRequest{
		{{Ways: 0}, {Ways: 16}, {Backend: "dense"}, {Backend: "dense", Ways: 16}},
		{{Backend: "re"}, {Backend: "re", Ways: 16, ChunkWays: 16, SpillRuns: qat.DefaultSpillRuns}},
		{{Mode: "pipelined"}, {Mode: "pipelined", Stages: 5}, {Mode: "pipelined", Ways: 0},
			{Mode: "pipelined", Ways: 16}, {Mode: "pipelined", Backend: "dense", Ways: 16}},
		{{Mode: "pipelined", Stages: 4}},
		{{Mode: "pipelined", Backend: "re"}, {Mode: "pipelined", Backend: "re", Ways: 16,
			ChunkWays: 16, SpillRuns: qat.DefaultSpillRuns}},
		{{Mode: "pipelined", Backend: "re", Ways: 20}, {Mode: "pipelined", Backend: "re", Ways: 20,
			ChunkWays: 16, SpillRuns: -1}},
	}
	for i := 0; i < farmtest.Programs; i++ {
		src := farmtest.Generate(farmtest.Seed(i))
		seen := map[uint64]int{}
		for g, spellings := range groups {
			for _, req := range spellings {
				req.Src = src
				rk, ok := RouteKey(&req)
				if !ok {
					t.Fatalf("program %d %+v: not keyed", i, req)
				}
				prog, err := req.Program()
				if err != nil {
					t.Fatal(err)
				}
				job := req.FarmJob(req.ID, prog, 0)
				mk, ok := srv.Engine().MemoKey(&job)
				if !ok {
					t.Fatalf("program %d %+v: worker has no memo key", i, req)
				}
				if rk != mk.Uint64() {
					t.Fatalf("program %d %+v: route key %x, worker memo key %x", i, req, rk, mk.Uint64())
				}
				if prev, dup := seen[rk]; dup && prev != g {
					t.Fatalf("program %d: groups %d and %d share key %x", i, prev, g, rk)
				}
				seen[rk] = g
			}
		}
		if len(seen) != len(groups) {
			t.Fatalf("program %d: %d distinct keys over %d spelling groups", i, len(seen), len(groups))
		}
	}
}

// TestCoordinatorSetsHeaderTimeouts pins that the coordinator's listener
// cuts clients that dribble their headers or idle on keep-alive (the cut
// itself is exercised in internal/obs, which builds the http.Server).
func TestCoordinatorSetsHeaderTimeouts(t *testing.T) {
	_, base := startWorker(t, server.Config{})
	co, _ := startCoordinator(t, Config{Nodes: []string{base}})
	if co.httpSrv.ReadHeaderTimeout <= 0 || co.httpSrv.IdleTimeout <= 0 {
		t.Fatalf("header timeout %v, idle timeout %v: both must be set",
			co.httpSrv.ReadHeaderTimeout, co.httpSrv.IdleTimeout)
	}
}
