package server

// The wire-level differential lens extended to the RE backend: the shared
// random corpus submitted over HTTP with backend "re" must come back
// byte-identical to direct dense in-process execution. Divergence here is
// either a serving-layer bug or an RE-backend bug; either way the corpus
// program is attached.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"tangled/internal/backend"
	"tangled/internal/farm/farmtest"
	"tangled/internal/pipeline"
	"tangled/internal/qasm"
	"tangled/internal/qat"
)

func TestDifferentialHTTPREBackend(t *testing.T) {
	srcs := make([]string, farmtest.Programs)
	for i := range srcs {
		srcs[i] = farmtest.Generate(farmtest.Seed(i))
	}
	direct, _, err := qasm.RunFunctionalBatch(context.Background(), srcs, farmtest.Ways, 0)
	if err != nil {
		t.Fatal(err)
	}

	_, base := startTestServer(t, Config{BatchMax: 32})
	req := BatchRequest{ID: "re-diff", Programs: make([]RunRequest, len(srcs))}
	for i, src := range srcs {
		req.Programs[i] = RunRequest{Src: src, Ways: farmtest.Ways, Backend: "re"}
		if i%2 == 1 {
			// Odd programs get real run structure and a tight spill budget, so
			// both representation regimes see half the corpus.
			req.Programs[i].ChunkWays = farmtest.Ways / 2
			req.Programs[i].SpillRuns = 1
		}
	}
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 8<<20)
	if !sc.Scan() {
		t.Fatal("no header")
	}
	var hdr ResultsHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Count != len(srcs) {
		t.Fatalf("header count %d, want %d", hdr.Count, len(srcs))
	}
	n := 0
	for sc.Scan() {
		var r RunResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if r.Error != "" {
			t.Fatalf("program %d failed on the re backend: %s\n%s", n, r.Error, srcs[n])
		}
		d := direct[n]
		if r.Regs != d.Regs || r.Output != d.Output || r.Insts != d.Insts {
			t.Fatalf("program %d diverged on the re backend:\nre:    regs=%v output=%q insts=%d\ndense: regs=%v output=%q insts=%d\n%s",
				n, r.Regs, r.Output, r.Insts, d.Regs, d.Output, d.Insts, srcs[n])
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(srcs) {
		t.Fatalf("stream delivered %d of %d results", n, len(srcs))
	}
}

// TestREBackendValidation pins the 400-level refusals of the new request
// fields: unknown backends, dense runs carrying RE tuning knobs, and
// out-of-range geometry. Pipelined RE runs are accepted like functional
// ones: the pipeline builds its register file through the same registry.
func TestREBackendValidation(t *testing.T) {
	cases := []RunRequest{
		{Src: "sys", Backend: "zstd"},
		{Src: "sys", ChunkWays: 4},                         // dense + RE knob
		{Src: "sys", SpillRuns: 8},                         // dense + RE knob
		{Src: "sys", Backend: "re", Ways: 25},              // above MaxREWays
		{Src: "sys", Backend: "re", Ways: 8, ChunkWays: 9}, // chunk > ways
		{Src: "sys", Backend: "re", ChunkWays: 17},         // chunk > dense wall
		{Src: "sys", Ways: 17},                             // dense above the wall
	}
	_, base := startTestServer(t, Config{})
	for i, rq := range cases {
		body, err := json.Marshal(&rq)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d (%+v): status %d, want 400", i, rq, resp.StatusCode)
		}
	}

	// And the happy path: RE runs, above the dense wall too, are accepted
	// in both modes.
	for _, rq := range []RunRequest{
		{Src: "sys", Backend: "re", Ways: 20},
		{Src: "sys", Backend: "re", Mode: "pipelined"},
		{Src: "sys", Backend: "re", Mode: "pipelined", Ways: 20, ChunkWays: 4},
	} {
		body, _ := json.Marshal(&rq)
		resp, err := http.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status %d, want 200", rq, resp.StatusCode)
		}
	}
}

// TestValidateAgreesWithRegistry sweeps the backend/geometry grid and
// requires RunRequest.Validate to accept exactly when the server's own
// spelling rules pass and the backend registry accepts the configuration.
// Auto is exempt from the width ceiling: a width past every backend is the
// planner's 422, not a validation error.
func TestValidateAgreesWithRegistry(t *testing.T) {
	for _, b := range []string{"", qat.BackendDense, qat.BackendRE, backend.Auto, "bogus"} {
		for _, ways := range []int{-1, 0, 8, 16, 17, 24, 25} {
			for _, chunk := range []int{-1, 0, 4, 16, 17} {
				for _, spill := range []int{-1, 0, 8} {
					for _, mode := range []string{"functional", "pipelined"} {
						req := RunRequest{Src: "sys", Mode: mode, Backend: b,
							Ways: ways, ChunkWays: chunk, SpillRuns: spill}
						spelled := b == qat.BackendRE || (chunk == 0 && spill == 0)
						cfg := qat.Config{Backend: b, Ways: ways, ChunkWays: chunk, SpillRuns: spill}
						_, cerr := backend.Canonicalize(cfg)
						if b == backend.Auto {
							// Some registered driver must accept the
							// request with the width held to its ceiling.
							for _, name := range backend.Names() {
								d, _ := backend.Lookup(name)
								cfg.Backend, cfg.Ways = name, min(ways, d.MaxWays())
								if _, cerr = backend.Canonicalize(cfg); cerr == nil {
									break
								}
							}
						}
						want := spelled && cerr == nil
						if got := req.Validate() == nil; got != want {
							t.Errorf("%+v: Validate accepts=%v, want %v (spelling ok=%v, registry: %v)",
								req, got, want, spelled, cerr)
						}
					}
				}
			}
		}
	}
}

// TestDifferentialHTTPPipelinedREBackend is the pipelined RE gate over the
// wire: the corpus submitted as pipelined "re" runs, at 4 and 5 stages,
// 6, 12 and 16 ways, default and 4-way chunks, must come back with the
// registers, output, instructions, cycles and stalls of direct pipelined
// dense execution, reporting the backend that served it.
func TestDifferentialHTTPPipelinedREBackend(t *testing.T) {
	srcs := make([]string, farmtest.Programs)
	for i := range srcs {
		srcs[i] = farmtest.Generate(farmtest.Seed(i))
	}
	_, base := startTestServer(t, Config{BatchMax: 32})
	for _, stages := range []int{4, 5} {
		for _, ways := range []int{6, 12, 16} {
			cfg := pipeline.DefaultConfig()
			cfg.Stages, cfg.Ways = stages, ways
			direct, _, err := qasm.RunPipelinedBatch(context.Background(), srcs, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int{0, 4} {
				req := BatchRequest{ID: fmt.Sprintf("pipe-re-%d-%d-%d", stages, ways, chunk),
					Programs: make([]RunRequest, len(srcs))}
				for i, src := range srcs {
					req.Programs[i] = RunRequest{Src: src, Mode: "pipelined", Stages: stages,
						Ways: ways, Backend: qat.BackendRE, ChunkWays: chunk}
				}
				for n, r := range postBatch(t, base, req) {
					d := direct[n]
					if r.Error != "" || r.Backend != qat.BackendRE {
						t.Fatalf("%s program %d: backend %q error %q\n%s", req.ID, n, r.Backend, r.Error, srcs[n])
					}
					if r.Regs != d.Regs || r.Output != d.Output || r.Insts != d.Insts ||
						r.Cycles != d.Pipe.Cycles || r.Stalls != d.Pipe.TotalStalls() {
						t.Fatalf("%s program %d diverged:\nre:    regs=%v output=%q insts=%d cycles=%d stalls=%d\ndense: regs=%v output=%q insts=%d cycles=%d stalls=%d\n%s",
							req.ID, n, r.Regs, r.Output, r.Insts, r.Cycles, r.Stalls,
							d.Regs, d.Output, d.Insts, d.Pipe.Cycles, d.Pipe.TotalStalls(), srcs[n])
					}
				}
			}
		}
	}
}
