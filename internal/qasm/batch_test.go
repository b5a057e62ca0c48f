package qasm

import (
	"context"
	"strings"
	"testing"

	"tangled/internal/compile"
	"tangled/internal/pipeline"
	"tangled/internal/qat"
)

func TestRunFunctionalBatch(t *testing.T) {
	srcs := []string{
		"lex $0,1\nlex $1,11\nsys\nlex $0,0\nsys\n",
		"lex $0,1\nlex $1,22\nsys\nlex $0,0\nsys\n",
		"lex $0,1\nlex $1,33\nsys\nlex $0,0\nsys\n",
	}
	results, stats, err := RunFunctionalBatch(context.Background(), srcs, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"11\n", "22\n", "33\n"} {
		if results[i] == nil || results[i].Output != want {
			t.Fatalf("result %d = %+v, want output %q", i, results[i], want)
		}
	}
	if stats.Jobs != 3 || stats.Errors != 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestRunPipelinedBatchReportsPerJobErrors(t *testing.T) {
	srcs := []string{
		"lex $0,1\nlex $1,7\nsys\nlex $0,0\nsys\n",
		"bogus $9\n", // does not assemble
	}
	cfg := pipeline.Config{Config: qat.Config{Ways: 4}, Stages: 4, Forwarding: true, MulLatency: 1, QatNextLatency: 1}
	results, stats, err := RunPipelinedBatch(context.Background(), srcs, cfg, 2)
	if err == nil {
		t.Fatal("expected a joined error for the malformed program")
	}
	if results[0] == nil || results[0].Output != "7\n" || results[0].Pipe == nil {
		t.Fatalf("good program result: %+v", results[0])
	}
	if results[1] != nil {
		t.Fatalf("failed program should leave a nil slot, got %+v", results[1])
	}
	if stats.Errors != 1 {
		t.Fatalf("stats.Errors = %d, want 1", stats.Errors)
	}
}

func TestFactorBatch(t *testing.T) {
	ns := []uint64{15, 21, 35}
	pcfg := pipeline.Config{Config: qat.Config{Ways: 12}, Stages: 5, Forwarding: true, MulLatency: 1, QatNextLatency: 1}
	reports, stats, err := FactorBatch(context.Background(), ns, 6, 6, compile.Options{Reuse: true}, pcfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range ns {
		rep := reports[i]
		if rep == nil {
			t.Fatalf("no report for %d", n)
		}
		if p, q := uint64(rep.Factors[0]), uint64(rep.Factors[1]); p*q != n || p == 1 || q == 1 {
			t.Fatalf("%d factored as %d x %d", n, p, q)
		}
		if rep.Result == nil || rep.Result.Pipe == nil || rep.Result.Pipe.Cycles == 0 {
			t.Fatalf("%d: missing pipeline accounting: %+v", n, rep.Result)
		}
	}
	if stats.Jobs != 3 || stats.Errors != 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestFactorBatchReportsGenerationErrors(t *testing.T) {
	// 255 does not fit the 6-bit first operand; 15 still succeeds.
	ns := []uint64{255, 15}
	pcfg := pipeline.Config{Config: qat.Config{Ways: 12}, Stages: 4, Forwarding: true, MulLatency: 1, QatNextLatency: 1}
	reports, _, err := FactorBatch(context.Background(), ns, 6, 6, compile.Options{Reuse: true}, pcfg, 1)
	if err == nil || !strings.Contains(err.Error(), "255") {
		t.Fatalf("expected a generation error naming 255, got %v", err)
	}
	if reports[0] != nil {
		t.Fatalf("failed slot should be nil, got %+v", reports[0])
	}
	if reports[1] == nil || uint64(reports[1].Factors[0])*uint64(reports[1].Factors[1]) != 15 {
		t.Fatalf("15 should still factor: %+v", reports[1])
	}
}
