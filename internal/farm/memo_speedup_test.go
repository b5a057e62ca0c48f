package farm_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tangled/internal/asm"
	"tangled/internal/compile"
	"tangled/internal/farm"
	"tangled/internal/memo"
)

// TestMemoRepeatSpeedup gates the execution cache's reason to exist on a
// serving fleet's steady state: a hot set of programs resubmitted over and
// over. The mix is 20 distinct 12-way subset-sum searches, each submitted
// 10 times per 200-job batch (90% repeats), on the functional machine. A
// cached batch gets a fresh memo.New(0), so it pays exactly 20 misses that
// execute and 180 hits that replay. One worker keeps the ratio about
// execute-vs-replay cost rather than how the CPUs are shared with the rest
// of the test run; off and on batches alternate and each side keeps its
// fastest batch, so a loaded runner slows both sides alike instead of
// flaking the ratio. On a 2-CPU Xeon VM the cache reads 4.1-4.7x.
func TestMemoRepeatSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts the execute-vs-replay cost ratio")
	}
	const (
		ways       = 12
		distinct   = 20
		repeats    = 10
		rounds     = 10
		minSpeedup = 3.0
	)
	items := []uint64{3, 5, 9, 14, 20, 27, 33, 41, 52, 60, 71, 85}
	progs := make([]*asm.Program, distinct)
	for i := range progs {
		art, err := compile.SubsetSumProgram(items, uint64(40+i), ways, compile.Options{Reuse: true})
		if err != nil {
			t.Fatal(err)
		}
		if progs[i], err = asm.Assemble(art.Asm); err != nil {
			t.Fatal(err)
		}
	}
	// Identical jobs are spread across the batch, not back to back.
	jobs := make([]farm.Job, distinct*repeats)
	for i := range jobs {
		jobs[i] = farm.Job{Name: fmt.Sprintf("mix-%d", i), Prog: progs[i%distinct], Mode: farm.Functional, Ways: ways}
	}

	engine := farm.New(1)
	run := func(cache *memo.Cache) farm.Stats {
		engine.SetMemo(cache)
		_, st := engine.Run(context.Background(), jobs)
		if st.Errors > 0 {
			t.Fatalf("batch had %d failures", st.Errors)
		}
		return st
	}
	bestOff, bestOn := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < rounds; r++ {
		bestOff = min(bestOff, run(nil).Wall)
		on := run(memo.New(0))
		if want := uint64(len(jobs) - distinct); on.MemoHits != want {
			t.Fatalf("cached batch: %d memo hits, want %d", on.MemoHits, want)
		}
		bestOn = min(bestOn, on.Wall)
	}
	jobsPerSec := func(d time.Duration) float64 { return float64(len(jobs)) / d.Seconds() }
	speedup := jobsPerSec(bestOn) / jobsPerSec(bestOff)
	t.Logf("%d jobs/batch, %d workers: memo off %.0f jobs/s, on %.0f jobs/s, speedup %.1fx",
		len(jobs), engine.Workers(), jobsPerSec(bestOff), jobsPerSec(bestOn), speedup)
	if speedup < minSpeedup {
		t.Errorf("memo speedup %.2fx on a 90%%-repeat mix, want >= %.0fx", speedup, minSpeedup)
	}
}
