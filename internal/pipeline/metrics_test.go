package pipeline

import (
	"fmt"
	"testing"

	"tangled/internal/asm"
	"tangled/internal/obs"
)

// TestCycleAllocFreeWithMetrics pins the instrumented clock's steady state
// at zero heap allocations per cycle: with metrics attached, Cycle must cost
// counter increments, not garbage. The loop mixes ALU, load/store, Qat and
// branch instructions so hazard detection, forwarding and flushes all run.
func TestCycleAllocFreeWithMetrics(t *testing.T) {
	prog, err := asm.Assemble(`
	lex $1,1
	lex $2,3
	lex $4,40
loop:	add $2,$1
	store $2,$4
	load $3,$4
	and @3,@1,@2
	next $3,@3
	copy $5,$3
	lhi $5,0
	neg $5
	brt $1,loop
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, stages := range []int{4, 5} {
		t.Run(fmt.Sprintf("%d-stage", stages), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Stages = stages
			cfg.Ways = 8
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.SetMetrics(NewMetrics(obs.NewRegistry()))
			if err := p.Load(prog); err != nil {
				t.Fatal(err)
			}
			cycle := func() {
				if done, err := p.Cycle(); done || err != nil {
					t.Fatalf("loop ended: done=%v err=%v", done, err)
				}
			}
			for i := 0; i < 100; i++ { // fill the pipeline
				cycle()
			}
			if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
				t.Errorf("%.2f allocations per Cycle with metrics on, want 0", allocs)
			}
			if p.Stats.Insts == 0 || p.Stats.BranchFlushes == 0 {
				t.Fatalf("fixture did not retire and branch: %+v", p.Stats)
			}
		})
	}
}
