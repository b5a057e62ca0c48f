// Package tangled_test is the top-level benchmark harness: one benchmark
// per table and figure of the paper's presentation, as indexed in
// DESIGN.md. Each bench exercises the code path that reproduces that
// artifact and reports the figure-of-merit the paper discusses (CPI for
// the pipeline feasibility claims, gate-op counts for Figure 10,
// compression for Section 1.2, and so on).
//
// Run: go test -bench=. -benchmem .
package tangled_test

import (
	"fmt"
	"strings"
	"testing"

	"tangled/internal/aob"
	"tangled/internal/asm"
	"tangled/internal/backend"
	"tangled/internal/compile"
	"tangled/internal/core"
	"tangled/internal/cpu"
	"tangled/internal/energy"
	"tangled/internal/gates"
	"tangled/internal/pipeline"
	"tangled/internal/qasm"
	"tangled/internal/qat"
	"tangled/internal/re"
	"tangled/internal/rex"
)

// BenchmarkTable1TangledISA measures functional-simulator throughput over a
// loop touching every Table 1 instruction class (int ALU, float ALU,
// memory, control).
func BenchmarkTable1TangledISA(b *testing.B) {
	src := `
	loadi $1,200
	lex $2,-1
	lex $4,3
	float $4
	loop:
	copy $3,$1
	mul $3,$3
	shift $3,$2
	slt $5,$3
	xor $5,$3
	addf $4,$4
	recip $4
	loadi $6,0x4100
	store $3,$6
	load $7,$6
	add $1,$2
	brt $1,loop
	lex $0,0
	sys
	`
	prog, err := asm.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	m := cpu.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Load(prog); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(qasm.MaxSteps); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Stats.Insts), "insts/run")
}

// BenchmarkTable2Macros measures assembly including every Table 2
// pseudo-instruction expansion.
func BenchmarkTable2Macros(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "br a%d\na%d: jump b%d\nb%d: jumpf $1,c%d\nc%d: jumpt $2,d%d\nd%d: loadi $3,0x1234\n",
			i, i, i, i, i, i, i, i)
	}
	src := sb.String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3QatISA measures coprocessor instruction throughput at the
// full 16-way (65,536-bit register) width.
func BenchmarkTable3QatISA(b *testing.B) {
	src := `
	had @1,3
	had @2,9
	loop:
	and @3,@1,@2
	or @4,@3,@1
	xor @5,@4,@2
	cnot @5,@1
	ccnot @4,@3,@5
	swap @3,@4
	cswap @1,@2,@5
	lex $1,0
	next $1,@5
	br loop
	`
	prog, err := asm.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	m := cpu.New(16)
	if err := m.Load(prog); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1AoBEncoding measures construction and word-level read-out of
// the Figure 1 two-pbit entangled encoding at full hardware width.
func BenchmarkFig1AoBEncoding(b *testing.B) {
	m := core.NewAoB(16)
	p := core.H(m, 2, 0x3)
	for i := 0; i < b.N; i++ {
		_ = p.ValueAt(uint64(i) & 65535)
	}
}

// BenchmarkFig6FunctionalMachine is the single-cycle (functional)
// organization of Figure 6 running a mixed Tangled+Qat workload.
func BenchmarkFig6FunctionalMachine(b *testing.B) {
	res, err := compile.FactorProgram(15, 8, 4, 4, compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := asm.Assemble(res.Asm)
	if err != nil {
		b.Fatal(err)
	}
	m := cpu.New(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Load(prog); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(qasm.MaxSteps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Had compares the had instruction (pattern generation) with
// the Section 5 constant-register alternative (a register copy).
func BenchmarkFig7Had(b *testing.B) {
	b.Run("instruction", func(b *testing.B) {
		v := aob.New(16)
		for i := 0; i < b.N; i++ {
			v.Had(i % 16)
		}
	})
	b.Run("const-copy", func(b *testing.B) {
		bank := make([]*aob.Vector, 16)
		for k := range bank {
			bank[k] = aob.HadVector(16, k)
		}
		v := aob.New(16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.CopyFrom(bank[i%16])
		}
	})
}

// BenchmarkFig8Next compares the three next implementations: the
// word-scanning architectural model, the Figure 8 hardware decomposition,
// and a naive per-bit scan — the software analog of the gate-delay
// argument.
func BenchmarkFig8Next(b *testing.B) {
	v := aob.HadVector(16, 15)
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = v.Next(uint64(i) & 32767)
		}
	})
	b.Run("hw-model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = v.NextHW(uint64(i) & 32767)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := uint64(i) & 32767
			var r uint64
			for ch := s + 1; ch < 65536; ch++ {
				if v.Get(ch) {
					r = ch
					break
				}
			}
			_ = r
		}
	})
	// The gate-level figure of merit: levels of logic, wide vs narrow OR.
	b.Run("gate-model", func(b *testing.B) {
		var wide, narrow int
		for i := 0; i < b.N; i++ {
			wide = gates.NextCost(16, gates.WideOR).Levels
			narrow = gates.NextCost(16, 2).Levels
		}
		b.ReportMetric(float64(wide), "levels-wideOR")
		b.ReportMetric(float64(narrow), "levels-2inOR")
	})
}

// BenchmarkFig9WordLevelFactor is the Figure 9 program on the PBP software
// model, both backends.
func BenchmarkFig9WordLevelFactor(b *testing.B) {
	b.Run("aob", func(b *testing.B) {
		m := core.NewAoB(8)
		for i := 0; i < b.N; i++ {
			e := core.H(m, 4, 0x0F).Mul(core.H(m, 4, 0xF0)).Eq(core.Mk(m, 8, 15))
			if !core.Any(m, e) {
				b.Fatal("lost the factors")
			}
		}
	})
	b.Run("re", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := core.NewRE(re.MustSpace(8, 4))
			e := core.H(m, 4, 0x0F).Mul(core.H(m, 4, 0xF0)).Eq(core.Mk(m, 8, 15))
			if !core.Any(m, e) {
				b.Fatal("lost the factors")
			}
		}
	})
}

// BenchmarkFig10PipelineFactor runs the generated Figure 10 program on the
// cycle-accurate pipeline; the CPI metric reproduces the paper's
// sustained-throughput claim on real generated code.
func BenchmarkFig10PipelineFactor(b *testing.B) {
	res, err := compile.FactorProgram(15, 8, 4, 4, compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := asm.Assemble(res.Asm)
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.StudentConfig()
	p, err := pipeline.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Load(prog); err != nil {
			b.Fatal(err)
		}
		if err := p.Run(qasm.MaxSteps); err != nil {
			b.Fatal(err)
		}
		if p.Machine().Regs[4] != 5 || p.Machine().Regs[1] != 3 {
			b.Fatal("wrong factors")
		}
	}
	b.ReportMetric(p.Stats.CPI(), "CPI")
	b.ReportMetric(float64(res.QatInsts), "qat-insts")
	b.ReportMetric(float64(res.RegsUsed), "qat-regs")
}

// BenchmarkFig10FactorRE20 runs the Figure 10 factoring program for 221
// (8x8-bit operands) on the functional machine with the run-encoded Qat
// register file at 20 ways, beyond the dense hardware limit. The machine is
// reused across iterations the way a pooled farm worker reuses it, so the
// symbol space is warm and the figure is the steady-state per-run cost.
func BenchmarkFig10FactorRE20(b *testing.B) {
	res, err := compile.FactorProgram(221, 20, 8, 8, compile.Options{Reuse: true})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := asm.Assemble(res.Asm)
	if err != nil {
		b.Fatal(err)
	}
	q, err := backend.New(qat.Config{Ways: 20, Backend: qat.BackendRE})
	if err != nil {
		b.Fatal(err)
	}
	m := cpu.NewWith(q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Load(prog); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(qasm.MaxSteps); err != nil {
			b.Fatal(err)
		}
		if m.Regs[4]*m.Regs[1] != 221 {
			b.Fatalf("wrong factors %d x %d", m.Regs[4], m.Regs[1])
		}
	}
}

// BenchmarkS31PipelineOrganizations sweeps the Section 3.1 design space:
// 4-stage vs 5-stage, with and without the two-word fetch penalty, on a
// hazard-rich workload.
func BenchmarkS31PipelineOrganizations(b *testing.B) {
	src := `
	lex $1,100
	lex $3,-1
	had @1,3
	loop:
	and @2,@1,@1
	xor @3,@2,@1
	copy $2,$1
	next $2,@3
	add $1,$3
	brt $1,loop
	lex $0,0
	sys
	`
	prog, err := asm.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		c    pipeline.Config
	}{
		{"5stage", pipeline.Config{Config: qat.Config{Ways: 8}, Stages: 5, Forwarding: true, MulLatency: 1, QatNextLatency: 1}},
		{"4stage", pipeline.Config{Config: qat.Config{Ways: 8}, Stages: 4, Forwarding: true, MulLatency: 1, QatNextLatency: 1}},
		{"5stage-noFwd", pipeline.Config{Config: qat.Config{Ways: 8}, Stages: 5, MulLatency: 1, QatNextLatency: 1}},
		{"5stage-narrowFetch", pipeline.Config{Config: qat.Config{Ways: 8}, Stages: 5, Forwarding: true, TwoWordFetchPenalty: true, MulLatency: 1, QatNextLatency: 1}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			p, err := pipeline.New(cfg.c)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if err := p.Load(prog); err != nil {
					b.Fatal(err)
				}
				if err := p.Run(qasm.MaxSteps); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(p.Stats.CPI(), "CPI")
		})
	}
}

// BenchmarkS12RECompression compares a 16-way logic op on the compressed RE
// form vs the explicit 65,536-bit AoB form, plus a beyond-hardware 32-way
// case only RE can represent.
func BenchmarkS12RECompression(b *testing.B) {
	b.Run("aob-16way", func(b *testing.B) {
		x, y := aob.HadVector(16, 15), aob.HadVector(16, 3)
		d := aob.New(16)
		for i := 0; i < b.N; i++ {
			d.And(x, y)
		}
	})
	b.Run("re-16way", func(b *testing.B) {
		s := re.MustSpace(16, 12)
		x, y := s.Had(15), s.Had(3)
		for i := 0; i < b.N; i++ {
			_ = x.And(y)
		}
	})
	b.Run("re-32way", func(b *testing.B) {
		s := re.MustSpace(32, 12)
		x, y := s.Had(31), s.Had(3)
		for i := 0; i < b.N; i++ {
			_ = x.And(y)
		}
		b.ReportMetric(x.CompressionRatio(), "compression")
	})
}

// BenchmarkS5Ablations generates the factoring program under each Section 5
// design variant and reports the instruction-count metric.
func BenchmarkS5Ablations(b *testing.B) {
	for _, v := range []struct {
		name string
		opts compile.Options
	}{
		{"faithful", compile.Options{}},
		{"reuse", compile.Options{Reuse: true}},
		{"const-regs", compile.Options{ConstantRegs: true}},
		{"reversible", compile.Options{Reversible: true}},
	} {
		b.Run(v.name, func(b *testing.B) {
			var insts, regs int
			for i := 0; i < b.N; i++ {
				res, err := compile.FactorProgram(15, 8, 4, 4, v.opts)
				if err != nil {
					b.Fatal(err)
				}
				insts, regs = res.QatInsts, res.RegsUsed
			}
			b.ReportMetric(float64(insts), "qat-insts")
			b.ReportMetric(float64(regs), "qat-regs")
		})
	}
}

// BenchmarkX221FullProblem is the complete 221 toolchain on 16-way Qat.
func BenchmarkX221FullProblem(b *testing.B) {
	res, err := compile.FactorProgram(221, 16, 8, 8, compile.Options{Reuse: true})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := asm.Assemble(res.Asm)
	if err != nil {
		b.Fatal(err)
	}
	p, err := pipeline.New(pipeline.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Load(prog); err != nil {
			b.Fatal(err)
		}
		if err := p.Run(qasm.MaxSteps); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p.Stats.CPI(), "CPI")
	b.ReportMetric(float64(p.Stats.Cycles), "cycles")
}

// BenchmarkSMCMultiCycleVsPipeline measures the course-project progression:
// the same workload timed on the multi-cycle model and the pipeline.
func BenchmarkSMCMultiCycleVsPipeline(b *testing.B) {
	src := strings.Repeat("add $1,$2\nxor $3,$4\nlex $5,9\n", 300) + "lex $0,0\nsys\n"
	prog, err := asm.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	m := cpu.New(4)
	p, err := pipeline.New(pipeline.Config{Config: qat.Config{Ways: 4}, Stages: 5, Forwarding: true, MulLatency: 1, QatNextLatency: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Load(prog); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(qasm.MaxSteps); err != nil {
			b.Fatal(err)
		}
		if err := p.Load(prog); err != nil {
			b.Fatal(err)
		}
		if err := p.Run(qasm.MaxSteps); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Stats.MultiCycles)/float64(p.Stats.Cycles), "speedup")
}

// BenchmarkSRexNestedRepresentation: the tree-compressed backend on the
// flat representation's worst case and at beyond-hardware scale.
func BenchmarkSRexNestedRepresentation(b *testing.B) {
	b.Run("flat-worst-case-16way", func(b *testing.B) {
		s := rex.MustSpace(16, 12)
		x, y := s.Had(12), s.Had(13)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = x.And(y)
		}
	})
	b.Run("60way-cross-scale", func(b *testing.B) {
		s := rex.MustSpace(60, 12)
		x, y := s.Had(59), s.Had(13)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = x.And(y)
		}
		b.ReportMetric(float64(x.And(y).NumNodes()), "nodes")
	})
}

// BenchmarkSEEnergyMeter measures the metered-execution overhead and
// reports the erased fraction of the factoring workload.
func BenchmarkSEEnergyMeter(b *testing.B) {
	res, err := compile.FactorProgram(15, 8, 4, 4, compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := asm.Assemble(res.Asm)
	if err != nil {
		b.Fatal(err)
	}
	m := cpu.New(8)
	meter := energy.NewMeter()
	m.Qat.Meter = meter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meter.Reset()
		if err := m.Load(prog); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(qasm.MaxSteps); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(meter.ErasedBits)/float64(meter.SwitchedBits), "erased-frac")
}
