package oracle

import (
	"testing"

	"tangled/internal/asm"
	"tangled/internal/cpu"
	"tangled/internal/energy"
	"tangled/internal/isa"
	"tangled/internal/lint"
	"tangled/internal/obs"
	"tangled/internal/pipeline"
	"tangled/internal/profile"
	"tangled/internal/qat"
)

// conformanceWays is small enough that every dense register is one word
// and every had pattern index used below is legal.
const conformanceWays = 4

// sampleInst gives op distinct operands: $2/$3 for the Tangled fields and
// @10/@11/@12 for the Qat fields, so no two slots alias.
func sampleInst(op isa.Op) isa.Inst {
	return isa.Inst{Op: op, RD: 2, RS: 3, K: 1, QA: 10, QB: 11, QC: 12}
}

// cpuClassNames mirrors the label order of cpu_class_cycles_total.
var cpuClassNames = []string{"alu", "branch", "mem", "float", "sys", "qat-gate", "qat-read"}

// TestOpcodeTableConformance walks every opcode and checks each package
// that reads per-opcode facts from the isa table against the table row:
// the effect projection (and, independently, oracle's own written-register
// list and a fixed list of which ops write a Tangled register),
// the multi-cycle timing model and cycle classes in cpu, the pipeline's
// RAW hazard masks, energy classes and static costs, the coprocessor's
// reserved-register write checks and word-op costs on both backends, and
// the profiler's touched-register set.
func TestOpcodeTableConformance(t *testing.T) {
	writesTangled := map[isa.Op]bool{
		isa.OpAdd: true, isa.OpLex: true, isa.OpLhi: true, isa.OpCopy: true,
		isa.OpLoad: true, isa.OpQMeas: true, isa.OpQNext: true, isa.OpQPop: true,
		isa.OpSlt: true,
		isa.OpBrf: false, isa.OpBrt: false, isa.OpStore: false, isa.OpSys: false,
		isa.OpJumpr: false, isa.OpQAnd: false, isa.OpQHad: false, isa.OpQZero: false,
	}
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		inst := sampleInst(op)
		f := op.Facts()
		t.Run(op.Name(), func(t *testing.T) {
			e := isa.InstEffects(inst)
			if want, ok := writesTangled[op]; ok && (e.WriteRegs != 0) != want {
				t.Errorf("writes a Tangled register = %v, want %v", e.WriteRegs != 0, want)
			}
			if e.WriteRegs != inst.RegWrites() || e.ReadRegs != inst.RegReads() {
				t.Errorf("InstEffects masks %016b/%016b disagree with RegReads/RegWrites %016b/%016b",
					e.ReadRegs, e.WriteRegs, inst.RegReads(), inst.RegWrites())
			}
			if got, want := qatWrittenRegs(inst), e.QWrites[:e.NQWrites]; string(got) != string(want) {
				t.Errorf("oracle writes %v, table writes %v", got, want)
			}
			if f.QWrites() != int(e.NQWrites) {
				t.Errorf("QWrites() = %d, effects list %d", f.QWrites(), e.NQWrites)
			}

			checkCPU(t, inst, f)
			checkPipelineHazards(t, inst)
			checkEnergy(t, op, f)
			if op.IsQat() {
				checkQatWrites(t, inst, f)
				checkQatWordOps(t, inst, f)
				checkProfileTouched(t, inst, e)
			}
		})
	}
}

// machineFor returns a machine loaded with inst followed by sys (a halt,
// since $0 is zero), with $0 left zero and the other registers nonzero.
func machineFor(t *testing.T, inst isa.Inst) *cpu.Machine {
	t.Helper()
	m := cpu.New(conformanceWays)
	words, err := isa.Encode(nil, inst)
	if err != nil {
		t.Fatalf("encode %s: %v", inst, err)
	}
	words, _ = isa.Encode(words, isa.Inst{Op: isa.OpSys})
	copy(m.Mem, words)
	for r := 1; r < isa.NumRegs; r++ {
		m.Regs[r] = uint16(r)
	}
	return m
}

func checkCPU(t *testing.T, inst isa.Inst, f isa.OpFacts) {
	t.Helper()
	want := uint64(inst.Words()) + 2
	if f.MemRead || f.MemWrite {
		want++
	}
	if inst.RegWrites() != 0 {
		want++
	}
	if got := cpu.MultiCyclesFor(inst); got != want {
		t.Errorf("MultiCyclesFor = %d, want %d", got, want)
	}

	var class string
	switch {
	case f.Control:
		class = "branch"
	case f.MemRead || f.MemWrite:
		class = "mem"
	case f.Float:
		class = "float"
	case f.MayHalt:
		class = "sys"
	case !inst.Op.IsQat():
		class = "alu"
	case f.Writes&isa.SlotRD != 0:
		class = "qat-read"
	default:
		class = "qat-gate"
	}
	m := machineFor(t, inst)
	mm := cpu.NewMetrics(obs.NewRegistry())
	m.AttachMetrics(mm)
	if err := m.Step(); err != nil {
		t.Fatalf("step: %v", err)
	}
	for i, name := range cpuClassNames {
		got := mm.ClassCycles.At(i).Value()
		if name == class && got != want || name != class && got != 0 {
			t.Errorf("class %s counted %d cycles; want %d in class %s", name, got, want, class)
		}
	}
}

// checkPipelineHazards runs inst behind and ahead of each register's
// producer/consumer on a 4-stage pipeline without forwarding, where a RAW
// stall happens exactly when the instruction in ID reads a register the one
// in EXM writes: "lex $r,0; inst; sys" stalls iff inst reads $r, and
// "inst; store $r,$r; sys" stalls iff inst writes $r.
func checkPipelineHazards(t *testing.T, inst isa.Inst) {
	t.Helper()
	cfg := pipeline.Config{Config: qat.Config{Ways: conformanceWays}, Stages: 4, MulLatency: 1, QatNextLatency: 1}
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stalls := func(seq ...isa.Inst) uint64 {
		var words []uint16
		for _, in := range seq {
			if words, err = isa.Encode(words, in); err != nil {
				t.Fatalf("encode %s: %v", in, err)
			}
		}
		if err := p.Load(&asm.Program{Words: words}); err != nil {
			t.Fatal(err)
		}
		p.Run(32) // jumpr loops back to 0; the stall count is all we need
		return p.Stats.RawStalls
	}
	sys := isa.Inst{Op: isa.OpSys}
	for r := uint8(0); r < isa.NumRegs; r++ {
		reads := inst.RegReads()&(1<<r) != 0
		if got := stalls(isa.Inst{Op: isa.OpLex, RD: r}, inst, sys) > 0; got != reads {
			t.Errorf("$%d: consumer stall = %v, table reads it = %v", r, got, reads)
		}
		writes := inst.RegWrites()&(1<<r) != 0
		if got := stalls(inst, isa.Inst{Op: isa.OpStore, RD: r, RS: r}, sys) > 0; got != writes {
			t.Errorf("$%d: producer stall = %v, table writes it = %v", r, got, writes)
		}
	}
}

func checkEnergy(t *testing.T, op isa.Op, f isa.OpFacts) {
	t.Helper()
	want := energy.ReadOnly
	switch {
	case f.Reversible:
		want = energy.Reversible
	case f.QWrites() > 0:
		want = energy.Irreversible
	}
	if got := energy.Classify(op); got != want {
		t.Errorf("Classify = %s, want %s", got, want)
	}
	sw, er := energy.StaticCost(op, conformanceWays)
	wantSw := uint64(f.QWrites()) << conformanceWays
	wantEr := uint64(0)
	if want == energy.Irreversible {
		wantEr = wantSw
	}
	if sw != wantSw || er != wantEr {
		t.Errorf("StaticCost = %d/%d, want %d/%d", sw, er, wantSw, wantEr)
	}
}

// checkQatWrites points each Qat operand field in turn at a reserved
// constant register: Exec must reject the op exactly when the table says
// the field is written, on both backends, leaving the register file and
// the energy meter untouched.
func checkQatWrites(t *testing.T, inst isa.Inst, f isa.OpFacts) {
	t.Helper()
	for _, backend := range []string{qat.BackendDense, qat.BackendRE} {
		for _, slot := range []isa.Slot{isa.SlotQA, isa.SlotQB, isa.SlotQC} {
			q, err := qat.NewFromConfig(qat.Config{Ways: conformanceWays, ConstantRegs: true, Backend: backend,
				ChunkWays: conformanceWays, SpillRuns: qat.DefaultSpillRuns})
			if err != nil {
				t.Fatal(err)
			}
			q.Meter = energy.NewMeter()
			in := inst
			switch slot {
			case isa.SlotQA:
				in.QA = qat.ConstOneReg()
			case isa.SlotQB:
				in.QB = qat.ConstOneReg()
			case isa.SlotQC:
				in.QC = qat.ConstOneReg()
			}
			var before [isa.NumQRegs]uint64
			for r := range before {
				before[r] = q.Reg(uint8(r)).Word(0)
			}
			_, _, err = q.Exec(in, 0)
			if rejected, written := err != nil, f.Writes&slot != 0; rejected != written {
				t.Errorf("%s: %s rejected = %v, table writes the field = %v (%v)", backend, in, rejected, written, err)
			}
			if err == nil {
				continue
			}
			for r := range before {
				if got := q.Reg(uint8(r)).Word(0); got != before[r] {
					t.Errorf("%s: rejected %s changed @%d", backend, in, r)
				}
			}
			if m := q.Meter; m.ReversibleOps+m.IrreversibleOps+m.ReadOps != 0 {
				t.Errorf("%s: rejected %s was metered: %+v", backend, in, m)
			}
		}
	}
}

// checkQatWordOps runs inst on an 8-way (four-word) dense coprocessor and
// checks the word-op counter: one pass per written register, one scan for
// the next/pop reductions, one word for meas.
func checkQatWordOps(t *testing.T, inst isa.Inst, f isa.OpFacts) {
	t.Helper()
	q := qat.New(8)
	q.Metrics = qat.NewMetrics(obs.NewRegistry())
	if _, _, err := q.Exec(inst, 0); err != nil {
		t.Fatalf("exec: %v", err)
	}
	numWords := uint64(q.Reg(0).NumWords())
	want := uint64(1)
	switch {
	case f.QWrites() > 0:
		want = uint64(f.QWrites()) * numWords
	case f.Latency == isa.LatQatNext:
		want = numWords
	}
	if got := q.Metrics.WordOps.Value(); got != want {
		t.Errorf("word ops = %d, want %d", got, want)
	}
}

// checkProfileTouched profiles a program whose indirect jump cannot be
// resolved, so every register the reachable code reads or writes is widened
// to the full width: exactly inst's Qat operands.
func checkProfileTouched(t *testing.T, inst isa.Inst, e isa.Effects) {
	t.Helper()
	var words []uint16
	for _, in := range []isa.Inst{
		{Op: isa.OpLoad, RD: 5, RS: 5}, // an unknown jump target
		{Op: isa.OpJumpr, RD: 5},
		inst,
		{Op: isa.OpSys},
	} {
		words, _ = isa.Encode(words, in)
	}
	prog := &asm.Program{Words: words, Symbols: map[string]uint16{"entry": 2},
		Source: make([]int, len(words)), Data: make([]bool, len(words))}
	_, facts := lint.AnalyzeWithFacts(prog, lint.Options{Ways: conformanceWays})
	p := profile.Compute(facts, profile.Options{})
	if !p.Imprecise {
		t.Fatal("profile of an unresolved jumpr is precise")
	}
	for r := 0; r < isa.NumQRegs; r++ {
		touched := e.ReadsQat(uint8(r)) || e.WritesQat(uint8(r))
		if got := p.MaxReg(r) == conformanceWays; got != touched {
			t.Errorf("@%d: widened = %v, table touches it = %v", r, got, touched)
		}
	}
}
