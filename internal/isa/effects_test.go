package isa_test

import (
	"bytes"
	"fmt"
	"testing"

	"tangled/internal/aob"
	"tangled/internal/cpu"
	"tangled/internal/isa"
	"tangled/internal/qat"
)

// effectsSamples covers every opcode with representative operands.
func effectsSamples() []isa.Inst {
	return []isa.Inst{
		{Op: isa.OpAdd, RD: 2, RS: 3},
		{Op: isa.OpAddf, RD: 2, RS: 3},
		{Op: isa.OpAnd, RD: 4, RS: 5},
		{Op: isa.OpBrf, RD: 6, Imm: 4},
		{Op: isa.OpBrt, RD: 6, Imm: 4},
		{Op: isa.OpCopy, RD: 2, RS: 7},
		{Op: isa.OpFloat, RD: 3},
		{Op: isa.OpInt, RD: 3},
		{Op: isa.OpJumpr, RD: 5},
		{Op: isa.OpLex, RD: 4, Imm: 9},
		{Op: isa.OpLhi, RD: 4, Imm: 9},
		{Op: isa.OpLoad, RD: 2, RS: 3},
		{Op: isa.OpMul, RD: 2, RS: 3},
		{Op: isa.OpMulf, RD: 2, RS: 3},
		{Op: isa.OpNeg, RD: 8},
		{Op: isa.OpNegf, RD: 8},
		{Op: isa.OpNot, RD: 8},
		{Op: isa.OpOr, RD: 2, RS: 3},
		{Op: isa.OpRecip, RD: 8},
		{Op: isa.OpShift, RD: 2, RS: 3},
		{Op: isa.OpSlt, RD: 2, RS: 3},
		{Op: isa.OpStore, RD: 2, RS: 3},
		{Op: isa.OpSys},
		{Op: isa.OpXor, RD: 2, RS: 3},
		{Op: isa.OpQZero, QA: 1},
		{Op: isa.OpQOne, QA: 1},
		{Op: isa.OpQNot, QA: 1},
		{Op: isa.OpQHad, QA: 1, K: 2},
		{Op: isa.OpQMeas, RD: 2, QA: 1},
		{Op: isa.OpQNext, RD: 2, QA: 1},
		{Op: isa.OpQPop, RD: 2, QA: 1},
		{Op: isa.OpQAnd, QA: 1, QB: 2, QC: 3},
		{Op: isa.OpQOr, QA: 1, QB: 2, QC: 3},
		{Op: isa.OpQXor, QA: 1, QB: 2, QC: 3},
		{Op: isa.OpQCnot, QA: 1, QB: 2},
		{Op: isa.OpQCcnot, QA: 1, QB: 2, QC: 3},
		{Op: isa.OpQSwap, QA: 1, QB: 2},
		{Op: isa.OpQCswap, QA: 1, QB: 2, QC: 3},
	}
}

// newEffectsMachine builds a machine whose register values are small,
// distinct and nonzero, with Qat registers prepared so every coprocessor op
// is well-defined.
func newEffectsMachine(t *testing.T, inst isa.Inst, out *bytes.Buffer) *cpu.Machine {
	t.Helper()
	m := cpu.New(6)
	m.Out = out
	for r := 0; r < isa.NumRegs; r++ {
		m.Regs[r] = uint16(r + 3)
	}
	if inst.Op == isa.OpSys {
		m.Regs[0] = cpu.SysPutInt
	}
	for q := uint8(0); q < 8; q++ {
		if _, _, err := m.Qat.Exec(isa.Inst{Op: isa.OpQHad, QA: q, K: q % 6}, 0); err != nil {
			t.Fatalf("prep @%d: %v", q, err)
		}
	}
	words, err := isa.Encode(nil, inst)
	if err != nil {
		t.Fatalf("encode %s: %v", inst, err)
	}
	copy(m.Mem, words)
	return m
}

// TestEffectsMatchExecution pins the effect tables to the executing model:
// stepping one instruction must change exactly a subset of the declared
// Tangled write set, and perturbing any register outside the declared read
// set must not change the written values, the PC, or the output.
func TestEffectsMatchExecution(t *testing.T) {
	for _, inst := range effectsSamples() {
		inst := inst
		t.Run(inst.String(), func(t *testing.T) {
			e := isa.InstEffects(inst)
			var out bytes.Buffer
			m := newEffectsMachine(t, inst, &out)
			before := m.Regs
			if err := m.Step(); err != nil {
				t.Fatalf("step: %v", err)
			}
			for r := 0; r < isa.NumRegs; r++ {
				if m.Regs[r] != before[r] && e.WriteRegs&(1<<r) == 0 {
					t.Errorf("register $%d changed (%#x -> %#x) but is not in WriteRegs %016b",
						r, before[r], m.Regs[r], e.WriteRegs)
				}
			}
			basePC, baseRegs, baseOut := m.PC, m.Regs, out.String()

			for r := 0; r < isa.NumRegs; r++ {
				if e.ReadRegs&(1<<r) != 0 {
					continue
				}
				var out2 bytes.Buffer
				m2 := newEffectsMachine(t, inst, &out2)
				m2.Regs[r] ^= 0x0040 // perturb a register the op claims not to read
				if err := m2.Step(); err != nil {
					t.Fatalf("perturbed step ($%d): %v", r, err)
				}
				if m2.PC != basePC {
					t.Errorf("perturbing unread $%d changed PC: %#x vs %#x", r, m2.PC, basePC)
				}
				if out2.String() != baseOut {
					t.Errorf("perturbing unread $%d changed output", r)
				}
				for w := 0; w < isa.NumRegs; w++ {
					if e.WriteRegs&(1<<w) == 0 || w == r {
						continue
					}
					if m2.Regs[w] != baseRegs[w] {
						t.Errorf("perturbing unread $%d changed written $%d: %#x vs %#x",
							r, w, m2.Regs[w], baseRegs[w])
					}
				}
			}
		})
	}
}

// TestEffectsControlFlags pins the control/halt/memory flags.
func TestEffectsControlFlags(t *testing.T) {
	for _, inst := range effectsSamples() {
		e := isa.InstEffects(inst)
		wantControl := inst.Op == isa.OpBrf || inst.Op == isa.OpBrt || inst.Op == isa.OpJumpr
		if e.Control != wantControl {
			t.Errorf("%s: Control = %v, want %v", inst, e.Control, wantControl)
		}
		if (e.MayHalt) != (inst.Op == isa.OpSys) {
			t.Errorf("%s: MayHalt = %v", inst, e.MayHalt)
		}
		if e.MemRead != (inst.Op == isa.OpLoad) || e.MemWrite != (inst.Op == isa.OpStore) {
			t.Errorf("%s: MemRead/MemWrite = %v/%v", inst, e.MemRead, e.MemWrite)
		}
	}
}

// TestEffectsQatDedup checks that repeated Qat operands are reported once.
func TestEffectsQatDedup(t *testing.T) {
	e := isa.InstEffects(isa.Inst{Op: isa.OpQXor, QA: 7, QB: 7, QC: 7})
	if e.NQReads != 1 || e.NQWrites != 1 || !e.ReadsQat(7) || !e.WritesQat(7) {
		t.Errorf("xor @7,@7,@7 effects = %+v", e)
	}
	if e.ReadsQat(3) || e.WritesQat(3) {
		t.Errorf("unexpected @3 membership")
	}
}

// TestQatEffectsMatchExecution pins the Qat register sets of the table to
// both coprocessor backends: executing an op changes only registers in its
// declared write set, and perturbing a register outside its declared read
// set changes neither the written registers nor the Tangled result.
func TestQatEffectsMatchExecution(t *testing.T) {
	const ways = 4
	// @0..@7 hold distinct values; the samples name only @1..@3.
	setup := func(t *testing.T, backend string, perturb int) *qat.Coprocessor {
		q, err := qat.NewFromConfig(qat.Config{Ways: ways, Backend: backend,
			ChunkWays: ways, SpillRuns: qat.DefaultSpillRuns})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 8; r++ {
			v := aob.New(ways)
			v.Had(r % ways)
			if r >= ways {
				v.Not()
			}
			if r == perturb {
				flip := aob.New(ways)
				flip.Had((r + 1) % ways)
				v.CNot(flip)
			}
			q.SetReg(uint8(r), v)
		}
		return q
	}
	const rd = 5
	for _, inst := range effectsSamples() {
		if !inst.Op.IsQat() {
			continue
		}
		e := isa.InstEffects(inst)
		for _, backend := range []string{qat.BackendDense, qat.BackendRE} {
			t.Run(backend+"/"+inst.String(), func(t *testing.T) {
				q := setup(t, backend, -1)
				var before [8]*aob.Vector
				for r := range before {
					before[r] = q.Reg(uint8(r)).Clone()
				}
				out, _, err := q.Exec(inst, rd)
				if err != nil {
					t.Fatalf("exec: %v", err)
				}
				var after [8]*aob.Vector
				for r := range after {
					after[r] = q.Reg(uint8(r)).Clone()
					if !after[r].Equal(before[r]) && !e.WritesQat(uint8(r)) {
						t.Errorf("@%d changed but is not in the write set %v", r, e.QWrites[:e.NQWrites])
					}
				}
				for p := 0; p < 8; p++ {
					if e.ReadsQat(uint8(p)) {
						continue
					}
					q2 := setup(t, backend, p)
					out2, _, err := q2.Exec(inst, rd)
					if err != nil {
						t.Fatalf("perturbed @%d: %v", p, err)
					}
					if out2 != out {
						t.Errorf("perturbing unread @%d changed the result: %d vs %d", p, out2, out)
					}
					for _, w := range e.QWrites[:e.NQWrites] {
						if !q2.Reg(w).Equal(after[w]) {
							t.Errorf("perturbing unread @%d changed written @%d", p, w)
						}
					}
				}
			})
		}
	}
}

// FuzzInstEffects decodes a random word pair and steps it on a 4-way
// machine seeded from the input (its Tangled registers, the Qat registers
// the instruction names plus one more, and the backend), checking the
// effect sets against execution: only declared-written registers change,
// and perturbing a Tangled or Qat register outside the declared read set
// changes neither the written registers, the PC, the output, nor whether
// the step fails.
func FuzzInstEffects(f *testing.F) {
	f.Add(uint16(0xE012), uint16(0x0000), []byte("add"))
	f.Add(uint16(0x800A), uint16(0x0B0C), []byte{1, 2, 3}) // qand on the RE backend
	f.Add(uint16(0x8406), uint16(0x0708), []byte{0, 9, 9}) // cswap
	f.Add(uint16(0x6205), uint16(0x0000), []byte{4})       // meas
	f.Add(uint16(0xF007), uint16(0x0000), []byte{0, 0, 0}) // sys
	f.Fuzz(func(t *testing.T, w0, w1 uint16, seed []byte) {
		inst, _, err := isa.Decode(w0, w1)
		if err != nil {
			return
		}
		e := isa.InstEffects(inst)
		at := func(i int) uint16 {
			if len(seed) == 0 {
				return uint16(i)
			}
			return uint16(seed[i%len(seed)]) ^ uint16(i)
		}
		backend := qat.BackendDense
		if at(0)&1 != 0 {
			backend = qat.BackendRE
		}
		qregs := [4]uint8{inst.QA, inst.QB, inst.QC, inst.QA + 1}
		// machine builds the seeded state, flipping Tangled register pr
		// and Qat register pq when they are not -1.
		machine := func(pr, pq int) (*cpu.Machine, *bytes.Buffer) {
			q, err := qat.NewFromConfig(qat.Config{Ways: 4, Backend: backend,
				ChunkWays: 4, SpillRuns: qat.DefaultSpillRuns})
			if err != nil {
				t.Fatal(err)
			}
			m := cpu.NewWith(q)
			var out bytes.Buffer
			m.Out = &out
			m.Mem[0], m.Mem[1] = w0, w1
			for r := range m.Regs {
				m.Regs[r] = at(2*r)<<8 | at(2*r+1)
				if r == pr {
					m.Regs[r] ^= 0x1041
				}
			}
			for i, q := range qregs {
				v := aob.New(4)
				w := uint64(at(40+2*i))<<8 | uint64(at(41+2*i))
				if int(q) == pq {
					w ^= 0x5A5A
				}
				v.SetWord(0, w&0xFFFF)
				m.Qat.SetReg(q, v)
			}
			return m, &out
		}
		qword := func(m *cpu.Machine, q uint8) uint64 { return m.Qat.Reg(q).Word(0) }

		m, out := machine(-1, -1)
		regs := m.Regs
		var qbefore [isa.NumQRegs]uint64
		for q := range qbefore {
			qbefore[q] = qword(m, uint8(q))
		}
		stepErr := m.Step()
		if stepErr == nil {
			for r := 0; r < isa.NumRegs; r++ {
				if m.Regs[r] != regs[r] && e.WriteRegs&(1<<r) == 0 {
					t.Fatalf("%s changed $%d outside WriteRegs %016b", inst, r, e.WriteRegs)
				}
			}
			for q := range qbefore {
				if qword(m, uint8(q)) != qbefore[q] && !e.WritesQat(uint8(q)) {
					t.Fatalf("%s changed @%d outside its Qat write set", inst, q)
				}
			}
		}

		// same compares a perturbed run against the base one.
		same := func(what string, m2 *cpu.Machine, out2 *bytes.Buffer) {
			err2 := m2.Step()
			if (err2 == nil) != (stepErr == nil) {
				t.Fatalf("%s: perturbing unread %s changed the step error: %v vs %v", inst, what, err2, stepErr)
			}
			if stepErr != nil {
				return
			}
			if m2.PC != m.PC || out2.String() != out.String() {
				t.Fatalf("%s: perturbing unread %s changed the PC or output", inst, what)
			}
			for r := 0; r < isa.NumRegs; r++ {
				if e.WriteRegs&(1<<r) != 0 && m2.Regs[r] != m.Regs[r] {
					t.Fatalf("%s: perturbing unread %s changed written $%d", inst, what, r)
				}
			}
			for _, q := range e.QWrites[:e.NQWrites] {
				if qword(m2, q) != qword(m, q) {
					t.Fatalf("%s: perturbing unread %s changed written @%d", inst, what, q)
				}
			}
		}
		for r := 0; r < isa.NumRegs; r++ {
			if e.ReadRegs&(1<<r) == 0 {
				m2, out2 := machine(r, -1)
				same(isa.RegName(uint8(r)), m2, out2)
			}
		}
		for _, q := range qregs {
			if !e.ReadsQat(q) {
				m2, out2 := machine(-1, int(q))
				same(fmt.Sprintf("@%d", q), m2, out2)
			}
		}
	})
}
