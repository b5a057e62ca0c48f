package qat

import (
	"fmt"
	"testing"

	"tangled/internal/aob"
	"tangled/internal/isa"
	"tangled/internal/obs"
)

// These tests pin the allocation-free Reset contract relied on by pooled
// machine reuse (package farm).

// TestResetKeepsMetrics: Reset clears channel state only. Attached Metrics
// are host-owned counters (cpu.Machine.Reset is what detaches them), so they
// survive a Reset and keep counting.
func TestResetKeepsMetrics(t *testing.T) {
	q := New(4)
	q.Metrics = NewMetrics(obs.NewRegistry())
	if _, _, err := q.Exec(isa.Inst{Op: isa.OpQOne, QA: 3}, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Exec(isa.Inst{Op: isa.OpQNot, QA: 3}, 0); err != nil {
		t.Fatal(err)
	}
	q.Reset()
	if q.Metrics == nil {
		t.Fatal("Reset detached the metrics")
	}
	if _, _, err := q.Exec(isa.Inst{Op: isa.OpQNot, QA: 3}, 0); err != nil {
		t.Fatal(err)
	}
	if one, not := opCount(q, isa.OpQOne), opCount(q, isa.OpQNot); one != 1 || not != 2 {
		t.Fatalf("op counts one/not = %d/%d across Reset, want 1/2", one, not)
	}
}

func TestResetClearsRegistersPreservingConstants(t *testing.T) {
	q := NewWithConstants(4)
	if _, _, err := q.Exec(isa.Inst{Op: isa.OpQOne, QA: 100}, 0); err != nil {
		t.Fatal(err)
	}
	q.Reset()
	if got := q.Reg(100).Pop(); got != 0 {
		t.Fatalf("non-reserved @100 not cleared: pop %d", got)
	}
	if got := q.Reg(ConstOneReg()).Pop(); got != q.Reg(0).Channels() {
		t.Fatalf("constant @1 damaged by Reset: pop %d", got)
	}
	for k := 0; k < 4; k++ {
		if got := q.Reg(ConstHadReg(k)).Pop(); got != q.Reg(0).Channels()/2 {
			t.Fatalf("constant H%d damaged by Reset: pop %d", k, got)
		}
	}
}

// TestBackToBackProgramsSeeCleanState runs two different instruction
// sequences on one coprocessor with a Reset between them and verifies the
// second sees no residue — the single-machine version of the farm's pooled
// back-to-back regression.
func TestBackToBackProgramsSeeCleanState(t *testing.T) {
	q := New(4)
	// "Program" 1: saturate a few registers.
	for _, qa := range []uint8{0, 5, 200, 255} {
		if _, _, err := q.Exec(isa.Inst{Op: isa.OpQOne, QA: qa}, 0); err != nil {
			t.Fatal(err)
		}
	}
	q.Reset()
	// "Program" 2: a pop over every register must see zero everywhere.
	for qa := 0; qa < isa.NumQRegs; qa++ {
		out, writes, err := q.Exec(isa.Inst{Op: isa.OpQPop, QA: uint8(qa)}, 0)
		if err != nil || !writes {
			t.Fatalf("@%d pop: writes=%v err=%v", qa, writes, err)
		}
		meas, _, err := q.Exec(isa.Inst{Op: isa.OpQMeas, QA: uint8(qa)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out+meas != 0 {
			t.Fatalf("@%d holds population %d after Reset", qa, out+meas)
		}
	}
}

// assertFresh fails unless every register of q equals the same register of a
// newly built coprocessor of the same configuration: zero where not
// reserved, the intact constant where reserved.
func assertFresh(t testing.TB, q *Coprocessor, cfg Config, when string) {
	t.Helper()
	fresh, err := NewFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < isa.NumQRegs; r++ {
		if got, want := q.Reg(uint8(r)), fresh.Reg(uint8(r)); !got.Equal(want) {
			t.Fatalf("%s: @%d = %s, fresh coprocessor has %s", when, r, got, want)
		}
	}
}

// TestResetClearsEveryWrittenRegister writes registers through every Qat
// write op — including the second operand of swap and cswap, which only
// those two ops write — and through SetReg, then checks Reset restores the
// state of a fresh coprocessor. Reset zeroes only the registers it saw
// written, so a write path that failed to mark its register would leave
// residue here.
func TestResetClearsEveryWrittenRegister(t *testing.T) {
	ones := func(ways int) *aob.Vector { v := aob.New(ways); v.One(); return v }
	for _, ways := range []int{4, 16} {
		for _, constRegs := range []bool{false, true} {
			for _, backend := range []string{BackendDense, BackendRE} {
				cfg := Config{Ways: ways, ConstantRegs: constRegs, Backend: backend,
					ChunkWays: ways, SpillRuns: DefaultSpillRuns}
				t.Run(fmt.Sprintf("w%d/const=%v/%s", ways, constRegs, backend), func(t *testing.T) {
					q, err := NewFromConfig(cfg)
					if err != nil {
						t.Fatal(err)
					}
					// @100 is all ones and @101 a Hadamard pattern: the sources
					// every later write reads, so each destination ends nonzero.
					prog := []isa.Inst{
						{Op: isa.OpQOne, QA: 100},
						{Op: isa.OpQHad, QA: 101, K: uint8(ways - 1)},
						{Op: isa.OpQNot, QA: 102},
						{Op: isa.OpQAnd, QA: 103, QB: 100, QC: 101},
						{Op: isa.OpQOr, QA: 104, QB: 100, QC: 101},
						{Op: isa.OpQXor, QA: 105, QB: 100, QC: 101},
						{Op: isa.OpQCnot, QA: 106, QB: 101},
						{Op: isa.OpQCcnot, QA: 107, QB: 100, QC: 101},
						// swap/cswap move a nonzero value into their zero
						// second operand.
						{Op: isa.OpQOne, QA: 108},
						{Op: isa.OpQSwap, QA: 108, QB: 109},
						{Op: isa.OpQOne, QA: 110},
						{Op: isa.OpQCswap, QA: 110, QB: 111, QC: 101},
						{Op: isa.OpQOne, QA: 112},
						{Op: isa.OpQZero, QA: 112},
						{Op: isa.OpQNot, QA: 255},
						{Op: isa.OpQMeas, QA: 101},
						{Op: isa.OpQNext, QA: 101},
						{Op: isa.OpQPop, QA: 101},
					}
					for round := 0; round < 2; round++ {
						for _, inst := range prog {
							if _, _, err := q.Exec(inst, 0); err != nil {
								t.Fatalf("%s: %v", inst, err)
							}
						}
						q.SetReg(200, ones(ways))
						q.SetReg(254, ones(ways))
						for _, r := range []uint8{100, 101, 102, 103, 104, 105, 106, 107, 109, 111, 200, 254, 255} {
							if q.Reg(r).Pop() == 0 {
								t.Fatalf("fixture left @%d zero; it proves nothing about Reset", r)
							}
						}
						q.Reset()
						assertFresh(t, q, cfg, fmt.Sprintf("round %d", round))
					}
				})
			}
		}
	}
}

// TestResetAfterRejectedReservedWrite: a swap whose second operand is a
// reserved constant fails without writing either register, and Reset must
// still leave the constants intact.
func TestResetAfterRejectedReservedWrite(t *testing.T) {
	cfg := Config{Ways: 4, ConstantRegs: true}
	q, err := NewFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Exec(isa.Inst{Op: isa.OpQSwap, QA: 50, QB: ConstOneReg()}, 0); err == nil {
		t.Fatal("swap into a reserved constant succeeded")
	}
	q.Reset()
	assertFresh(t, q, cfg, "after rejected swap")
}

// FuzzResetClean runs a random Qat op sequence (with SetReg and Reset mixed
// in) over the whole register file and checks that after every Reset the
// coprocessor equals a fresh one. Input: byte 0 picks ways (1..8), constant
// registers (bit 4) and the RE backend (bit 5); then (op, a, b) byte
// triples, where a names the destination and b the sources.
func FuzzResetClean(f *testing.F) {
	f.Add([]byte{4, 0x01, 200, 0, 0x09, 200, 201, 0x0E, 7, 0, 0x01, 255, 0})
	f.Add([]byte{0x13, 0x02, 30, 1, 0x0A, 31, 32, 0x0F, 0, 0, 0x03, 255, 0})
	f.Add([]byte{0x28, 0x01, 9, 0, 0x0A, 9, 10, 0x0E, 11, 0, 0x04, 12, 9})
	f.Add([]byte{0x38, 0x01, 1, 0, 0x01, 40, 0, 0x09, 40, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		cfg := Config{Ways: 1 + int(data[0]%8), ConstantRegs: data[0]&0x10 != 0}
		if data[0]&0x20 != 0 {
			cfg.Backend, cfg.ChunkWays, cfg.SpillRuns = BackendRE, cfg.Ways, DefaultSpillRuns
		}
		q, err := NewFromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		val := aob.New(cfg.Ways)
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			switch sel := int(data[0]) % (len(qatOps) + 2); sel {
			case len(qatOps):
				// SetReg is a fixture helper that bypasses reservation;
				// overwriting a constant with it is outside the contract.
				if !q.reserved[data[1]] {
					val.Had(int(data[2]) % cfg.Ways)
					q.SetReg(data[1], val)
				}
			case len(qatOps) + 1:
				q.Reset()
				assertFresh(t, q, cfg, "mid-stream Reset")
			default:
				inst := isa.Inst{Op: qatOps[sel], QA: data[1], QB: data[2], QC: data[2] ^ data[1],
					K: data[2] % uint8(cfg.Ways)}
				q.Exec(inst, uint16(data[2]))
			}
		}
		q.Reset()
		assertFresh(t, q, cfg, "final Reset")
	})
}
