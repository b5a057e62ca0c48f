package oracle

// QatBackend adapts a full qat.Coprocessor to the oracle interface, so the
// differential layer exercises the real serving path — instruction dispatch,
// reserved-register checks, and whichever register file (dense or RE) the
// config selected — not just the kernels.

import (
	"fmt"

	"tangled/internal/isa"
	"tangled/internal/qat"
)

// QatBackend drives a coprocessor through Exec.
type QatBackend struct {
	q       *qat.Coprocessor
	label   string
	numRegs int
}

// NewQat wraps a coprocessor built from cfg, which spells its geometry
// explicitly: qat.NewFromConfig takes it literally, and the defaults belong
// to package backend, which oracle cannot import (backend's profile
// dependency tests its soundness against this package). numRegs bounds the
// registers the op sequences touch (at most isa.NumQRegs).
func NewQat(cfg qat.Config, numRegs int) (*QatBackend, error) {
	q, err := qat.NewFromConfig(cfg)
	if err != nil {
		return nil, err
	}
	label := "qat-" + q.Backend()
	if cfg.Backend == qat.BackendRE && cfg.SpillRuns > 0 {
		label += "-spill"
	}
	return &QatBackend{q: q, label: label, numRegs: numRegs}, nil
}

func (b *QatBackend) Name() string { return b.label }
func (b *QatBackend) Ways() int    { return b.q.Ways() }
func (b *QatBackend) NumRegs() int { return b.numRegs }

// Coprocessor exposes the wrapped instance for backend-specific assertions
// (spill counts, symbol-table health).
func (b *QatBackend) Coprocessor() *qat.Coprocessor { return b.q }

var opToISA = map[Op]isa.Op{
	OpZero: isa.OpQZero, OpOne: isa.OpQOne, OpHad: isa.OpQHad, OpNot: isa.OpQNot,
	OpAnd: isa.OpQAnd, OpOr: isa.OpQOr, OpXor: isa.OpQXor,
	OpCNot: isa.OpQCnot, OpCCNot: isa.OpQCcnot,
	OpSwap: isa.OpQSwap, OpCSwap: isa.OpQCswap,
	OpMeas: isa.OpQMeas, OpNext: isa.OpQNext, OpPopAfter: isa.OpQPop,
}

func (b *QatBackend) Apply(inst Inst) error {
	op, ok := opToISA[inst.Op]
	if !ok {
		return fmt.Errorf("%s: %s is not a register op", b.label, inst.Op)
	}
	qi := isa.Inst{Op: op, QA: uint8(inst.D), QB: uint8(inst.S), QC: uint8(inst.U), K: uint8(inst.K)}
	// The abstract form writes D from S and U; the ISA's three-operand ops
	// write QA from QB and QC, which already lines up. The two-operand
	// in-place gates (cnot/ccnot) read QA as the accumulated operand, which
	// also lines up with the abstract D.
	_, _, err := b.q.Exec(qi, 0)
	return err
}

func (b *QatBackend) Reduce(inst Inst) (uint64, error) {
	// The coprocessor takes the probe channel from a 16-bit Tangled
	// register; mask the abstract channel the same way.
	rd := uint16(inst.Ch)
	switch inst.Op {
	case OpMeas, OpNext, OpPopAfter:
		out, writes, err := b.q.Exec(isa.Inst{Op: opToISA[inst.Op], QA: uint8(inst.D)}, rd)
		if err != nil {
			return 0, err
		}
		if !writes {
			return 0, fmt.Errorf("%s: %s produced no write-back", b.label, inst.Op)
		}
		return uint64(out), nil
	case OpPop:
		// POP is PopAfter(0) + Meas(0), the paper's decomposition.
		after, _, err := b.q.Exec(isa.Inst{Op: isa.OpQPop, QA: uint8(inst.D)}, 0)
		if err != nil {
			return 0, err
		}
		bit, _, err := b.q.Exec(isa.Inst{Op: isa.OpQMeas, QA: uint8(inst.D)}, 0)
		if err != nil {
			return 0, err
		}
		return uint64(after) + uint64(bit), nil
	}
	return 0, fmt.Errorf("%s: %s is not a reduction", b.label, inst.Op)
}

func (b *QatBackend) Read(d int) ([]bool, error) {
	return b.q.Reg(uint8(d)).Bits(), nil
}
