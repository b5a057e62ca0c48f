package isa

import "math/bits"

// The opcode table: every per-opcode fact the toolchain needs, stated once.
// Each row says which operand fields the instruction reads and writes,
// whether it touches memory, how it can divert or stop control flow, and
// the few classifications other packages key on (reversibility for the
// energy model, bf16 arithmetic for cycle accounting, EX latency for the
// pipeline). The pipeline's hazard masks, the multi-cycle timing model, the
// energy classes, the Qat write checks and word-op costs, and the effect
// sets the dataflow analyses use are all projections of this table; the
// conformance test in package oracle pins every one of them to it, and
// effects_test.go pins the table to the executing models.

// Slot is a set of operand fields of an Inst, as a bitmask.
type Slot uint8

const (
	SlotRD Slot = 1 << iota // Tangled register field RD ($d, or $c for branches)
	SlotRS                  // Tangled register field RS
	SlotQA                  // Qat register fields
	SlotQB
	SlotQC
)

// Latency classifies an instruction's EX-stage occupancy; the pipeline
// maps the multi-cycle classes onto its configured latencies.
type Latency uint8

const (
	LatOne     Latency = iota // a single cycle
	LatMul                    // the integer multiply
	LatQatNext                // the next/pop OR-reduction over a whole register
)

// OpFacts is one opcode's row of the table.
type OpFacts struct {
	Name   string
	Format Format

	// Reads and Writes are the operand fields the op reads and writes.
	// FixedReads are Tangled registers read whatever the fields say (bit r
	// = $r): sys reads its service selector $0 and argument $1.
	Reads, Writes Slot
	FixedReads    uint16

	// MemRead / MemWrite report data-memory traffic (load / store).
	MemRead, MemWrite bool
	// Control reports that the op can divert the PC (brf, brt, jumpr);
	// MayHalt that it can stop the machine (sys with the halt service).
	Control, MayHalt bool

	// Reversible marks the Qat ops that are self-inverse bijections on the
	// register file (not, cnot, ccnot, swap, cswap); every other op that
	// writes a Qat register destroys its destination's prior value.
	Reversible bool
	// Float marks bf16 arithmetic and int/float conversion.
	Float bool
	// Latency is the op's EX occupancy class.
	Latency Latency
}

const (
	rr   = SlotRD | SlotRS
	qabc = SlotQA | SlotQB | SlotQC
	qab  = SlotQA | SlotQB
)

var table = [numOps]OpFacts{
	OpAdd:    {Name: "add", Format: FmtRR, Reads: rr, Writes: SlotRD},
	OpAddf:   {Name: "addf", Format: FmtRR, Reads: rr, Writes: SlotRD, Float: true},
	OpAnd:    {Name: "and", Format: FmtRR, Reads: rr, Writes: SlotRD},
	OpBrf:    {Name: "brf", Format: FmtBr, Reads: SlotRD, Control: true},
	OpBrt:    {Name: "brt", Format: FmtBr, Reads: SlotRD, Control: true},
	OpCopy:   {Name: "copy", Format: FmtRR, Reads: SlotRS, Writes: SlotRD},
	OpFloat:  {Name: "float", Format: FmtR, Reads: SlotRD, Writes: SlotRD, Float: true},
	OpInt:    {Name: "int", Format: FmtR, Reads: SlotRD, Writes: SlotRD, Float: true},
	OpJumpr:  {Name: "jumpr", Format: FmtR, Reads: SlotRD, Control: true},
	OpLex:    {Name: "lex", Format: FmtRI, Writes: SlotRD},
	OpLhi:    {Name: "lhi", Format: FmtRI, Reads: SlotRD, Writes: SlotRD}, // keeps the low byte
	OpLoad:   {Name: "load", Format: FmtRR, Reads: SlotRS, Writes: SlotRD, MemRead: true},
	OpMul:    {Name: "mul", Format: FmtRR, Reads: rr, Writes: SlotRD, Latency: LatMul},
	OpMulf:   {Name: "mulf", Format: FmtRR, Reads: rr, Writes: SlotRD, Float: true},
	OpNeg:    {Name: "neg", Format: FmtR, Reads: SlotRD, Writes: SlotRD},
	OpNegf:   {Name: "negf", Format: FmtR, Reads: SlotRD, Writes: SlotRD, Float: true},
	OpNot:    {Name: "not", Format: FmtR, Reads: SlotRD, Writes: SlotRD},
	OpOr:     {Name: "or", Format: FmtRR, Reads: rr, Writes: SlotRD},
	OpRecip:  {Name: "recip", Format: FmtR, Reads: SlotRD, Writes: SlotRD, Float: true},
	OpShift:  {Name: "shift", Format: FmtRR, Reads: rr, Writes: SlotRD},
	OpSlt:    {Name: "slt", Format: FmtRR, Reads: rr, Writes: SlotRD},
	OpStore:  {Name: "store", Format: FmtRR, Reads: rr, MemWrite: true},
	OpSys:    {Name: "sys", Format: FmtNone, FixedReads: 1<<0 | 1<<1, MayHalt: true},
	OpXor:    {Name: "xor", Format: FmtRR, Reads: rr, Writes: SlotRD},
	OpQZero:  {Name: "zero", Format: FmtQ1, Writes: SlotQA},
	OpQOne:   {Name: "one", Format: FmtQ1, Writes: SlotQA},
	OpQNot:   {Name: "qnot", Format: FmtQ1, Reads: SlotQA, Writes: SlotQA, Reversible: true},
	OpQHad:   {Name: "had", Format: FmtQHad, Writes: SlotQA},
	OpQMeas:  {Name: "meas", Format: FmtQMeas, Reads: SlotRD | SlotQA, Writes: SlotRD},
	OpQNext:  {Name: "next", Format: FmtQMeas, Reads: SlotRD | SlotQA, Writes: SlotRD, Latency: LatQatNext},
	OpQAnd:   {Name: "qand", Format: FmtQ3, Reads: SlotQB | SlotQC, Writes: SlotQA},
	OpQOr:    {Name: "qor", Format: FmtQ3, Reads: SlotQB | SlotQC, Writes: SlotQA},
	OpQXor:   {Name: "qxor", Format: FmtQ3, Reads: SlotQB | SlotQC, Writes: SlotQA},
	OpQCnot:  {Name: "cnot", Format: FmtQ2, Reads: qab, Writes: SlotQA, Reversible: true},
	OpQCcnot: {Name: "ccnot", Format: FmtQ3, Reads: qabc, Writes: SlotQA, Reversible: true},
	OpQSwap:  {Name: "swap", Format: FmtQ2, Reads: qab, Writes: qab, Reversible: true},
	OpQCswap: {Name: "cswap", Format: FmtQ3, Reads: qabc, Writes: qab, Reversible: true},
	OpQPop:   {Name: "pop", Format: FmtQMeas, Reads: SlotRD | SlotQA, Writes: SlotRD, Latency: LatQatNext},
}

// Facts returns op's row of the table; an undefined op gets the zero row.
func (op Op) Facts() OpFacts {
	if op < numOps {
		return table[op]
	}
	return OpFacts{}
}

// QWrites returns how many Qat operand fields the op writes: 2 for swap and
// cswap, 1 for the other gates, 0 for meas/next/pop and Tangled ops.
func (f OpFacts) QWrites() int { return bits.OnesCount8(uint8(f.Writes & qabc)) }

// regs projects the Tangled fields of s onto i as a register bitmask.
func (s Slot) regs(i Inst) (m uint16) {
	if s&SlotRD != 0 {
		m |= 1 << (i.RD & 0xF)
	}
	if s&SlotRS != 0 {
		m |= 1 << (i.RS & 0xF)
	}
	return m
}

// RegReads returns the Tangled registers i reads, as a bitmask (bit r = $r).
func (i Inst) RegReads() uint16 {
	f := i.Op.Facts()
	return f.FixedReads | f.Reads.regs(i)
}

// RegWrites returns the Tangled registers i writes, as a bitmask.
func (i Inst) RegWrites() uint16 { return i.Op.Facts().Writes.regs(i) }

// QOperands returns the Qat registers the fields of s name on i, in QA,
// QB, QC order, as regs[:n]. Repeated registers are kept.
func (i Inst) QOperands(s Slot) (regs [3]uint8, n int) {
	if s&SlotQA != 0 {
		regs[n], n = i.QA, n+1
	}
	if s&SlotQB != 0 {
		regs[n], n = i.QB, n+1
	}
	if s&SlotQC != 0 {
		regs[n], n = i.QC, n+1
	}
	return regs, n
}

// Effects describes the architectural reads and writes of one decoded
// instruction. Tangled registers are bitmasks over the 16-entry file; Qat
// registers are listed explicitly (at most three read, two written).
type Effects struct {
	// ReadRegs and WriteRegs are bitmasks of Tangled registers read and
	// written (bit r = register $r).
	ReadRegs  uint16
	WriteRegs uint16

	// QReads and QWrites list the Qat registers read and written; only the
	// first NQReads / NQWrites entries are meaningful.
	QReads   [3]uint8
	NQReads  uint8
	QWrites  [2]uint8
	NQWrites uint8

	// MemRead / MemWrite report data-memory traffic (load / store).
	MemRead  bool
	MemWrite bool

	// Control reports that the instruction can divert the PC (brf, brt,
	// jumpr). MayHalt reports that it can stop the machine (sys with the
	// halt service code).
	Control bool
	MayHalt bool
}

// qread / qwrite append a Qat register to the effect sets, deduplicating so
// "xor @1,@1,@1" reports each register once.
func (e *Effects) qread(q uint8) {
	for i := uint8(0); i < e.NQReads; i++ {
		if e.QReads[i] == q {
			return
		}
	}
	e.QReads[e.NQReads] = q
	e.NQReads++
}

func (e *Effects) qwrite(q uint8) {
	for i := uint8(0); i < e.NQWrites; i++ {
		if e.QWrites[i] == q {
			return
		}
	}
	e.QWrites[e.NQWrites] = q
	e.NQWrites++
}

// ReadsQat reports whether q is in the instruction's Qat read set.
func (e Effects) ReadsQat(q uint8) bool {
	for i := uint8(0); i < e.NQReads; i++ {
		if e.QReads[i] == q {
			return true
		}
	}
	return false
}

// WritesQat reports whether q is in the instruction's Qat write set.
func (e Effects) WritesQat(q uint8) bool {
	for i := uint8(0); i < e.NQWrites; i++ {
		if e.QWrites[i] == q {
			return true
		}
	}
	return false
}

// InstEffects projects op's row of the table onto i's operand fields.
func InstEffects(i Inst) Effects {
	f := i.Op.Facts()
	e := Effects{
		ReadRegs:  i.RegReads(),
		WriteRegs: i.RegWrites(),
		MemRead:   f.MemRead,
		MemWrite:  f.MemWrite,
		Control:   f.Control,
		MayHalt:   f.MayHalt,
	}
	rs, n := i.QOperands(f.Reads)
	for _, q := range rs[:n] {
		e.qread(q)
	}
	ws, n := i.QOperands(f.Writes)
	for _, q := range ws[:n] {
		e.qwrite(q)
	}
	return e
}
