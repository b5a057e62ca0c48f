package cpu

import "tangled/internal/isa"

// The class projects built a multi-cycle Tangled/Qat before pipelining it;
// this file models that machine's timing so the pipelined speedup can be
// quantified. A multi-cycle implementation spends one state per step
// actually needed by the instruction:
//
//	fetch (one per instruction word) + decode + execute
//	+ memory access (load/store only)
//	+ register write-back (instructions producing a Tangled result)
//
// Pure Qat operations update the coprocessor register file during execute
// and need no separate write-back state (the Qat file is written by the
// coprocessor datapath, not the Tangled register file).

// MultiCyclesFor returns the multi-cycle machine's state count for one
// instruction.
func MultiCyclesFor(inst isa.Inst) uint64 {
	f := inst.Op.Facts()
	n := uint64(inst.Words()) // fetch states
	n += 2                    // decode + execute
	if f.MemRead || f.MemWrite {
		n++ // memory state
	}
	if f.Writes&isa.SlotRD != 0 {
		n++ // write-back state
	}
	return n
}
