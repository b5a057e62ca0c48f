// Package profile is the static entanglement and cost profiler: an abstract
// interpretation over the lint CFG (lint.AnalyzeWithFacts) that computes,
// per program, a sound upper bound on the entanglement degree every Qat
// register can reach, a run-length-compressibility estimate from the pbit
// state lattice shared with the optimizer (opt.QState), and static
// switched/erased-bit energy bounds via energy.StaticCost.
//
// The degree analysis tracks, for each Qat register, the set of channel
// bits its value can depend on — a bitmask over the 2^ways solution
// channels' index bits. The loader zeroes the register file, so every set
// starts empty; `had k` creates dependence {k}; the binary gates union
// their operands' sets; `zero`/`one` re-initialization splits a register
// back to the empty set; CFG merge points join by set union; and an
// unresolved indirect jump (lint's imprecise mode) widens everything to the
// full width, because control may enter any block — even mid-block — with
// arbitrary register state. The bound is sound: the dynamically observed
// degree (the number of channel bits a register's dense vector actually
// varies over, see oracle.MaxEntanglementDegree) never exceeds it — the
// differential suite proves this over the whole farmtest corpus.
//
// The profile is attached to the originating lint.Facts as Facts.Profile
// and drives the backend auto-planner (internal/backend): degree and
// compressibility decide dense vs RE execution before a machine is built.
package profile

import (
	"math/bits"

	"tangled/internal/energy"
	"tangled/internal/isa"
	"tangled/internal/lint"
	"tangled/internal/opt"
	"tangled/internal/qat"
)

// Options parameterizes a profile computation.
type Options struct {
	// Ways is the execution width the profile assumes; 0 means the width the
	// facts were analyzed at (Facts.Ways). It may exceed Facts.Ways: lint
	// clamps its cost model to dense hardware, but the RE backend executes
	// up to qat.MaxREWays, and the planner profiles at the requested width.
	Ways int
	// ConstantRegs assumes the Section 5 constant-register variant: the
	// entry state seeds @1 = one and @(2+k) = had k instead of all-zero.
	ConstantRegs bool
}

// depset is the channel-dependence set of one register: bit k set means the
// register's value may depend on channel index bit k. qat.MaxREWays <= 32.
type depset = uint32

// Compute derives the static profile from f and attaches it as f.Profile.
// It never fails: an empty or imprecise program yields a conservative
// profile (degree widened to the full width).
func Compute(f *lint.Facts, opts Options) *lint.Profile {
	ways := opts.Ways
	if ways <= 0 {
		ways = f.Ways
	}
	if ways > qat.MaxREWays {
		ways = qat.MaxREWays
	}
	p := &lint.Profile{Ways: ways, Imprecise: f.Imprecise}
	top := depset(1)<<uint(ways) - 1

	c := &computer{f: f, opts: opts, ways: ways, top: top, p: p}
	for k := range c.uf {
		c.uf[k] = k
	}
	c.countOps()
	if f.Imprecise {
		c.widenAll()
	} else {
		c.fixpoint()
	}
	c.walkBlocks()
	c.finish()
	f.Profile = p
	return p
}

type computer struct {
	f    *lint.Facts
	opts Options
	ways int
	top  depset
	p    *lint.Profile

	// in holds the per-block entry dependence states once fixpoint runs.
	in [][isa.NumQRegs]depset
	// regMax/regunion accumulate the per-register degree bound and the union
	// of channels it ever depends on.
	regMax   [isa.NumQRegs]int
	regUnion [isa.NumQRegs]depset
	// uf is the union-find parent array over channel bits.
	uf [qat.MaxREWays]int
	// touched marks registers referenced by any reachable Qat instruction.
	touched [isa.NumQRegs]bool
}

// countOps tallies reachable instructions and marks Qat-touched registers.
func (c *computer) countOps() {
	for i := range c.f.Insts {
		fi := &c.f.Insts[i]
		if !fi.Reachable {
			continue
		}
		c.p.Insts++
		if !fi.Inst.Op.IsQat() {
			continue
		}
		c.p.QatOps++
		in := fi.Inst
		if in.Op == isa.OpQHad {
			if k := int(in.K) + 1; k <= c.ways && k > c.p.RequiredWays {
				c.p.RequiredWays = k
			}
		}
		f := in.Op.Facts()
		qs, n := in.QOperands(f.Reads | f.Writes)
		for _, q := range qs[:n] {
			c.touched[q] = true
		}
	}
}

// entrySeed is the loader's state: all-zero registers (empty sets), or the
// constant-register variant's had seeds.
func (c *computer) entrySeed() [isa.NumQRegs]depset {
	var s [isa.NumQRegs]depset
	if c.opts.ConstantRegs {
		for k := 0; k < c.ways && 2+k < isa.NumQRegs; k++ {
			s[2+k] = 1 << uint(k)
		}
	}
	return s
}

// entryBlock locates the block executing first (contains address 0), -1
// when address 0 decodes to nothing.
func (c *computer) entryBlock() int {
	i, ok := c.f.ByAddr[0]
	if !ok {
		return -1
	}
	return c.f.Insts[i].Block
}

// fixpoint runs the forward dataflow to a fixed point: block entry states
// join predecessors by union, transfer walks each block, and the finite
// union lattice guarantees termination.
func (c *computer) fixpoint() {
	n := len(c.f.Blocks)
	c.in = make([][isa.NumQRegs]depset, n)
	entry := c.entryBlock()
	for b := 0; b < n; b++ {
		if b == entry {
			c.in[b] = c.entrySeed()
		} else if len(c.f.Blocks[b].Preds) == 0 {
			// A reachable block no edge enters (defensive: precise graphs
			// reach every non-entry block through an edge): assume the worst.
			for q := range c.in[b] {
				c.in[b][q] = c.top
			}
		}
	}
	work := make([]int, 0, n)
	queued := make([]bool, n)
	for b := 0; b < n; b++ {
		work = append(work, b)
		queued[b] = true
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		out := c.in[b]
		for _, ii := range c.f.Blocks[b].Insts {
			c.transfer(&out, c.f.Insts[ii].Inst)
		}
		for _, s := range c.f.Blocks[b].Succs {
			changed := false
			for q := range out {
				if c.in[s][q]|out[q] != c.in[s][q] {
					c.in[s][q] |= out[q]
					changed = true
				}
			}
			if changed && !queued[s] {
				work = append(work, s)
				queued[s] = true
			}
		}
	}
}

// transfer applies one instruction's dependence-set semantics in place.
func (c *computer) transfer(st *[isa.NumQRegs]depset, in isa.Inst) {
	a, b, cc := in.QA, in.QB, in.QC
	switch in.Op {
	case isa.OpQZero, isa.OpQOne:
		st[a] = 0
	case isa.OpQHad:
		st[a] = (1 << uint(in.K)) & c.top
	case isa.OpQNot:
		// complement: same dependence set
	case isa.OpQAnd, isa.OpQOr, isa.OpQXor:
		st[a] = st[b] | st[cc]
	case isa.OpQCnot:
		st[a] |= st[b]
	case isa.OpQCcnot:
		st[a] |= st[b] | st[cc]
	case isa.OpQSwap:
		st[a], st[b] = st[b], st[a]
	case isa.OpQCswap:
		u := st[a] | st[b] | st[cc]
		st[a], st[b] = u, u
	case isa.OpQMeas, isa.OpQNext, isa.OpQPop:
		// pure reductions: Qat state is read, never written
	default:
		// Defensive against future Qat-writing ops this switch does not
		// model: widen whatever the instruction writes.
		d := lint.DefSet(in)
		for q := 0; q < isa.NumQRegs; q++ {
			if d.HasQat(uint8(q)) {
				st[q] = c.top
			}
		}
	}
}

// widenAll is the imprecise-mode result: an unresolved indirect jump may
// transfer control anywhere (including mid-block) with arbitrary register
// state, so every touched register is bound by the full width.
func (c *computer) widenAll() {
	for q := range c.touched {
		if c.touched[q] {
			c.regMax[q] = c.ways
			c.regUnion[q] = c.top
		}
	}
}

// walkBlocks produces the per-block profile rows — degree maxima on the
// precise path, compressibility from the opt pbit lattice, and the
// energy.StaticCost bounds — and accumulates the program totals.
func (c *computer) walkBlocks() {
	entry := -1
	if e := c.entryBlock(); e >= 0 && len(c.f.Blocks) > e && len(c.f.Blocks[e].Preds) == 0 {
		entry = e // only a pred-less entry block may assume the loader seed
	}
	for b := range c.f.Blocks {
		bf := &c.f.Blocks[b]
		bp := lint.BlockProfile{ID: b, InLoop: bf.InLoop}
		if bf.InLoop {
			c.p.LoopBlocks++
		}
		if len(bf.Insts) > 0 {
			first := &c.f.Insts[bf.Insts[0]]
			last := &c.f.Insts[bf.Insts[len(bf.Insts)-1]]
			bp.Start = first.Addr
			bp.End = last.Addr + uint16(last.Words)
		}

		// Degree walk (precise path): record maxima and union-find merges at
		// the block entry and after every instruction.
		var st [isa.NumQRegs]depset
		if !c.f.Imprecise {
			st = c.in[b]
			bp.MaxDegree = c.observe(&st)
		} else {
			bp.MaxDegree = c.ways
		}

		// Compressibility walk: the opt pbit lattice, seeded with the
		// loader's all-zero state in the entry block, unknown elsewhere
		// (block-local, exactly as the optimizer's energy pass seeds it).
		var qs [isa.NumQRegs]opt.QState
		if b == entry && !c.f.Imprecise {
			for q := range qs {
				qs[q] = opt.QState{Kind: opt.QZero}
			}
			if c.opts.ConstantRegs {
				qs[1] = opt.QState{Kind: opt.QOne}
				for k := 0; k < c.ways && 2+k < isa.NumQRegs; k++ {
					qs[2+k] = opt.QState{Kind: opt.QHad, K: uint8(k)}
				}
			}
		}

		for _, ii := range bf.Insts {
			in := c.f.Insts[ii].Inst
			if !c.f.Imprecise {
				c.transfer(&st, in)
				if d := c.observe(&st); d > bp.MaxDegree {
					bp.MaxDegree = d
				}
			}
			if in.Op.IsQat() {
				sw, er := energy.StaticCost(in.Op, c.ways)
				bp.SwitchedBits += sw
				bp.ErasedBits += er
			}
			if written, structured := qTransfer(&qs, in); written {
				bp.QatWrites++
				if structured {
					bp.StructuredWrites++
				}
			}
		}
		c.p.QatWrites += bp.QatWrites
		c.p.StructuredWrites += bp.StructuredWrites
		c.p.SwitchedBound += bp.SwitchedBits
		c.p.ErasedBound += bp.ErasedBits
		c.p.Blocks = append(c.p.Blocks, bp)
	}
}

// observe folds the current state into the per-register accumulators and
// the channel union-find, returning the largest degree present.
func (c *computer) observe(st *[isa.NumQRegs]depset) int {
	max := 0
	for q := range st {
		d := st[q]
		if d == 0 {
			continue
		}
		n := bits.OnesCount32(d)
		if n > c.regMax[q] {
			c.regMax[q] = n
		}
		c.regUnion[q] |= d
		if n > max {
			max = n
		}
		if n > 1 {
			c.union(d)
		}
	}
	return max
}

// union merges every channel bit of d into one union-find component.
func (c *computer) union(d depset) {
	first := -1
	for k := 0; k < c.ways; k++ {
		if d&(1<<uint(k)) == 0 {
			continue
		}
		if first < 0 {
			first = k
			continue
		}
		ra, rb := c.find(first), c.find(k)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			c.uf[rb] = ra
		}
	}
}

func (c *computer) find(k int) int {
	for c.uf[k] != k {
		k = c.uf[k]
	}
	return k
}

// qTransfer applies one instruction to the pbit state lattice, reporting
// whether it writes Qat registers and whether every written value is proven
// structured (non-unknown). Mirrors the optimizer's energy-pass semantics.
func qTransfer(st *[isa.NumQRegs]opt.QState, in isa.Inst) (written, structured bool) {
	a, b, c := in.QA, in.QB, in.QC
	known := func(s opt.QState) bool { return s.Kind != opt.QUnknown }
	switch in.Op {
	case isa.OpQZero:
		st[a] = opt.QState{Kind: opt.QZero}
		return true, true
	case isa.OpQOne:
		st[a] = opt.QState{Kind: opt.QOne}
		return true, true
	case isa.OpQHad:
		st[a] = opt.QState{Kind: opt.QHad, K: in.K}
		return true, true
	case isa.OpQNot:
		st[a] = opt.QInvert(st[a])
		return true, known(st[a])
	case isa.OpQAnd:
		st[a] = opt.QAnd(st[b], st[c])
		return true, known(st[a])
	case isa.OpQOr:
		st[a] = opt.QOr(st[b], st[c])
		return true, known(st[a])
	case isa.OpQXor:
		st[a] = opt.QXor(st[b], st[c])
		return true, known(st[a])
	case isa.OpQCnot:
		st[a] = opt.QXor(st[a], st[b])
		return true, known(st[a])
	case isa.OpQCcnot:
		st[a] = opt.QXor(st[a], opt.QAnd(st[b], st[c]))
		return true, known(st[a])
	case isa.OpQSwap:
		st[a], st[b] = st[b], st[a]
		return true, known(st[a]) && known(st[b])
	case isa.OpQCswap:
		switch {
		case st[c].Kind == opt.QZero:
			// control never set: no-op
		case st[c].Kind == opt.QOne:
			st[a], st[b] = st[b], st[a]
		default:
			st[a], st[b] = opt.QState{}, opt.QState{}
		}
		return true, known(st[a]) && known(st[b])
	}
	return false, false
}

// finish assembles the register list, the channel groups, the degree bound
// and the compressibility ratio.
func (c *computer) finish() {
	for q := 0; q < isa.NumQRegs; q++ {
		if c.regMax[q] == 0 {
			continue
		}
		re := lint.RegEntanglement{Reg: q, Degree: c.regMax[q]}
		for k := 0; k < c.ways; k++ {
			if c.regUnion[q]&(1<<uint(k)) != 0 {
				re.Channels = append(re.Channels, k)
			}
		}
		c.p.Regs = append(c.p.Regs, re)
		if c.regMax[q] > c.p.DegreeBound {
			c.p.DegreeBound = c.regMax[q]
		}
	}
	if c.f.Imprecise {
		// All channels entangled as far as the analysis can tell.
		if c.ways > 1 && c.p.QatOps > 0 {
			all := make([]int, c.ways)
			for k := range all {
				all[k] = k
			}
			c.p.Groups = [][]int{all}
		}
	} else {
		members := make(map[int][]int)
		for k := 0; k < c.ways; k++ {
			r := c.find(k)
			members[r] = append(members[r], k)
		}
		for k := 0; k < c.ways; k++ {
			if g := members[k]; len(g) > 1 {
				c.p.Groups = append(c.p.Groups, g)
			}
		}
	}
	if c.p.QatWrites == 0 {
		c.p.Compressibility = 1
	} else {
		c.p.Compressibility = float64(c.p.StructuredWrites) / float64(c.p.QatWrites)
	}
}
