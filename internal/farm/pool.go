package farm

import (
	"sync"
	"sync/atomic"

	"tangled/internal/pipeline"
)

// poolKey identifies a class of interchangeable machines: one mode over
// one canonical machine config (the register file as backend.Canonicalize
// leaves it, plus the pipeline timing of pipelined machines; comparable
// value types both).
type poolKey struct {
	pipelined bool
	cfg       pipeline.Config
}

// machinePool wraps sync.Pool with hit/miss accounting. sync.Pool itself
// reports nothing, so get distinguishes a recycled machine (hit) from a nil
// that forces the caller to allocate (miss).
type machinePool struct {
	p sync.Pool
}

// batchCounters aggregates pool traffic for one Engine.Run call.
type batchCounters struct {
	hits, misses atomic.Uint64
}

// unalloc retracts a previously counted miss when machine construction
// failed and no allocation actually happened.
func (bc *batchCounters) unalloc() {
	bc.misses.Add(^uint64(0))
}

func (mp *machinePool) get(bc *batchCounters) interface{} {
	v := mp.p.Get()
	if v != nil {
		bc.hits.Add(1)
	} else {
		bc.misses.Add(1)
	}
	return v
}

func (mp *machinePool) put(v interface{}) { mp.p.Put(v) }

// pool returns the machine pool for key, creating it on first use.
func (e *Engine) pool(key poolKey) *machinePool {
	e.mu.Lock()
	defer e.mu.Unlock()
	mp, ok := e.pools[key]
	if !ok {
		mp = &machinePool{}
		e.pools[key] = mp
	}
	return mp
}
