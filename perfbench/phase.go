package main

import (
	"context"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"tangled/internal/farm"
)

// phase is one timed run of a workload against one fleet.
type phase struct {
	name     string
	recs     []*opRecord // by op index
	t0, tEnd time.Time
	cpu      time.Duration
	heapPeak uint64
	rt       rtSample // runtime counters over the phase
	farm     farm.Stats
}

func (ph *phase) elapsed() time.Duration { return ph.tEnd.Sub(ph.t0) }

func (ph *phase) failed() int {
	n := 0
	for _, r := range ph.recs {
		if !r.ok() {
			n++
		}
	}
	return n
}

func (ph *phase) summary() phaseSummary {
	s := phaseSummary{Name: ph.name, Ops: len(ph.recs), Failed: ph.failed(), ElapsedMs: ph.elapsed().Milliseconds()}
	for _, r := range ph.recs {
		s.Programs += r.programs
	}
	return s
}

// runPhase drives st's fleet for cfg.phase with cfg.clients senders. In a
// closed loop each sends its next op as soon as the previous one is done.
// A paced workload (rate > 0) spreads the rate over the senders: each is
// due to send one op every clients/rate, staggered, and a sender whose op
// overran its next due time sends right away and restarts its schedule
// from then, so a slow spell never turns into a burst of catch-up sends.
func runPhase(ctx context.Context, cfg *config, st *stand) *phase {
	ph := &phase{name: "untraced"}
	if st.c.tr != nil {
		ph.name = "traced"
	}
	before := engineTotals(st.fl)
	rt0 := readRuntime()
	cpu0 := cpuTime()
	stopHeap := sampleHeap(&ph.heapPeak)

	var mu sync.Mutex
	next := 0
	ph.t0 = time.Now()
	deadline := ph.t0.Add(cfg.phase)
	var period time.Duration
	if cfg.w.rate > 0 {
		period = time.Duration(float64(time.Second) / cfg.w.rate)
	}
	interval := time.Duration(cfg.clients) * period
	var wg sync.WaitGroup
	for g := 0; g < cfg.clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wal := st.fl.walSize()
			due := ph.t0.Add(time.Duration(g) * period)
			for {
				if period == 0 {
					due = time.Now()
				}
				if !due.Before(deadline) {
					return
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				o := cfg.w.op(st.in, i)
				rec := &opRecord{index: i, due: due, start: time.Now(), programs: len(o.progs)}
				st.c.do(ctx, &o, rec)
				if st.c.tr != nil && st.fl.walPath != "" {
					size := st.fl.walSize()
					rec.walBytes = size - wal
					wal = size
				}
				mu.Lock()
				ph.recs = append(ph.recs, rec)
				mu.Unlock()
				if due = due.Add(interval); due.Before(rec.end) {
					due = rec.end
				}
			}
		}()
	}
	wg.Wait()
	ph.tEnd = time.Now()
	ph.cpu = cpuTime() - cpu0
	stopHeap()
	ph.rt = readRuntime().sub(rt0)
	after := engineTotals(st.fl)
	ph.farm = after
	ph.farm.Jobs -= before.Jobs
	ph.farm.PoolHits -= before.PoolHits
	ph.farm.PoolMisses -= before.PoolMisses
	ph.farm.MemoHits -= before.MemoHits
	sort.Slice(ph.recs, func(a, b int) bool { return ph.recs[a].index < ph.recs[b].index })
	return ph
}

// engineTotals sums the fleet's farm engine totals.
func engineTotals(f *fleet) farm.Stats {
	var s farm.Stats
	for _, e := range f.engines() {
		t := e.Totals()
		s.Jobs += t.Jobs
		s.PoolHits += t.PoolHits
		s.PoolMisses += t.PoolMisses
		s.MemoHits += t.MemoHits
	}
	return s
}

// rtSample holds the cumulative runtime counters the per-op figures use.
type rtSample struct {
	allocObjs, allocBytes uint64
	gcCPU, totalCPU, idle float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocObjs: u(0), allocBytes: u(1), gcCPU: f(2), totalCPU: f(3), idle: f(4)}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{
		allocObjs: a.allocObjs - b.allocObjs, allocBytes: a.allocBytes - b.allocBytes,
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU, idle: a.idle - b.idle,
	}
}

// allocObjects is the process's cumulative heap allocation count.
func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sampleHeap samples the bytes of heap objects every 5ms until the
// returned stop function is called (stop waits for the sampler), and sets
// peak to the median over one-second windows of each window's highest
// sample: the heap's usual peak, steadier than the single highest sample,
// which depends on where one collection happened to fall.
func sampleHeap(peak *uint64) (stop func()) {
	const window = 200 // samples: one second
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		var peaks []float64
		var cur uint64
		n := 0
		for {
			metrics.Read(s)
			cur = max(cur, s[0].Value.Uint64())
			if n++; n == window {
				peaks = append(peaks, float64(cur))
				cur, n = 0, 0
			}
			select {
			case <-done:
				if len(peaks) == 0 || n >= window/2 {
					peaks = append(peaks, float64(cur))
				}
				*peak = uint64(medianF(peaks))
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
