package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// quantile is the nearest-rank q-quantile of xs (which it sorts); 0 when
// xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func medianF(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func median(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(medianF(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencies returns the latencies of ph's successful ops, in ms.
func latencies(ph *phase) []float64 {
	var xs []float64
	for _, r := range ph.recs {
		if r.ok() {
			xs = append(xs, ms(r.latency()))
		}
	}
	return xs
}

// windowed is the median, over the phase's one-second windows of send
// times, of each window's q-quantile latency. On a shared VM, bursts of
// interference a few seconds long (10-15% of the CPU stolen under load)
// moved a whole-run p90 by up to 40% between runs; this median moves only
// when most of a run is disturbed.
func windowed(ph *phase, q float64) float64 {
	var windows [][]float64
	for _, r := range ph.recs {
		if !r.ok() {
			continue
		}
		w := int(r.start.Sub(ph.t0) / time.Second)
		for len(windows) <= w {
			windows = append(windows, nil)
		}
		windows[w] = append(windows[w], ms(r.latency()))
	}
	var qs []float64
	for _, xs := range windows {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return medianF(qs)
}

// endToEnd is what a client of the fleet sees, from the untraced phase.
func endToEnd(cfg *config, ph *phase, setup time.Duration) map[string]metric {
	attempted := float64(len(ph.recs))
	var ok, slo, programs float64
	for _, r := range ph.recs {
		if r.ok() {
			ok++
			programs += float64(r.programs)
			if r.latency() <= cfg.w.limit {
				slo++
			}
		}
	}
	el := ph.elapsed().Seconds()
	return map[string]metric{
		"setup_s":        {setup.Seconds(), "s"},
		"p50_ms":         {windowed(ph, 0.5), "ms"},
		"p90_ms":         {windowed(ph, 0.9), "ms"},
		"ops_per_s":      {ok / el, "1/s"},
		"programs_per_s": {programs / el, "1/s"},
		"slo_frac":       {ratio(slo, attempted), "frac"},
		"ok_frac":        {ratio(ok, attempted), "frac"},
		"cpu_ms_per_op":  {ratio(ms(ph.cpu), attempted), "ms"},
		"heap_peak_mb":   {float64(ph.heapPeak) / (1 << 20), "MiB"},
	}
}

// latencyByKind breaks the phase's latencies down by op shape (the first
// program's class, or batch), to show where p50 and p90 fall, and adds the
// senders' lateness (sent minus due) and the latency timed from the due
// time.
func latencyByKind(cfg *config, in *inputs, ph *phase) map[string]metric {
	groups := map[string][]float64{}
	for _, r := range ph.recs {
		if !r.ok() {
			continue
		}
		o := cfg.w.op(in, r.index)
		kind := [...]string{"miss", "hot", "dense", "pipelined", "re"}[o.progs[0].class]
		if o.progs[0].req.Backend == "auto" {
			kind = "hot-auto"
		}
		if o.kind == opBatch {
			kind = "batch"
		}
		groups[kind] = append(groups[kind], ms(r.latency()))
	}
	var late, fromDue []float64
	for _, r := range ph.recs {
		if r.ok() {
			late = append(late, ms(r.start.Sub(r.due)))
			fromDue = append(fromDue, ms(r.end.Sub(r.due)))
		}
	}
	out := map[string]metric{
		"lateness.p50_ms": {quantile(late, 0.5), "ms"},
		"lateness.p90_ms": {quantile(late, 0.9), "ms"},
		"from_due.p50_ms": {quantile(fromDue, 0.5), "ms"},
		"from_due.p90_ms": {quantile(fromDue, 0.9), "ms"},
	}
	for kind, xs := range groups {
		out[kind+".share"] = metric{float64(len(xs)) / float64(len(ph.recs)), "frac"}
		out[kind+".p50_ms"] = metric{quantile(xs, 0.5), "ms"}
		out[kind+".p90_ms"] = metric{quantile(xs, 0.9), "ms"}
	}
	return out
}

// spanIndex groups the traced run's spans for the per-layer figures.
type spanIndex struct {
	spans  []span
	self   map[int32]time.Duration
	byName map[string][]*span
	byReq  map[string][]*span
	byID   map[int32]*span
}

func indexSpans(spans []span) *spanIndex {
	linkOrphans(spans, "server.handler", "coordinator.handler")
	ix := &spanIndex{spans: spans, self: selfTimes(spans),
		byName: map[string][]*span{}, byReq: map[string][]*span{}, byID: map[int32]*span{}}
	for i := range spans {
		s := &spans[i]
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		ix.byReq[s.Req] = append(ix.byReq[s.Req], s)
		ix.byID[s.ID] = s
	}
	return ix
}

// p50 is the median duration of the spans named name, in unit.
func (ix *spanIndex) p50(name string, unit time.Duration) float64 {
	var xs []float64
	for _, s := range ix.byName[name] {
		xs = append(xs, float64(s.dur())/float64(unit))
	}
	return quantile(xs, 0.5)
}

// selfP50 is the median self time of the spans named name, in ms.
func (ix *spanIndex) selfP50(name string) float64 {
	var xs []float64
	for _, s := range ix.byName[name] {
		xs = append(xs, ms(ix.self[s.ID]))
	}
	return quantile(xs, 0.5)
}

// perReq sums, per request, the durations of the spans named in names.
func (ix *spanIndex) perReq(req string, names ...string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range ix.byReq[req] {
		for _, name := range names {
			if s.Name == name {
				d += s.dur()
				n++
			}
		}
	}
	return d, n
}

// residualP50 is the median, over requests with one worker handler span,
// of that handler's duration minus the replayed layer calls it makes: the
// coalescer wait, admission and codec. A job's submit handler assembles
// but neither probes nor executes.
func (ix *spanIndex) residualP50(jobs bool) float64 {
	layers := []string{"asm.Assemble", "backend.PlanAuto", "memo.MemoKey", "memo.MemoProbe", "farm.Run"}
	if jobs {
		layers = layers[:1]
	}
	var xs []float64
	for req, ss := range ix.byReq {
		var h *span
		n := 0
		for _, s := range ss {
			if s.Name == "server.handler" {
				h, n = s, n+1
			}
		}
		if n != 1 {
			continue
		}
		d, k := ix.perReq(req, layers...)
		if k == 0 {
			continue
		}
		xs = append(xs, ms(h.dur()-d))
	}
	return quantile(xs, 0.5)
}

// layerMetrics is the per-layer breakdown of a traced run.
func layerMetrics(cfg *config, in *inputs, untraced, traced *phase, spans []span, ck *checker, inv invariants, kern map[string]float64) map[string]metric {
	ix := indexSpans(spans)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// client: the untraced phase's sender side.
	lat := latencies(untraced)
	var late []float64
	var retries, rejected float64
	for _, r := range untraced.recs {
		late = append(late, ms(r.start.Sub(r.due)))
		retries += float64(r.retries)
		rejected += float64(r.rejected)
	}
	put("client.p99_ms", quantile(append([]float64(nil), lat...), 0.99), "ms")
	put("client.samples", float64(len(lat)), "count")
	put("client.lateness_ms_p99", quantile(late, 0.99), "ms")
	put("client.retries", retries, "count")
	put("client.rejected_429", rejected, "count")
	put("client.failed_frac", ratio(float64(untraced.failed()), float64(len(untraced.recs))), "frac")

	// server: handler spans of the traced phase joined with the replay.
	var handler []float64
	for _, s := range ix.byName["server.handler"] {
		if s.Req != "" { // status polls carry no request ID
			handler = append(handler, ms(s.dur()))
		}
	}
	put("server.handler_ms_p50", quantile(handler, 0.5), "ms")
	put("server.residual_ms_p50", ix.residualP50(cfg.w.fleet == fleetJobs), "ms")
	var codec []float64
	for req := range ix.byReq {
		if d, n := ix.perReq(req, "server.codec"); n > 0 {
			codec = append(codec, us(d))
		}
	}
	put("server.codec_us_p50", quantile(codec, 0.5), "us")
	var loop []float64
	for _, s := range ix.byName["client.http"] {
		if _, ok := ix.self[s.ID]; ok && s.Attr != "/v1/events" {
			loop = append(loop, ms(ix.self[s.ID]))
		}
	}
	put("server.loopback_ms_p50", quantile(loop, 0.5), "ms")

	// asm, memo, and on the routed fleet backend and cluster: replayed
	// calls.
	put("asm.assemble_us_p50", ix.p50("asm.Assemble", time.Microsecond), "us")
	var asmNs, words float64
	for _, s := range ix.byName["asm.Assemble"] {
		w, _ := strconv.Atoi(s.Attr)
		asmNs += float64(s.dur())
		words += float64(w)
	}
	put("asm.ns_per_word", ratio(asmNs, words), "ns/word")
	put("asm.allocs_per_program", ratio(float64(ck.asmAllocs), float64(ck.asmPrograms)), "count")
	put("memo.key_us_p50", ix.p50("memo.MemoKey", time.Microsecond), "us")
	put("memo.probe_us_p50", ix.p50("memo.MemoProbe", time.Microsecond), "us")
	var served, cached, hot, hotCached float64
	for _, r := range traced.recs {
		if r.err != "" {
			continue
		}
		o := cfg.w.op(in, r.index)
		for j := range o.progs {
			res := servedResult(r, j)
			if res == nil {
				continue
			}
			served++
			if res.Cached {
				cached++
			}
			if o.progs[j].class == classHot {
				hot++
				if res.Cached {
					hotCached++
				}
			}
		}
	}
	put("memo.hit_frac", ratio(cached, served), "frac")
	if cfg.w.fleet == fleetRouted {
		put("backend.plan_us_p50", ix.p50("backend.PlanAuto", time.Microsecond), "us")
		put("cluster.route_key_us_p50", ix.p50("cluster.RouteKey", time.Microsecond), "us")
		put("cluster.forward_ms_p50", ix.selfP50("coordinator.handler"), "ms")
		put("cluster.affinity_frac", ratio(hotCached, hot), "frac")
	}

	// farm: replayed runs, the fleet's engine totals and the reference runs.
	for _, mode := range []string{"dense", "pipelined", "re"} {
		var xs []float64
		for _, s := range ix.byName["farm.job"] {
			if s.Attr == mode {
				xs = append(xs, us(s.dur()))
			}
		}
		put("farm.exec_us."+mode, quantile(xs, 0.5), "us")
	}
	put("farm.jobs_per_s", float64(traced.farm.Jobs)/traced.elapsed().Seconds(), "1/s")
	var waits []float64
	for _, s := range ix.byName["farm.job"] {
		if p := ix.byID[s.Parent]; p != nil {
			waits = append(waits, ms(time.Duration(s.Start-p.Start)))
		}
	}
	put("farm.queue_wait_ms_p50", quantile(waits, 0.5), "ms")
	fj := ck.jobs["dense"] + ck.jobs["re"]
	put("farm.allocs_per_job", ratio(float64(ck.allocs["dense"]+ck.allocs["re"]), float64(fj)), "count")
	put("farm.pool_hit_frac", ratio(float64(traced.farm.PoolHits), float64(traced.farm.PoolHits+traced.farm.PoolMisses)), "frac")

	// cpu, pipeline: simulator speed on this workload's programs, and the
	// pinned counts of the fixed set.
	put("cpu.insts_per_s", ratio(float64(ck.insts["dense"]+ck.insts["re"]), (ck.exec["dense"]+ck.exec["re"]).Seconds()), "1/s")
	put("cpu.insts_total", float64(inv.insts), "count")
	put("pipeline.cycles_per_s", ratio(float64(ck.cycles["pipelined"]), ck.exec["pipelined"].Seconds()), "1/s")
	put("pipeline.cycles_total", float64(inv.cycles), "count")
	put("pipeline.cpi", inv.cpi(), "cycles/inst")
	put("pipeline.allocs_per_job", ratio(float64(ck.allocs["pipelined"]), float64(ck.jobs["pipelined"])), "count")

	for name, v := range kern {
		put(name, v, "ns")
	}

	// jobs: the traced phase's submissions and JobStatus timestamps.
	var submit, queue, run, wal []float64
	for _, r := range traced.recs {
		if r.job == nil {
			continue
		}
		submit = append(submit, ms(r.submit))
		if j := r.job; j.Started != nil && j.Finished != nil {
			queue = append(queue, ms(j.Started.Sub(j.Submitted)))
			run = append(run, ms(j.Finished.Sub(*j.Started)))
		}
		if r.walBytes > 0 {
			wal = append(wal, float64(r.walBytes))
		}
	}
	if cfg.w.fleet == fleetJobs {
		put("jobs.submit_ms_p50", quantile(submit, 0.5), "ms")
		put("jobs.queue_ms_p50", quantile(queue, 0.5), "ms")
		put("jobs.run_ms_p50", quantile(run, 0.5), "ms")
		put("jobs.wal_bytes_per_job", quantile(wal, 0.5), "B")
	}

	// runtime and trace: the untraced phase, and the traced one against it.
	ops := float64(len(untraced.recs))
	put("runtime.allocs_per_op", ratio(float64(untraced.rt.allocObjs), ops), "count")
	put("runtime.alloc_kb_per_op", ratio(float64(untraced.rt.allocBytes)/1024, ops), "KiB")
	put("runtime.gc_cpu_frac", ratio(untraced.rt.gcCPU, untraced.rt.totalCPU-untraced.rt.idle), "frac")
	perOpU := ratio(float64(untraced.cpu), ops)
	perOpT := ratio(float64(traced.cpu), float64(len(traced.recs)))
	put("trace.overhead_frac", ratio(perOpT, perOpU)-1, "frac")
	return m
}
