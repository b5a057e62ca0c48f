// Command perfbench is the repository's serving benchmark. It starts an
// in-process fleet on loopback, configured like qatserver, drives it with
// one of four seeded workloads, checks every result, and prints one JSON
// line of metrics: the end-to-end metrics with --trace 0, the per-layer
// breakdown with --trace 1. See README.md in this directory.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload run-seq --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupRounds is how many times a run sets the fleet up; setup_s is the
// median and the last fleet serves the untraced phase.
const setupRounds = 3

type config struct {
	w        *workload
	seed     int64
	seconds  int
	phase    time.Duration // length of each timed phase
	trace    bool
	commit   string
	out      string
	nproc    int
	clients  int // sender goroutines that run ops
	senders  int // every sender goroutine, the event reader included
	maxConns int
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: run-seq, mix-routed, batch-sat or jobs-durable")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per phase")
	trace := flag.Int("trace", 0, "1: per-layer metrics from a traced replay; 0: end-to-end metrics")
	commit := flag.String("commit", "unknown", "commit of the code under test (for the host block)")
	out := flag.String("out", ".bench_build/perfbench", "directory for reports and span dumps")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload {run-seq|mix-routed|batch-sat|jobs-durable} --seed N --seconds N --trace 0|1")
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		commit: *commit, out: *out, nproc: runtime.NumCPU()}
	cfg.phase = time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		// Two phases, untraced and traced, share the run's length.
		cfg.phase /= 2
	}
	cfg.clients = w.clients
	if cfg.clients < 0 {
		cfg.clients = cfg.nproc
	}
	cfg.senders, cfg.maxConns = cfg.clients, cfg.clients
	if w.fleet == fleetJobs {
		cfg.senders++ // the event-stream reader, on its own connection
		cfg.maxConns++
	}
	if cfg.senders > cfg.nproc || cfg.maxConns > cfg.nproc {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to record: %s needs %d sender goroutines and %d connections, more than nproc=%d\n",
			w.name, cfg.senders, cfg.maxConns, cfg.nproc)
		return 2
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res, rep, err := bench(&cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if peak := rep.Host.PeakConns; peak > cfg.nproc {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to record: %d connections were open at once, more than nproc=%d\n", peak, cfg.nproc)
		return 2
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("report-%s-seed%d-trace%d.json", w.name, cfg.seed, *trace))
	if err := writeJSON(path, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	host, _ := json.Marshal(map[string]interface{}{"host": rep.Host})
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(host))
	fmt.Println(string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostBlock records where and how a run was made.
type hostBlock struct {
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
	Senders      int    `json:"sender_goroutines"`
	MaxConns     int    `json:"max_connections"`
	PeakConns    int    `json:"peak_connections"`
	Dials        int    `json:"connections_dialed"`
}

type report struct {
	Host     hostBlock         `json:"host"`
	Why      string            `json:"why"`
	Result   result            `json:"result"`
	Phases   []phaseSummary    `json:"phases"`
	Failures []string          `json:"failures,omitempty"`
	Spans    string            `json:"spans,omitempty"`
	Extra    map[string]metric `json:"extra,omitempty"`
}

type phaseSummary struct {
	Name      string `json:"name"`
	Ops       int    `json:"ops"`
	Failed    int    `json:"failed"`
	Programs  int    `json:"programs"`
	ElapsedMs int64  `json:"elapsed_ms"`
}

func bench(cfg *config) (result, *report, error) {
	rep := &report{Why: cfg.w.why, Host: hostBlock{
		NumCPU: cfg.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: cfg.commit, SourceSHA256: sourceDigest(), Workload: cfg.w.name, Seed: cfg.seed,
		Seconds: cfg.seconds, Trace: cfg.trace, Senders: cfg.senders, MaxConns: cfg.maxConns,
	}}
	ctx := context.Background()

	// Set up several times; the last fleet serves the untraced phase.
	var setups []time.Duration
	var st *stand
	for r := 0; r < setupRounds; r++ {
		if st != nil {
			noteConns(rep, st.c)
			st.close()
		}
		var err error
		if st, err = setup(ctx, cfg, nil); err != nil {
			return result{}, nil, err
		}
		setups = append(setups, st.took)
	}
	untraced := runPhase(ctx, cfg, st)
	st.close()
	phases := []*phase{untraced}
	noteConns(rep, st.c)

	var tr *tracer
	var traced *phase
	if cfg.trace {
		tr = newTracer()
		tst, err := setup(ctx, cfg, tr)
		if err != nil {
			return result{}, nil, err
		}
		tr.reset() // keep only the timed ops' spans
		traced = runPhase(ctx, cfg, tst)
		tst.close()
		noteConns(rep, tst.c)
		phases = append(phases, traced)
		rp := newReplayer(tr, cfg.w.fleet == fleetRouted)
		if err := rp.prime(ctx, st.in); err != nil {
			return result{}, nil, err
		}
		rp.replay(ctx, cfg, st.in, traced)
	}

	ck := newChecker(cfg.nproc, st.in)
	ck.wantAsm = cfg.trace
	for _, ph := range phases {
		ck.check(ctx, cfg.w, st.in, ph)
	}
	inv := simInvariants(ctx)

	res := result{Correct: ck.mismatches == 0 && inv.err == nil, Metrics: map[string]metric{}}
	for _, ph := range phases {
		res.Attempted += len(ph.recs)
		res.Failed += ph.failed()
		rep.Phases = append(rep.Phases, ph.summary())
	}
	rep.Failures = append(ck.failures, transportErrors(phases)...)
	if inv.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: SIMULATOR INVARIANCE DRIFT: %v\n", inv.err)
		rep.Failures = append(rep.Failures, inv.err.Error())
	}
	if cfg.trace {
		kern := aobKernels(tr)
		spans := tr.snapshot()
		res.Metrics = layerMetrics(cfg, st.in, untraced, traced, spans, ck, inv, kern)
		rep.Spans = filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.w.name, cfg.seed))
		if err := writeSpans(rep.Spans, spans); err != nil {
			return result{}, nil, err
		}
	} else {
		res.Metrics = endToEnd(cfg, untraced, median(setups))
	}
	rep.Extra = latencyByKind(cfg, st.in, untraced)
	for _, f := range rep.Failures[:min(len(rep.Failures), 5)] {
		fmt.Fprintf(os.Stderr, "perfbench: failure: %s\n", f)
	}
	rep.Result = res
	return res, rep, nil
}

func noteConns(rep *report, c *client) {
	peak, dials := c.conns.stats()
	rep.Host.PeakConns = max(rep.Host.PeakConns, peak)
	rep.Host.Dials += dials
}

// transportErrors lists the first failed requests of the phases.
func transportErrors(phases []*phase) []string {
	var out []string
	for _, ph := range phases {
		for _, r := range ph.recs {
			if r.err != "" && len(out) < 20 {
				out = append(out, fmt.Sprintf("op %d: %s", r.index, r.err))
			}
		}
	}
	return out
}

// stand is one set-up fleet with its client and inputs.
type stand struct {
	fl   *fleet
	c    *client
	in   *inputs
	dir  string
	took time.Duration
}

func setup(ctx context.Context, cfg *config, tr *tracer) (*stand, error) {
	start := time.Now()
	in, err := genInputs(cfg.w, cfg.seed)
	if err != nil {
		return nil, err
	}
	st := &stand{in: in}
	if cfg.w.fleet == fleetJobs {
		if st.dir, err = os.MkdirTemp(cfg.out, "wal-"); err != nil {
			return nil, err
		}
	}
	if st.fl, err = startFleet(cfg.w.fleet, st.dir, tr); err != nil {
		return nil, err
	}
	st.c = newClient(st.fl.base, cfg.maxConns, tr)
	sctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := st.fl.converge(sctx, st.c); err != nil {
		st.close()
		return nil, err
	}
	if cfg.w.fleet == fleetJobs {
		if err := st.c.watch(ctx); err != nil {
			st.close()
			return nil, err
		}
	}
	for _, o := range cfg.w.warm(in, cfg.clients) {
		var rec opRecord
		st.c.do(sctx, &o, &rec)
		if rec.err != "" {
			st.close()
			return nil, fmt.Errorf("warm-up op %s: %s", o.id, rec.err)
		}
	}
	st.took = time.Since(start)
	return st, nil
}

func (st *stand) close() {
	st.fl.close()
	st.c.stopWatch()
	st.c.close()
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// sourceDigest hashes the module's Go sources, so a report names the code
// it measured even where the checkout is not a git repository.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// parallel runs fn(i) for i in [0, n) on k goroutines and waits for them.
func parallel(k, n int, fn func(i int)) {
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for g := 0; g < k; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
