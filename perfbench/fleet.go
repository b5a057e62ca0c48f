package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"tangled/internal/cluster"
	"tangled/internal/farm"
	"tangled/internal/obs"
	"tangled/internal/server"
)

// fleet is an in-process serving fleet on loopback, configured like
// qatserver: metrics registry on, default memo and coalescer. The
// benchmark owns the listeners so that, when tracing, it can wrap each
// Handler().ServeHTTP in a span.
type fleet struct {
	workers   []*server.Server
	coord     *cluster.Coordinator
	listeners []*http.Server
	base      string // URL the clients send to
	walPath   string // jobs fleets only
}

const workerNodes = 3

func startFleet(kind fleetKind, dir string, tr *tracer) (*fleet, error) {
	f := &fleet{}
	n := 1
	if kind == fleetRouted {
		n = workerNodes
	}
	var urls []string
	for i := 0; i < n; i++ {
		cfg := server.Config{Registry: obs.NewRegistry()}
		if kind == fleetJobs {
			cfg.JobsDir = dir
			f.walPath = filepath.Join(dir, "jobs.wal")
		}
		srv, err := server.New(cfg)
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, srv)
		url, err := f.serve(srv.Handler(), tr, "server.handler")
		if err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, url)
	}
	f.base = urls[0]
	if kind != fleetRouted {
		return f, nil
	}
	co, err := cluster.New(cluster.Config{Nodes: urls, Registry: obs.NewRegistry()})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = co
	// Start runs the heartbeat loop; its own listener stays idle because
	// the clients use the benchmark's listener below.
	if _, err := co.Start("127.0.0.1:0"); err != nil {
		f.close()
		return nil, err
	}
	if f.base, err = f.serve(co.Handler(), tr, "coordinator.handler"); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// serve mounts h on a fresh loopback listener, wrapped in a span when
// tracing, and returns its base URL.
func (f *fleet) serve(h http.Handler, tr *tracer, name string) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	if tr != nil {
		h = &tracedHandler{h: h, tr: tr, name: name}
	}
	hs := &http.Server{Handler: h}
	f.listeners = append(f.listeners, hs)
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// converge waits until the coordinator's heartbeat has probed every worker
// (each node row carries the worker's own health) and all are healthy.
func (f *fleet) converge(ctx context.Context, c *client) error {
	if f.coord == nil {
		return nil
	}
	for {
		var h server.ClusterHealth
		if err := c.getJSON(ctx, "/v1/healthz", &h); err == nil && h.NodesHealthy == workerNodes {
			probed := 0
			for _, n := range h.Nodes {
				if n.State == "healthy" && n.Workers > 0 {
					probed++
				}
			}
			if probed == workerNodes {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("heartbeat convergence: %w", ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// engines returns the workers' farm engines (their Totals feed the farm
// layer's throughput and pool figures).
func (f *fleet) engines() []*farm.Engine {
	var es []*farm.Engine
	for _, w := range f.workers {
		es = append(es, w.Engine())
	}
	return es
}

func (f *fleet) walSize() int64 {
	if f.walPath == "" {
		return 0
	}
	st, err := os.Stat(f.walPath)
	if err != nil {
		return 0
	}
	return st.Size()
}

// close drains the fleet: the coordinator first, then the workers (which
// closes the job store and ends event streams), then the listeners.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if f.coord != nil {
		f.coord.Drain(ctx)
	}
	for _, w := range f.workers {
		w.Drain(ctx)
	}
	for _, hs := range f.listeners {
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			hs.Close()
		}
	}
}

// tracedHandler records one span around Handler().ServeHTTP. Its parent is
// the client span named in the X-Bench-Span header; its request ID is the
// one the handler set on the response.
type tracedHandler struct {
	h    http.Handler
	tr   *tracer
	name string
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/events" || r.URL.Path == "/v1/healthz" {
		t.h.ServeHTTP(w, r)
		return
	}
	id, start := t.tr.begin()
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 32)
	t.h.ServeHTTP(w, r)
	t.tr.end(id, int32(parent), t.name, w.Header().Get("X-Request-ID"), r.URL.Path, start)
}
