package obs

// The operational face: one handler serving the registry as Prometheus
// text at /metrics, the standard expvar JSON at /debug/vars (with the
// registry published alongside the runtime's memstats), and the pprof
// endpoints under /debug/pprof/. cmd/qatfarm and cmd/tangled-run mount it
// with -http.

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so one that dribbles them cannot hold a connection and its
// goroutine forever. A variable only so tests can shorten it.
var readHeaderTimeout = 10 * time.Second

// idleTimeout closes keep-alive connections left idle this long.
const idleTimeout = 2 * time.Minute

// NewHTTPServer returns the http.Server every listener in the repository
// serves h with (qatserver, the cluster coordinator, the debug face): the
// header and idle timeouts are set; the write and whole-request timeouts
// are not, because event streams outlive any fixed bound and request
// bodies are already bounded by http.MaxBytesReader.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// expvarOnce guards the process-wide expvar name; expvar.Publish panics on
// duplicates, and tests may build several handlers.
var expvarOnce sync.Once

// Handler returns an http.Handler exposing r at /metrics plus the expvar
// and pprof debug endpoints.
func Handler(r *Registry) http.Handler {
	expvarOnce.Do(func() {
		expvar.Publish("tangled_metrics", expvar.Func(func() interface{} {
			return r.Snapshot()
		}))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts Handler(r) on addr in a background goroutine and returns the
// server (Close/Shutdown to stop) and its bound address — useful when addr
// ends in :0.
func Serve(addr string, r *Registry) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := NewHTTPServer(Handler(r))
	go srv.Serve(ln)
	return srv, ln.Addr(), nil
}
