package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// JSONSnapshot holds the latest marshalled JSON document for an endpoint
// that must not race with its producer. The training loop refreshes it at
// safe points (episode boundaries); the HTTP handler serves whatever
// version is current. Safe for concurrent Set/Get.
type JSONSnapshot struct {
	p atomic.Pointer[[]byte]
}

// Set replaces the snapshot.
func (s *JSONSnapshot) Set(data []byte) {
	d := append([]byte(nil), data...)
	s.p.Store(&d)
}

// Get returns the latest snapshot, or nil if none was set yet.
func (s *JSONSnapshot) Get() []byte {
	if d := s.p.Load(); d != nil {
		return *d
	}
	return nil
}

// ServerConfig wires the live endpoints.
type ServerConfig struct {
	// Registry backs /metrics. Required.
	Registry *Registry
	// Profilez backs /profilez; typically a JSONSnapshot refreshed by the
	// training loop. Optional — nil serves 404.
	Profilez *JSONSnapshot
	// Tracez backs /tracez; typically (*trace.Tracer).Handler() serving
	// the span ring as Chrome-trace JSON. Optional — nil serves 404.
	Tracez http.Handler
}

// Mount registers /metrics, /healthz and /tracez on mux: the three
// endpoints a daemon serves on its own listener as well as on the
// observability server, from one copy of the handlers.
func (cfg ServerConfig) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ExpositionContentType)
		_ = cfg.Registry.WriteExposition(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Tracez == nil {
			http.Error(w, "tracing not enabled", http.StatusNotFound)
			return
		}
		cfg.Tracez.ServeHTTP(w, r)
	})
}

// Server is the opt-in observability HTTP server. Endpoints:
//
//	/metrics       Prometheus text exposition of the registry
//	/profilez      latest profiler state as JSON (when configured)
//	/tracez        span ring as Chrome-trace JSON (when configured)
//	/healthz       liveness: 200 "ok"
//	/debug/pprof/  net/http/pprof profiles (heap, goroutine, CPU, trace)
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// StartServer listens on addr (host:port; port 0 picks a free port) and
// serves in a background goroutine until Close.
func StartServer(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("telemetry: StartServer needs a Registry")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	cfg.Mount(mux)
	mux.HandleFunc("/profilez", func(w http.ResponseWriter, _ *http.Request) {
		var data []byte
		if cfg.Profilez != nil {
			data = cfg.Profilez.Get()
		}
		if data == nil {
			http.Error(w, "no profile snapshot yet", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(data)
	})
	// pprof registers on DefaultServeMux via its init; mount the handlers
	// explicitly so this mux stays self-contained.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately.
func (s *Server) Close() error { return s.srv.Close() }
