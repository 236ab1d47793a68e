package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"marlperf/internal/netretry"
	"marlperf/internal/trace"
)

// HTTP paths served by the gateway server.
const (
	PathAct     = "/act"
	PathHealthz = "/healthz"
	PathStatz   = "/statz"
)

// maxActBody bounds one /act request body; observation frames are small
// (tens of floats), so 1 MiB is already generous.
const maxActBody = 1 << 20

// ActRequest is the JSON /act request body.
type ActRequest struct {
	// Obs holds one observation row per agent, at the serving widths.
	Obs [][]float64 `json:"obs"`
}

// ActReply is the JSON /act response body.
type ActReply struct {
	Version uint64 `json:"version"`
	Actions []int  `json:"actions"`
}

// Statz is the /statz JSON document.
type Statz struct {
	Ready    bool   `json:"ready"`
	Version  uint64 `json:"version"`
	Previous uint64 `json:"previous"`
	Agents   int    `json:"agents"`
	ObsDims  []int  `json:"obs_dims"`
	ActDim   int    `json:"act_dim"`
}

// Server exposes a Gateway over HTTP:
//
//	POST /act      — one observation set in, one action vector out.
//	     JSON (default) or binary (Content-Type: application/octet-stream,
//	     see wire.go); the reply mirrors the request encoding and always
//	     carries X-Serve-Version. `?version=N` pins a retained snapshot.
//	GET  /healthz  — 200 once a policy is installed, 503 before (the
//	     readiness gate: a fleet fronts the gateway only after it can act).
//	GET  /statz    — JSON serving-state document (versions, shape).
//
// Inbound X-Marl-Trace headers are deliberately ignored: /act spans descend
// from the serving snapshot's install position so one trace ID runs learner
// update → publish → install → request, and the response header hands that
// position to the client for its own after-the-fact spans.
type Server struct {
	gw  *Gateway
	mux *http.ServeMux

	closed   atomic.Bool
	inflight sync.WaitGroup
}

// NewServer wraps a gateway.
func NewServer(gw *Gateway) (*Server, error) {
	if gw == nil {
		return nil, fmt.Errorf("serve: NewServer needs a Gateway")
	}
	s := &Server{gw: gw}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc(PathAct, s.handleAct)
	s.mux.HandleFunc(PathHealthz, s.handleHealthz)
	s.mux.HandleFunc(PathStatz, s.handleStatz)
	return s, nil
}

// Handler returns the service mux for mounting alongside other endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleAct(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.closed.Load() {
		http.Error(w, ErrDraining.Error(), http.StatusServiceUnavailable)
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Done()

	// Query() parses into a fresh map on every call: only a request that
	// has a query pays for one.
	var version uint64
	if r.URL.RawQuery != "" {
		if q := r.URL.Query().Get("version"); q != "" {
			v, err := strconv.ParseUint(q, 10, 64)
			if err != nil || v == 0 {
				http.Error(w, fmt.Sprintf("bad version %q", q), http.StatusBadRequest)
				return
			}
			version = v
		}
	}

	// Observation frames are a few hundred bytes: one exact-size buffer per
	// request, nothing worth pooling — and a binary frame's rows are views
	// of it, so it lives until the gateway has answered.
	body, err := netretry.ReadBody(r.Body, r.ContentLength, maxActBody, nil)
	if err != nil {
		http.Error(w, err.Error(), netretry.BodyStatus(err))
		return
	}

	binaryReq := strings.HasPrefix(r.Header.Get("Content-Type"), "application/octet-stream")
	var obs [][]float64
	if binaryReq {
		dims, _ := s.gw.Dims()
		if dims == nil {
			http.Error(w, ErrNotReady.Error(), http.StatusServiceUnavailable)
			return
		}
		obs, err = DecodeObsFrame(body, dims)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	} else {
		var req ActRequest
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, fmt.Sprintf("bad JSON body: %v", err), http.StatusBadRequest)
			return
		}
		obs = req.Obs
	}

	res, err := s.gw.Act(version, obs)
	if err != nil {
		http.Error(w, err.Error(), actErrStatus(err))
		return
	}
	w.Header().Set("X-Serve-Version", strconv.FormatUint(res.Version, 10))
	if res.TraceCtx.Valid() {
		w.Header().Set(trace.HeaderName, trace.FormatHeader(res.TraceCtx))
	}
	if binaryReq {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(EncodeActReply(nil, res.Version, res.Actions))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ActReply{Version: res.Version, Actions: res.Actions})
}

// actErrStatus maps gateway errors onto HTTP status codes.
func actErrStatus(err error) int {
	switch {
	case errors.Is(err, ErrNotReady), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case strings.Contains(err.Error(), "not retained"):
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if !s.gw.Ready() {
		http.Error(w, "no policy installed yet", http.StatusServiceUnavailable)
		return
	}
	head, _ := s.gw.Versions()
	fmt.Fprintf(w, "ok version=%d\n", head)
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	head, prev := s.gw.Versions()
	dims, actDim := s.gw.Dims()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(Statz{
		Ready:    s.gw.Ready(),
		Version:  head,
		Previous: prev,
		Agents:   len(dims),
		ObsDims:  dims,
		ActDim:   actDim,
	})
}

// BeginDrain flips the server into drain mode — new /act requests answer
// 503 — waits for in-flight handlers, then drains the gateway's batch
// loop. Call before shutting the HTTP listener down so every accepted
// request gets a real answer. Idempotent.
func (s *Server) BeginDrain(timeout time.Duration) error {
	if s.closed.Swap(true) {
		return nil
	}
	s.inflight.Wait()
	return s.gw.Drain(timeout)
}
