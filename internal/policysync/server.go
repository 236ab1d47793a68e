package policysync

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"marlperf/internal/netretry"
	"marlperf/internal/telemetry"
	"marlperf/internal/trace"
)

// ServerConfig wires a policy distribution server.
type ServerConfig struct {
	// Store backs the endpoints. Required.
	Store *Store
	// MaxWait caps one long-poll hold. Defaults to 30s.
	MaxWait time.Duration
	// MaxFrameBytes bounds one published snapshot. Defaults to 256 MiB.
	MaxFrameBytes int64
	// Registry receives service metrics; nil creates a private registry.
	Registry *telemetry.Registry
	// Tracer, when set and enabled, records a server span per traced
	// publish and per fetch that serves a traced version. Independent of
	// the tracer, the publisher's trace context is always relayed to
	// fetchers via the X-Marl-Trace response header, so actors can join
	// the learner's trace even when policyd itself is not tracing.
	Tracer *trace.Tracer
}

// Server exposes a Store over HTTP:
//
//	GET  /v1/policy?after=N&wait=5s  — fetch the newest snapshot frame.
//	     Blocks up to wait while no version newer than N exists (N also
//	     comes from If-None-Match: "vN"), then answers 200 with the frame
//	     (ETag "vM", X-Policy-Version/X-Policy-Updates headers), 304 when
//	     nothing newer arrived, or 404 when nothing was ever published.
//	POST /v1/policy                  — publish one frame (the learner's
//	     cadence-driven push). Validated end to end before acceptance.
//	GET  /v1/policy/stats            — JSON version/updates/bytes document.
type Server struct {
	cfg ServerConfig
	mux *http.ServeMux

	fetches   *telemetry.Counter
	notModded *telemetry.Counter
	fetchedB  *telemetry.Counter
}

// NewServer validates cfg and registers metrics.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("policysync: NewServer needs a Store")
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 30 * time.Second
	}
	if cfg.MaxFrameBytes <= 0 {
		cfg.MaxFrameBytes = 256 << 20
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		cfg:       cfg,
		fetches:   reg.Counter("marl_policy_fetches_total"),
		notModded: reg.Counter("marl_policy_not_modified_total"),
		fetchedB:  reg.Counter("marl_policy_fetched_bytes_total"),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc(PathPolicy, s.handlePolicy)
	s.mux.HandleFunc(PathStats, s.handleStats)
	return s, nil
}

// Handler returns the service mux for mounting alongside other endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.handleFetch(w, r)
	case http.MethodPost:
		s.handlePublish(w, r)
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
	}
}

// etagVersion parses `"vN"` (quotes optional) into N.
func etagVersion(tag string) (uint64, bool) {
	tag = strings.Trim(strings.TrimSpace(tag), `"`)
	if !strings.HasPrefix(tag, "v") {
		return 0, false
	}
	v, err := strconv.ParseUint(tag[1:], 10, 64)
	return v, err == nil
}

func (s *Server) handleFetch(w http.ResponseWriter, r *http.Request) {
	after := uint64(0)
	if tag := r.Header.Get("If-None-Match"); tag != "" {
		if v, ok := etagVersion(tag); ok {
			after = v
		}
	}
	if q := r.URL.Query().Get("after"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad after %q", q), http.StatusBadRequest)
			return
		}
		after = v
	}
	var wait time.Duration
	if q := r.URL.Query().Get("wait"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d < 0 {
			http.Error(w, fmt.Sprintf("bad wait %q", q), http.StatusBadRequest)
			return
		}
		wait = d
	}
	if wait > s.cfg.MaxWait {
		wait = s.cfg.MaxWait
	}

	s.fetches.Inc()
	start := time.Now()
	version, updates, frame := s.cfg.Store.Wait(after, wait)
	if version == 0 {
		http.Error(w, "no policy published yet", http.StatusNotFound)
		return
	}
	w.Header().Set("ETag", fmt.Sprintf(`"v%d"`, version))
	w.Header().Set("X-Policy-Version", strconv.FormatUint(version, 10))
	w.Header().Set("X-Policy-Updates", strconv.FormatUint(updates, 10))
	if version <= after {
		s.notModded.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	// Relay the publish's trace position so the fetcher's install joins
	// the publisher's trace. Guarded on the version match: a publish that
	// raced in after Wait returned must not lend its context to this
	// older frame.
	if pv, pctx := s.cfg.Store.PublishContext(); pv == version && pctx.Valid() {
		w.Header().Set(trace.HeaderName, trace.FormatHeader(pctx))
		if sp := s.cfg.Tracer.StartSpanAt(pctx, "fetch-serve", start); sp.Valid() {
			defer func() { sp.EndArg("version", int64(version)) }()
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	n, _ := w.Write(frame)
	s.fetchedB.Add(uint64(n))
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	// The store keeps the frame by reference, so the body gets its own
	// exact-size allocation rather than a pooled buffer.
	body, err := netretry.ReadBody(r.Body, r.ContentLength, s.cfg.MaxFrameBytes, nil)
	if err != nil {
		http.Error(w, err.Error(), netretry.BodyStatus(err))
		return
	}
	// A traced publish hands its context down: the server span (when this
	// process traces) becomes the stored position, otherwise the
	// publisher's own context is stored untouched — either way fetchers
	// can join the trace.
	pctx, _ := trace.ParseHeader(r.Header.Get(trace.HeaderName))
	sp := s.cfg.Tracer.StartSpan(pctx, "publish")
	if sp.Valid() {
		pctx = sp.Context()
	}
	version, err := s.cfg.Store.PublishCtx(body, pctx)
	if err != nil {
		sp.EndArg("error", 1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sp.EndArg("version", int64(version))
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(publishReply{Version: version})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	version, updates, frame := s.cfg.Store.Latest()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(statsReply{Version: version, Updates: updates, Bytes: len(frame)})
}

// publishReply acknowledges a publish with the assigned serving version.
type publishReply struct {
	Version uint64 `json:"version"`
}

// statsReply is the stats endpoint's JSON document. No field after the
// first may contain the substring `"version":`: the cluster smoke script
// extracts the version with a greedy regex over this document.
type statsReply struct {
	Version uint64 `json:"version"`
	Updates uint64 `json:"updates"`
	Bytes   int    `json:"bytes"`
}
