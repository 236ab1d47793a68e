package serve

import (
	"fmt"
	"net/http"

	"marlperf/internal/netretry"
)

// PathAct is the gateway's one HTTP path.
const PathAct = "/act"

// maxActBody bounds one /act request body; observation frames are small
// (tens of floats), so 1 MiB is already generous.
const maxActBody = 1 << 20

// Server exposes a Gateway over HTTP:
//
//	POST /act — one binary observation frame in, one MACT action reply out
//	     (wire.go). 503 before the first install, 400 for a frame that does
//	     not fit the serving shape.
type Server struct {
	gw  *Gateway
	mux *http.ServeMux
}

// NewServer wraps a gateway.
func NewServer(gw *Gateway) (*Server, error) {
	if gw == nil {
		return nil, fmt.Errorf("serve: NewServer needs a Gateway")
	}
	s := &Server{gw: gw, mux: http.NewServeMux()}
	s.mux.HandleFunc(PathAct, s.handleAct)
	return s, nil
}

// Handler returns the service mux for mounting alongside other endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) handleAct(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Observation frames are a few hundred bytes: one exact-size buffer per
	// request, nothing worth pooling — and the decoded rows are views of
	// it, so it lives until the gateway has answered.
	body, err := netretry.ReadBody(r.Body, r.ContentLength, maxActBody, nil)
	if err != nil {
		http.Error(w, err.Error(), netretry.BodyStatus(err))
		return
	}
	dims := s.gw.Dims()
	if dims == nil {
		http.Error(w, ErrNotReady.Error(), http.StatusServiceUnavailable)
		return
	}
	obs, err := DecodeObsFrame(body, dims)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := s.gw.Act(0, obs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(EncodeActReply(nil, res.Version, res.Actions))
}
