package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// trackedBody counts the handler's reads of a request body.
type trackedBody struct {
	io.Reader
	reads int
}

func (b *trackedBody) Read(p []byte) (int, error) {
	b.reads++
	return b.Reader.Read(p)
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// /act bodies are bounded by maxActBody: over it is a 413, from the
// declared length without reading a byte, or once an unframed body passes
// it; a frame cut short and a Content-Length that promises more than
// arrives are 400s.
func TestBodyLimits(t *testing.T) {
	g, srv, _ := newTestServer(t, Config{Window: 0})
	installV1(t, g)
	frame := EncodeObsFrame(nil, testObs(1, []int{8, 8, 8}))
	cases := []struct {
		name     string
		body     io.Reader
		declared int64
		status   int
		unread   bool
	}{
		// Passes the size gate; the shape check then refuses it.
		{"exact cap, declared", io.LimitReader(zeros{}, maxActBody), maxActBody, http.StatusBadRequest, false},
		{"cap+1, declared", io.LimitReader(zeros{}, maxActBody+1), maxActBody + 1, http.StatusRequestEntityTooLarge, true},
		{"cap+1, chunked", io.LimitReader(zeros{}, maxActBody+1), -1, http.StatusRequestEntityTooLarge, false},
		{"short body", bytes.NewReader(frame[:len(frame)-5]), int64(len(frame) - 5), http.StatusBadRequest, false},
		{"Content-Length lies high", bytes.NewReader(frame), int64(len(frame) + 64), http.StatusBadRequest, false},
		{"whole frame, declared", bytes.NewReader(frame), int64(len(frame)), http.StatusOK, false},
		{"whole frame, chunked", bytes.NewReader(frame), -1, http.StatusOK, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := &trackedBody{Reader: tc.body}
			req := httptest.NewRequest(http.MethodPost, PathAct, body)
			req.Header.Set("Content-Type", "application/octet-stream")
			req.ContentLength = tc.declared
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status %d (%s), want %d", rec.Code, bytes.TrimSpace(rec.Body.Bytes()), tc.status)
			}
			if tc.unread && body.reads != 0 {
				t.Fatalf("handler read the body %d times before rejecting its declared length", body.reads)
			}
		})
	}
}
