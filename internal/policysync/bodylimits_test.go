package policysync

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

// Publish bodies are bounded by MaxFrameBytes: over it is a 413, from the
// declared length without reading a byte, or once an unframed body passes
// it; a truncated frame and a Content-Length that promises more than
// arrives are 400s; nothing malformed ever becomes a version.
func TestBodyLimits(t *testing.T) {
	frame, err := EncodeSnapshot(nil, 7, testNets(t, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	limit := int64(len(frame))
	store := NewStore(nil)
	srv, err := NewServer(ServerConfig{Store: store, MaxFrameBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	padded := append(append([]byte(nil), frame...), 0)
	cases := []struct {
		name     string
		body     []byte
		declared int64
		status   int
		unread   bool
	}{
		{"cap+1, declared", padded, limit + 1, http.StatusRequestEntityTooLarge, true},
		{"cap+1, chunked", padded, -1, http.StatusRequestEntityTooLarge, false},
		{"short body", frame[:len(frame)-5], limit - 5, http.StatusBadRequest, false},
		{"Content-Length lies high", frame[:len(frame)-5], limit, http.StatusBadRequest, false},
		{"exact cap, declared", frame, limit, http.StatusOK, false},
		{"exact cap, chunked", frame, -1, http.StatusOK, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before, _, _ := store.Latest()
			body := &trackedBody{Reader: bytes.NewReader(tc.body)}
			req := httptest.NewRequest(http.MethodPost, PathPolicy, body)
			req.ContentLength = tc.declared
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status %d (%s), want %d", rec.Code, bytes.TrimSpace(rec.Body.Bytes()), tc.status)
			}
			if tc.unread && body.reads != 0 {
				t.Fatalf("handler read the body %d times before rejecting its declared length", body.reads)
			}
			after, _, _ := store.Latest()
			if published := after != before; published != (tc.status == http.StatusOK) {
				t.Fatalf("version went %d → %d on a %d answer", before, after, rec.Code)
			}
		})
	}
}
