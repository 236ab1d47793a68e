package netretry

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unsafe"
)

// countingReader counts Read calls, to prove a rejection came from the
// declared length alone.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

func TestReadBody(t *testing.T) {
	const limit = 64
	payload := bytes.Repeat([]byte("x"), limit)
	cases := []struct {
		name     string
		body     []byte
		declared int64
		tooLarge bool
		wantErr  error // matched with errors.Is when tooLarge is false
		unread   bool  // the body must not have been touched
	}{
		{name: "exact, declared", body: payload, declared: limit},
		{name: "exact, unframed", body: payload, declared: -1},
		{name: "empty, declared", body: nil, declared: 0},
		{name: "empty, unframed", body: nil, declared: -1},
		{name: "limit+1 declared", body: append(payload, 'y'), declared: limit + 1, tooLarge: true, unread: true},
		{name: "limit+1 unframed", body: append(payload, 'y'), declared: -1, tooLarge: true},
		{name: "declared length lies high", body: payload[:10], declared: 20, wantErr: io.ErrUnexpectedEOF},
		{name: "declared length lies high, nothing sent", body: nil, declared: 20, wantErr: io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := &countingReader{r: bytes.NewReader(tc.body)}
			got, err := ReadBody(src, tc.declared, limit, nil)
			switch {
			case tc.tooLarge:
				if !errors.Is(err, ErrBodyTooLarge) || BodyStatus(err) != http.StatusRequestEntityTooLarge {
					t.Fatalf("err %v (status %d), want ErrBodyTooLarge / 413", err, BodyStatus(err))
				}
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) || BodyStatus(err) != http.StatusBadRequest {
					t.Fatalf("err %v (status %d), want %v / 400", err, BodyStatus(err), tc.wantErr)
				}
			default:
				if err != nil || !bytes.Equal(got, tc.body) {
					t.Fatalf("read %d bytes, err %v; want the %d-byte body", len(got), err, len(tc.body))
				}
			}
			if tc.unread && src.reads != 0 {
				t.Fatalf("body was read %d times before the declared length rejected it", src.reads)
			}
		})
	}
}

// A declared length is read in place into the caller's buffer; a buffer
// that is too small is replaced exactly once, by one of exactly the
// declared size; the unframed fallback reuses the buffer too.
func TestReadBodyReusesCallerBuffer(t *testing.T) {
	payload := []byte(strings.Repeat("abcdefgh", 100))
	buf := make([]byte, 0, 4096)
	for _, declared := range []int64{int64(len(payload)), -1} {
		got, err := ReadBody(bytes.NewReader(payload), declared, 1<<20, buf)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("declared %d: %d bytes, err %v", declared, len(got), err)
		}
		if unsafe.SliceData(got) != unsafe.SliceData(buf) {
			t.Fatalf("declared %d: body was not read into the caller's buffer", declared)
		}
	}
	got, err := ReadBody(bytes.NewReader(payload), int64(len(payload)), 1<<20, make([]byte, 0, 16))
	if err != nil || !bytes.Equal(got, payload) || cap(got) != len(payload) {
		t.Fatalf("undersized buffer: %d bytes (cap %d), err %v; want one exact %d-byte replacement", len(got), cap(got), err, len(payload))
	}
}

// The client's reply read goes through ReadBody: with Scratch the body
// lands in it, and an unframed (chunked) reply still arrives whole.
func TestDoReadsReplyThroughReadBody(t *testing.T) {
	reply := strings.Repeat("r", 3000)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/chunked" {
			w.(http.Flusher).Flush() // forces chunked transfer encoding
		}
		io.WriteString(w, reply)
	}))
	defer hs.Close()
	c := New(hs.URL, Options{Attempts: 1})
	scratch := make([]byte, 0, 8192)
	for _, path := range []string{"/sized", "/chunked"} {
		resp, err := c.Do(context.Background(), Request{Path: path, Scratch: scratch})
		if err != nil || string(resp.Body) != reply {
			t.Fatalf("%s: %d bytes, err %v", path, len(resp.Body), err)
		}
		if unsafe.SliceData(resp.Body) != unsafe.SliceData(scratch) {
			t.Fatalf("%s: reply does not alias Scratch", path)
		}
	}
}
