package expserve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestClientTotalDeadline proves the cumulative retry budget: against a
// server that only ever answers 503, a client with a generous attempt count
// but a tight TotalDeadline must give up once the next backoff sleep would
// overrun it, surfacing both the deadline and the underlying cause.
func TestClientTotalDeadline(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer down.Close()

	c := NewClient(down.URL, ClientOptions{
		Timeout:       time.Second,
		Attempts:      10_000,
		BaseDelay:     10 * time.Millisecond,
		MaxDelay:      20 * time.Millisecond,
		JitterSeed:    7,
		TotalDeadline: 150 * time.Millisecond,
	})
	start := time.Now()
	_, err := c.ServiceStats()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ServiceStats against a 503-only server succeeded")
	}
	if !strings.Contains(err.Error(), "total retry deadline") || !strings.Contains(err.Error(), "503") {
		t.Fatalf("error %q does not name the deadline and the underlying 503", err)
	}
	// The pre-sleep check means we never sleep past the deadline; allow slack
	// for the in-flight attempt itself.
	if elapsed > 2*time.Second {
		t.Fatalf("client took %v to give up on a %v deadline", elapsed, 150*time.Millisecond)
	}

	// Zero deadline leaves Attempts as the only bound (the seed behaviour).
	c2 := NewClient(down.URL, ClientOptions{
		Timeout: time.Second, Attempts: 3, BaseDelay: time.Millisecond, JitterSeed: 7,
	})
	if _, err := c2.ServiceStats(); err == nil || strings.Contains(err.Error(), "total retry deadline") {
		t.Fatalf("attempts-bounded failure should not mention the deadline: %v", err)
	}
}
