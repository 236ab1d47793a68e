package faultnet

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func fates(in *Injector, edge string, n int) []fate {
	e := in.edgeFor(edge)
	out := make([]fate, n)
	for i := range out {
		out[i], _, _ = e.decide()
	}
	return out
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	rule := Rule{Drop: 0.2, Error: 0.1, Delay: time.Millisecond, DelayProb: 0.3}
	build := func(seed int64) *Injector {
		in := New(seed)
		if err := in.SetRule("a→b", rule); err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := fates(build(99), "a→b", 500), fates(build(99), "a→b", 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := fates(build(100), "a→b", 500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical fault schedule")
	}
}

func TestEdgesHaveIndependentStreams(t *testing.T) {
	in := New(7)
	rule := Rule{Drop: 0.5}
	in.SetRule("x", rule)
	in.SetRule("y", rule)
	x, y := fates(in, "x", 200), fates(in, "y", 200)
	same := true
	for i := range x {
		if x[i] != y[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("edges x and y share a fault stream; they must be independent")
	}
	// A fresh injector replays edge x identically even if y is never used.
	in2 := New(7)
	in2.SetRule("x", rule)
	x2 := fates(in2, "x", 200)
	for i := range x {
		if x[i] != x2[i] {
			t.Fatalf("edge x schedule depends on other edges (diverged at %d)", i)
		}
	}
}

func TestRuleChangeKeepsStreamAligned(t *testing.T) {
	// Toggling the delay rule must not shift the drop schedule: the
	// sequence of drop decisions with delays on equals the one with
	// delays off at the same seed.
	dropsOf := func(withDelay bool) []bool {
		in := New(31)
		r := Rule{Drop: 0.3}
		if withDelay {
			r.Delay, r.DelayProb = time.Millisecond, 0.5
		}
		in.SetRule("e", r)
		e := in.edgeFor("e")
		out := make([]bool, 300)
		for i := range out {
			f, _, _ := e.decide()
			out[i] = f == fateDrop
		}
		return out
	}
	a, b := dropsOf(false), dropsOf(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop schedule shifted when delays were enabled (request %d)", i)
		}
	}
}

func TestPartitionOverridesAndHeals(t *testing.T) {
	in := New(1)
	in.Play([]Event{{Edge: "p", Nth: 1, Fault: Partition, Until: "p", Span: 10}}, func(string) error { return nil })
	for i := 0; i < 10; i++ {
		if f, _, _ := in.step("p"); f != Partition && f != Drop {
			t.Fatalf("request %d passed through an active partition", i)
		}
	}
	if f, _, _ := in.step("p"); f != Pass {
		t.Fatal("healed partition still dropping")
	}
	if open, done := in.State(); len(open) != 0 || !done {
		t.Fatalf("open windows %v, done %v after the partition healed", open, done)
	}
}

func TestRoundTripperInjectsFaults(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	in := New(5)
	in.SetRule("cl", Rule{Drop: 1})
	hc := &http.Client{Transport: in.RoundTripper("cl", nil)}
	if _, err := hc.Get(srv.URL); err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("dropping edge: err = %v, want wrapped ErrInjected", err)
	}

	in.SetRule("cl", Rule{Error: 1, Status: 502})
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatalf("errored edge: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 502 {
		t.Fatalf("status = %d, want synthesized 502", resp.StatusCode)
	}

	in.SetRule("cl", Rule{})
	resp, err = hc.Get(srv.URL)
	if err != nil {
		t.Fatalf("healed edge: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("body = %q, want %q", body, "ok")
	}
}

func TestHandlerInjectsFaults(t *testing.T) {
	in := New(5)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
	srv := httptest.NewServer(in.Handler("sv", inner))
	defer srv.Close()

	in.SetRule("sv", Rule{Error: 1})
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want default 503", resp.StatusCode)
	}

	in.SetRule("sv", Rule{Drop: 1})
	if _, err := http.Get(srv.URL); err == nil {
		t.Fatal("server-side drop should abort the connection")
	}

	in.SetRule("sv", Rule{})
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("body = %q, want %q", body, "ok")
	}
}

func TestConcurrentTrafficIsSafe(t *testing.T) {
	in := New(11)
	in.SetRule("hot", Rule{Drop: 0.3, Error: 0.2})
	srv := httptest.NewServer(in.Handler("hot", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})))
	defer srv.Close()
	hc := &http.Client{Transport: in.RoundTripper("hot", nil)}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := hc.Get(srv.URL)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				if i%10 == 0 {
					in.Counts("hot")
				}
			}
		}()
	}
	wg.Wait()
	c := in.Counts("hot")
	if c.Requests == 0 {
		t.Fatal("no traffic recorded")
	}
}

func ExampleInjector_RoundTripper() {
	in := New(42)
	in.SetRule("actor→replay", Rule{Drop: 0.1})
	hc := &http.Client{Transport: in.RoundTripper("actor→replay", nil)}
	_ = hc
	fmt.Println(in.Counts("actor→replay").Requests)
	// Output: 0
}
