package telemetry

import (
	"sync"
	"testing"
)

// TestConcurrentCounters hammers one counter from many goroutines; run
// under -race this is the registry's concurrency contract test.
func TestConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	const goroutines, perG = 16, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Half the goroutines re-look the counter up each iteration to
			// exercise the registration path concurrently with writers.
			c := reg.Counter("test_total", "shard", "a")
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					c.Inc()
				} else {
					reg.Counter("test_total", "shard", "a").Inc()
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("test_total", "shard", "a").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestConcurrentGauges(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("test_gauge")
	const goroutines, perG = 8, 5_000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				g.Set(float64(i))
				_ = g.Value()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != float64(int(got)) || got < 0 || got >= goroutines {
		t.Fatalf("gauge = %v, want one of the values set, 0 to %d", got, goroutines-1)
	}
	g.Set(-3.5)
	if g.Value() != -3.5 {
		t.Fatalf("Set: %v", g.Value())
	}
}

func TestConcurrentHistograms(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_seconds", []float64{1, 2, 4, 8})
	const goroutines, perG = 8, 5_000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(v float64) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				h.Observe(v)
			}
		}(float64(i%4) + 0.5)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	// 2 goroutines each of 0.5, 1.5, 2.5, 3.5 → sum = 2*perG*(0.5+1.5+2.5+3.5).
	if want := 2.0 * perG * 8.0; h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
}

func TestMetricIdentity(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("c", "x", "1", "y", "2")
	b := reg.Counter("c", "y", "2", "x", "1") // label order must not matter
	if a != b {
		t.Fatal("same identity returned distinct counters")
	}
	c := reg.Counter("c", "x", "1", "y", "3")
	if a == c {
		t.Fatal("distinct label values returned the same counter")
	}
	if d := reg.Counter("c"); d == a {
		t.Fatal("unlabelled series returned the labelled counter")
	}
}

func TestOddLabelsPanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list did not panic")
		}
	}()
	reg.Counter("c", "only-key")
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total", "k", "2").Add(2)
	reg.Counter("b_total", "k", "1").Add(1)
	reg.Counter("a_total").Add(7)
	reg.Gauge("g").Set(1)
	reg.Histogram("h_seconds", []float64{1}).Observe(0.5)

	s := reg.Snapshot()
	if len(s.Counters) != 3 || len(s.Gauges) != 1 || len(s.Histograms) != 1 {
		t.Fatalf("snapshot sizes: %d/%d/%d", len(s.Counters), len(s.Gauges), len(s.Histograms))
	}
	if s.Counters[0].Name != "a_total" || s.Counters[1].Labels[0].Value != "1" || s.Counters[2].Labels[0].Value != "2" {
		t.Fatalf("snapshot order: %+v", s.Counters)
	}
	if s.Counters[0].Value != 7 {
		t.Fatalf("a_total = %d", s.Counters[0].Value)
	}
	if s.Histograms[0].Count != 1 || s.Histograms[0].Sum != 0.5 {
		t.Fatalf("histogram snapshot: %+v", s.Histograms[0])
	}
}

// A SetFunc gauge is read at every snapshot, outside the registry lock: its
// reader may itself use the registry.
func TestGaugeFuncReadAtSnapshot(t *testing.T) {
	reg := NewRegistry()
	reads := 0.0
	reg.Gauge("test_os_bytes").SetFunc(func() float64 {
		reg.Counter("test_reads_total").Inc() // would deadlock under the snapshot's lock
		reads++
		return reads * 10
	})
	reg.Gauge("test_plain").Set(3)
	for want := 10.0; want <= 30; want += 10 {
		snap := reg.Snapshot()
		got := map[string]float64{}
		for _, g := range snap.Gauges {
			got[g.Name] = g.Value
		}
		if got["test_os_bytes"] != want || got["test_plain"] != 3 {
			t.Fatalf("snapshot gauges %v, want test_os_bytes=%v test_plain=3", got, want)
		}
	}
}
