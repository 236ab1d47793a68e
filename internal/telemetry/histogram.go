package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefaultDurationBuckets are the histogram bounds used for phase latencies,
// in seconds: a 1-2.5-5 decade ladder from 1µs to 10s. Phase durations in
// this codebase span sub-microsecond env steps to multi-second full update
// stages at large agent counts, so the ladder covers the working range with
// ~3 buckets per decade.
func DefaultDurationBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6,
		1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2,
		0.1, 0.25, 0.5,
		1, 2.5, 5, 10,
	}
}

// Histogram is a fixed-bucket histogram with lock-free observation. Bucket
// i counts observations v with v ≤ bounds[i] (and > bounds[i-1]); one
// final bucket counts everything above the last bound (+Inf). The total
// count and the running sum are tracked alongside.
type Histogram struct {
	bounds  []float64 // sorted ascending, immutable after construction
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram builds a histogram over the given sorted upper bounds; nil
// selects DefaultDurationBuckets. Bounds must be strictly ascending.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultDurationBuckets()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// bucketOf returns the index of the bucket counting v: the first bound
// that is not < v, or the +Inf bucket.
func (h *Histogram) bucketOf(v float64) int {
	return sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.buckets[h.bucketOf(v)].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// ObserveAll records every value of vs, leaving the histogram exactly as
// len(vs) Observe calls in slice order would — the sum is accumulated in
// that order, so it is the same float bit for bit — but publishing once:
// bucket counts are folded locally and the sum word takes one CAS, not one
// per value. For per-row observations on a request path.
func (h *Histogram) ObserveAll(vs []float64) {
	if len(vs) == 0 {
		return
	}
	var stack [32]uint64
	local := stack[:]
	if len(h.buckets) > len(stack) {
		local = make([]uint64, len(h.buckets))
	}
	for _, v := range vs {
		local[h.bucketOf(v)]++
	}
	for i := range h.buckets {
		if local[i] != 0 {
			h.buckets[i].Add(local[i])
		}
	}
	h.count.Add(uint64(len(vs)))
	h.addSum(vs...)
}

// addSum adds vs to the running sum, left to right, in one CAS.
func (h *Histogram) addSum(vs ...float64) {
	for {
		old := h.sumBits.Load()
		sum := math.Float64frombits(old)
		for _, v := range vs {
			sum += v
		}
		if h.sumBits.CompareAndSwap(old, math.Float64bits(sum)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the running sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the containing bucket. Observations beyond the last finite bound
// clamp to that bound. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) {
				// +Inf bucket: the best point estimate is the last finite bound.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Snapshot captures the histogram's buckets, totals and p50/p90/p99/p999
// estimates. Name/Labels are filled by the registry.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
		Count:  h.Count(),
		Sum:    h.Sum(),
		P50:    h.Quantile(0.50),
		P90:    h.Quantile(0.90),
		P99:    h.Quantile(0.99),
		P999:   h.Quantile(0.999),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}
