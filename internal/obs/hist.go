// Package obs is the federation's zero-dependency observability layer:
// per-RPC-method latency histograms with percentile summaries, and a
// bounded ring of trace spans stitched together by TraceIDs that ride
// the transport envelope hop-by-hop through the distribution tree. The
// paper's system had no visibility into its multi-hop operations; obs
// answers "which hop made this resolve slow?" without any external
// telemetry dependency.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Log-linear bucketing: each power-of-two octave of nanoseconds is cut
// into 1<<subBits sub-buckets, so a recorded value lands in a bucket
// whose width is at most 1/16th of its magnitude — quantile estimates
// carry a bounded ~6.25% relative error while the whole histogram stays
// a fixed array of atomic counters (no allocation on the record path).
const (
	subBits = 4
	numSub  = 1 << subBits

	// Values below numSub get exact unit buckets; above, each octave
	// contributes numSub buckets up to the top of the uint64 range.
	numBuckets = (64 - subBits + 1) * numSub
)

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(v uint64) int {
	if v < numSub {
		return int(v)
	}
	exp := bits.Len64(v) - subBits - 1
	return exp*numSub + int(v>>uint(exp))
}

// bucketLow returns the smallest value that maps to bucket i.
func bucketLow(i int) uint64 {
	if i < numSub {
		return uint64(i)
	}
	exp := i/numSub - 1
	return uint64(numSub+i%numSub) << uint(exp)
}

// bucketMid returns the midpoint of bucket i, the value reported for
// quantiles that land in it.
func bucketMid(i int) uint64 {
	if i < numSub {
		return uint64(i)
	}
	exp := i/numSub - 1
	return bucketLow(i) + uint64(1)<<uint(exp)/2
}

// Histogram is a concurrent-safe log-bucketed latency histogram. The
// zero value is NOT ready; use newHistogram (the bucket array is large
// enough that histograms are shared behind pointers, never copied).
type Histogram struct {
	counts []atomic.Uint64 // numBuckets entries
	count  atomic.Uint64
	errs   atomic.Uint64
	sum    atomic.Uint64 // nanoseconds
	max    atomic.Uint64 // nanoseconds
}

func newHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, numBuckets)}
}

// Record adds one observation. failed marks the operation as having
// returned an error; its latency still counts (a slow failure is still
// a slow call).
func (h *Histogram) Record(d time.Duration, failed bool) {
	if d < 0 {
		d = 0
	}
	ns := uint64(d)
	h.counts[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	if failed {
		h.errs.Add(1)
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// BucketCount is one non-empty bucket in a histogram snapshot.
type BucketCount struct {
	Bucket int
	Count  uint64
}

// HistSnapshot is a point-in-time, wire-encodable copy of a histogram:
// only non-empty buckets travel, so a station that has served three
// methods does not ship kilobytes of zeros in every Stats reply.
type HistSnapshot struct {
	Count   uint64
	Errors  uint64
	SumNs   uint64
	MaxNs   uint64
	Buckets []BucketCount // ascending bucket index
}

// Snapshot copies the histogram. Concurrent Records may or may not be
// included; the copy is internally consistent enough for reporting
// (counts are re-summed from the buckets).
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Errors: h.errs.Load(),
		SumNs:  h.sum.Load(),
		MaxNs:  h.max.Load(),
	}
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Bucket: i, Count: n})
			s.Count += n
		}
	}
	return s
}

// Quantile returns the nearest-rank q-quantile (0 < q <= 1) as a
// duration, reported at the midpoint of the bucket the rank lands in
// and clamped to the observed maximum. Zero observations yield zero.
func (s *HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if float64(rank) < q*float64(s.Count) || rank == 0 {
		rank++ // ceil, and ranks are 1-based
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			v := bucketMid(b.Bucket)
			if s.MaxNs > 0 && v > s.MaxNs {
				v = s.MaxNs
			}
			return time.Duration(v)
		}
	}
	return time.Duration(s.MaxNs)
}

// Summary is the human-facing digest of one method's histogram, the
// form that travels in Stats replies and JSON reports.
type Summary struct {
	Count   uint64  `json:"count"`
	Errors  uint64  `json:"errors,omitempty"`
	P50Ms   float64 `json:"p50_ms"`
	P95Ms   float64 `json:"p95_ms"`
	P99Ms   float64 `json:"p99_ms"`
	MaxMs   float64 `json:"max_ms"`
	MeanMs  float64 `json:"mean_ms"`
	TotalMs float64 `json:"total_ms"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Summary digests the snapshot.
func (s *HistSnapshot) Summary() Summary {
	sum := Summary{
		Count:   s.Count,
		Errors:  s.Errors,
		P50Ms:   ms(s.Quantile(0.50)),
		P95Ms:   ms(s.Quantile(0.95)),
		P99Ms:   ms(s.Quantile(0.99)),
		MaxMs:   ms(time.Duration(s.MaxNs)),
		TotalMs: ms(time.Duration(s.SumNs)),
	}
	if s.Count > 0 {
		sum.MeanMs = sum.TotalMs / float64(s.Count)
	}
	return sum
}

// Metrics is a registry of per-method histograms. The zero value is
// ready to use.
type Metrics struct {
	mu    sync.RWMutex
	hists map[string]*Histogram
}

func (m *Metrics) hist(method string) *Histogram {
	m.mu.RLock()
	h := m.hists[method]
	m.mu.RUnlock()
	if h != nil {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.hists == nil {
		m.hists = make(map[string]*Histogram)
	}
	if h = m.hists[method]; h == nil {
		h = newHistogram()
		m.hists[method] = h
	}
	return h
}

// Observe records one call of a method.
func (m *Metrics) Observe(method string, d time.Duration, failed bool) {
	m.hist(method).Record(d, failed)
}

// Snapshot copies every method's histogram.
func (m *Metrics) Snapshot() map[string]HistSnapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]HistSnapshot, len(m.hists))
	for method, h := range m.hists {
		out[method] = h.Snapshot()
	}
	return out
}

// Summaries digests every method's histogram — the payload the Stats
// RPC carries.
func (m *Metrics) Summaries() map[string]Summary {
	snaps := m.Snapshot()
	out := make(map[string]Summary, len(snaps))
	for method, s := range snaps {
		out[method] = s.Summary()
	}
	return out
}

// MethodsByTotal orders a summary map hottest-first (total time spent,
// then count) — the sort behind `webdocctl top`.
func MethodsByTotal(sums map[string]Summary) []string {
	methods := make([]string, 0, len(sums))
	for m := range sums {
		methods = append(methods, m)
	}
	sort.Slice(methods, func(i, j int) bool {
		a, b := sums[methods[i]], sums[methods[j]]
		if a.TotalMs != b.TotalMs {
			return a.TotalMs > b.TotalMs
		}
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return methods[i] < methods[j]
	})
	return methods
}
