package obs

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// exactQuantile is the nearest-rank quantile over the full sample set,
// the definition loadgen uses for its exact per-op percentiles.
func exactQuantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func TestBucketIndexRoundTrip(t *testing.T) {
	// Every bucket boundary must map into its own bucket, and bucket
	// lows must be monotonically increasing.
	prev := uint64(0)
	for i := 0; i < numBuckets; i++ {
		low := bucketLow(i)
		if i > 0 && low <= prev {
			t.Fatalf("bucket %d low %d not increasing past %d", i, low, prev)
		}
		prev = low
		if got := bucketIndex(low); got != i {
			t.Fatalf("bucketIndex(bucketLow(%d)=%d) = %d", i, low, got)
		}
		mid := bucketMid(i)
		if got := bucketIndex(mid); got != i {
			t.Fatalf("bucketIndex(bucketMid(%d)=%d) = %d", i, mid, got)
		}
	}
	if got := bucketIndex(^uint64(0)); got != numBuckets-1 {
		t.Fatalf("max value bucket = %d, want %d", got, numBuckets-1)
	}
}

// TestQuantileDifferential drives randomized latency distributions
// through the histogram and checks its quantiles against the exact
// nearest-rank answer from the retained samples. The log-linear
// buckets guarantee at most 1/16 relative error.
func TestQuantileDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := []struct {
		name string
		gen  func() time.Duration
	}{
		{"uniform-us", func() time.Duration { return time.Duration(rng.Intn(1_000_000)) }},
		{"exp-ms", func() time.Duration { return time.Duration(rng.ExpFloat64() * float64(5*time.Millisecond)) }},
		{"bimodal", func() time.Duration {
			if rng.Intn(10) == 0 {
				return time.Duration(50+rng.Intn(200)) * time.Millisecond
			}
			return time.Duration(100+rng.Intn(900)) * time.Microsecond
		}},
		{"tiny", func() time.Duration { return time.Duration(rng.Intn(20)) }},
	}
	for _, dist := range distributions {
		for trial := 0; trial < 5; trial++ {
			h := newHistogram()
			n := 100 + rng.Intn(5000)
			samples := make([]time.Duration, n)
			for i := range samples {
				samples[i] = dist.gen()
				h.Record(samples[i], false)
			}
			snap := h.Snapshot()
			if snap.Count != uint64(n) {
				t.Fatalf("%s: snapshot count %d want %d", dist.name, snap.Count, n)
			}
			for _, q := range []float64{0.50, 0.90, 0.95, 0.99, 1.0} {
				got := snap.Quantile(q)
				want := exactQuantile(samples, q)
				tol := want/16 + 1
				diff := got - want
				if diff < 0 {
					diff = -diff
				}
				if diff > tol {
					t.Errorf("%s trial %d: q%.2f = %v, exact %v, |diff| %v > tol %v",
						dist.name, trial, q, got, want, diff, tol)
				}
			}
		}
	}
}

// TestMergeDifferential merges per-"station" histograms and checks the
// merged quantiles against the exact answer over the pooled samples —
// the federation-wide aggregation path.
func TestMergeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		var all []time.Duration
		var merged HistSnapshot
		stations := 2 + rng.Intn(6)
		for s := 0; s < stations; s++ {
			h := newHistogram()
			n := rng.Intn(2000)
			for i := 0; i < n; i++ {
				d := time.Duration(rng.Intn(10_000_000))
				all = append(all, d)
				h.Record(d, rng.Intn(50) == 0)
			}
			merged.Merge(h.Snapshot())
		}
		if merged.Count != uint64(len(all)) {
			t.Fatalf("merged count %d want %d", merged.Count, len(all))
		}
		// Merged bucket list must stay sorted and deduplicated.
		for i := 1; i < len(merged.Buckets); i++ {
			if merged.Buckets[i].Bucket <= merged.Buckets[i-1].Bucket {
				t.Fatalf("merged buckets not strictly ascending at %d", i)
			}
		}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			got := merged.Quantile(q)
			want := exactQuantile(all, q)
			tol := want/16 + 1
			diff := got - want
			if diff < 0 {
				diff = -diff
			}
			if diff > tol {
				t.Errorf("trial %d: merged q%.2f = %v, exact %v over %d samples", trial, q, got, want, len(all))
			}
		}
	}
}

func TestSummaryAndTop(t *testing.T) {
	var m Metrics
	m.Observe("Fabric.Push", 10*time.Millisecond, false)
	m.Observe("Fabric.Push", 30*time.Millisecond, true)
	m.Observe("Node.Ping", time.Millisecond, false)
	sums := m.Summaries()
	push := sums["Fabric.Push"]
	if push.Count != 2 || push.Errors != 1 {
		t.Fatalf("push summary = %+v", push)
	}
	if push.MaxMs < 29 || push.MaxMs > 31 {
		t.Fatalf("push max = %v", push.MaxMs)
	}
	if push.MeanMs < 18 || push.MeanMs > 22 {
		t.Fatalf("push mean = %v", push.MeanMs)
	}
	if order := MethodsByTotal(sums); len(order) != 2 || order[0] != "Fabric.Push" {
		t.Fatalf("top order = %v", order)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(g*1000+i), i%17 == 0)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if snap := h.Snapshot(); snap.Count != 8000 {
		t.Fatalf("count %d want 8000", snap.Count)
	}
}

// Merge folds another snapshot into this one (federation-wide method
// totals are the merge of every station's snapshot).
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.Errors += o.Errors
	s.SumNs += o.SumNs
	if o.MaxNs > s.MaxNs {
		s.MaxNs = o.MaxNs
	}
	merged := make([]BucketCount, 0, len(s.Buckets)+len(o.Buckets))
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Bucket < o.Buckets[j].Bucket):
			merged = append(merged, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].Bucket < s.Buckets[i].Bucket:
			merged = append(merged, o.Buckets[j])
			j++
		default:
			merged = append(merged, BucketCount{Bucket: s.Buckets[i].Bucket, Count: s.Buckets[i].Count + o.Buckets[j].Count})
			i++
			j++
		}
	}
	s.Buckets = merged
}
