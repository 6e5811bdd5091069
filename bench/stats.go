package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// samples is a latency sample set. Percentiles are exact nearest-rank
// over every recorded value — no buckets, no interpolation — so the
// count printed beside a percentile is the count it was taken from.
type samples []time.Duration

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// nearestRank returns the q-quantile (0 < q <= 1) of an ascending
// sample set by the nearest-rank rule: the smallest value with at
// least q of the samples at or below it.
func nearestRank(sorted samples, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond counts the samples strictly above the q-quantile's rank —
// the population a tail percentile rests on.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// minBeyond is the guide's floor: a percentile is reported only with
// at least this many samples beyond it.
const minBeyond = 10

// tailQuantile picks the highest of the candidate quantiles that still
// has minBeyond samples beyond it, falling back to the median.
func tailQuantile(n int, candidates ...float64) float64 {
	best := 0.5
	for _, q := range candidates {
		if q > best && beyond(n, q) >= minBeyond {
			best = q
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianOf returns the nearest-rank median of a float set.
func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[(len(s)+1)/2-1]
}

// quartiles returns Q1, median and Q3 by the exclusive method — the
// values Python's statistics.quantiles(values, n=4) gives, which is
// what the acceptance gate computes its spreads from.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

// timeN runs fn n times and returns one duration per call.
func timeN(n int, fn func()) samples {
	out := make(samples, n)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = time.Since(t0)
	}
	return out
}

// p50 is the median of a sample set.
func (s samples) p50() time.Duration { return nearestRank(s.sorted(), 0.5) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// in MiB, falling back to getrusage's maxrss where /proc is absent.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}
