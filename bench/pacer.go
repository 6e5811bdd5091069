package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clientThreads is the load generator's whole concurrency: two client
// goroutines, each with its own connection per target — one per
// processor of the reference machine, so the generator never asks for
// more parallelism than the box has.
const clientThreads = 2

// timing is one op's schedule and outcome, relative to its phase's
// start. ran is false for ops a time-bounded closed loop never reached.
type timing struct {
	due, start, done time.Duration
	ran              bool
	backlogged       bool // the client was still busy when the op fell due
}

// latency is the op's response time as its user saw it: from the
// moment it was due — so the wait a stall imposes on the ops queued
// behind it is counted — to completion.
func (t timing) latency() time.Duration { return t.done - t.due }

// lag is how late the generator itself was: the start delay of an op
// whose client was idle and waiting for the due time. An op whose
// client was still busy with an earlier op at its due time started
// late because of the system, not the generator; that delay is in the
// op's latency and the op is counted as backlogged instead.
func (t timing) lag() time.Duration { return t.start - t.due }

// Both loops hand ops out in plan order from a shared cursor: whichever
// client is free takes the next op, as two connections serving one
// queue would. The order of ops never depends on timing; which client
// issues an op may.

// runPaced is the open loop: op i is due at i*interval whether or not
// earlier ops have finished. When both clients are still busy at an
// op's due time it starts late, and the lateness is part of its
// latency.
func runPaced(n int, interval time.Duration, exec func(client, i int)) []timing {
	out := make([]timing, n)
	var cursor atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clientThreads; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				backlogged := time.Since(t0) > due
				sleepUntil(t0.Add(due))
				start := time.Since(t0)
				exec(c, i)
				out[i] = timing{due: due, start: start, done: time.Since(t0), ran: true, backlogged: backlogged}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// runClosed is the closed loop: each client takes the next op as soon
// as its previous one returns, until the ops run out or — when budget
// is positive — the budget has elapsed. It returns the per-op timings
// (due = start) and the loop's wall time.
func runClosed(n int, budget time.Duration, exec func(client, i int)) ([]timing, time.Duration) {
	out := make([]timing, n)
	var cursor atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clientThreads; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				start := time.Since(t0)
				if budget > 0 && start >= budget {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				exec(c, i)
				out[i] = timing{due: start, start: start, done: time.Since(t0), ran: true}
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(t0)
}

// sleepUntil blocks until the deadline with the kernel's timer
// resolution. time.Sleep will not do for an open loop paced in
// fractions of a millisecond: the runtime rounds an idle process's
// timers up to the next millisecond, which would show up as half a
// millisecond of generator lag on every op.
func sleepUntil(deadline time.Time) {
	for {
		wait := time.Until(deadline)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil)
	}
}

// intervalFor is the spacing of an open loop offering rate ops/s.
func intervalFor(rate float64) time.Duration {
	return time.Duration(float64(time.Second) / rate)
}

// countRan reports how many ops of a phase actually ran.
func countRan(ts []timing) int {
	n := 0
	for _, t := range ts {
		if t.ran {
			n++
		}
	}
	return n
}

// maxSchedLag is the generator-health bound on a paced phase: beyond
// it the open loop was not open — the generator itself sent late.
const maxSchedLag = 5 * time.Millisecond

// reportPacing states how faithfully a paced phase was offered: the
// generator's own lag (p95, over ops whose client was idle at the due
// time), the share of ops that found their client still busy, and the
// rate actually offered. Outside a smoke run a lag beyond maxSchedLag
// marks the run invalid.
func reportPacing(res *result, paced []timing) {
	var lag samples
	backlogged := 0
	for _, t := range paced {
		if t.backlogged {
			backlogged++
		} else {
			lag = append(lag, t.lag())
		}
	}
	n := len(paced)
	res.percentile(res.PerLayer, "bench.sched_lag_ms_p95", lag, 0.95, "ms")
	res.layer("bench.backlogged_share", float64(backlogged)/float64(n), "share", n)
	res.layer("bench.offered_ops_s", float64(n)/paced[n-1].due.Seconds(), "1/s", n)
	if p95 := nearestRank(lag.sorted(), 0.95); p95 > maxSchedLag && !res.Smoke {
		res.invalidate("bench.sched_lag_ms_p95 %.2f ms exceeds %v: the generator ran late", ms(p95), maxSchedLag)
	}
}
