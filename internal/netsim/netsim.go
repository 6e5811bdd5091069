// Package netsim is a discrete-event network simulator used to evaluate
// the paper's course distribution mechanism under controlled conditions.
// It substitutes for the campus LAN / late-90s Internet the authors ran
// on: stations have an uplink bandwidth and a per-transfer latency, and
// transfers are store-and-forward (a station can relay a lecture bundle
// only after fully receiving it, matching the paper's duplication of
// document instances along the m-ary tree).
//
// Two uplink scheduling modes are provided:
//
//   - Sequential: a station sends one transfer at a time at full uplink
//     rate; additional sends queue FIFO. This is the model behind the
//     paper's broadcast vector, where a parent serves its m children one
//     after another.
//   - FairShare: a station's uplink is divided equally among its active
//     flows (a fluid approximation of concurrent TCP streams), used for
//     the root-unicasts-to-everyone baseline.
package netsim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Mode selects the uplink scheduling discipline.
type Mode int

// Scheduling modes.
const (
	Sequential Mode = iota
	FairShare
)

// event is one scheduled simulator callback.
type event struct {
	at  time.Duration
	seq uint64 // tie-break: FIFO among simultaneous events
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// node is one simulated station's network interface.
type node struct {
	id        int
	uplinkBps float64
	latency   time.Duration

	// Sequential mode state.
	queue   []*flow
	sending bool

	// FairShare mode state.
	active map[*flow]struct{}

	bytesSent int64
	bytesRecv int64
}

// flow is one in-progress transfer.
type flow struct {
	from, to  int
	size      int64
	remaining float64 // bytes left (fluid)
	done      func(at time.Duration)
}

// Sim is the simulator. It is not safe for concurrent use; experiments
// drive it from a single goroutine, as discrete-event simulations do.
type Sim struct {
	mode   Mode
	now    time.Duration
	seq    uint64
	events eventHeap
	nodes  map[int]*node
	nextID int

	// FairShare bookkeeping.
	lastAdvance time.Duration
	flowGen     uint64 // invalidates stale completion scans

	totalBytes int64
	transfers  int64
}

// New returns an empty simulation in the given mode.
func New(mode Mode) *Sim {
	return &Sim{mode: mode, nodes: make(map[int]*node)}
}

// AddNode creates a station interface with the given uplink bandwidth
// (bytes per second) and per-transfer latency, returning its id.
// Station ids are assigned 1, 2, 3, ... in joining order, matching the
// paper's linear join sequence.
func (s *Sim) AddNode(uplinkBps float64, latency time.Duration) int {
	s.nextID++
	id := s.nextID
	s.nodes[id] = &node{id: id, uplinkBps: uplinkBps, latency: latency, active: make(map[*flow]struct{})}
	return id
}

// AddNodes creates n identical stations and returns their ids.
func (s *Sim) AddNodes(n int, uplinkBps float64, latency time.Duration) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = s.AddNode(uplinkBps, latency)
	}
	return ids
}

// Now returns the current simulated time.
func (s *Sim) Now() time.Duration { return s.now }

// At schedules fn to run at the given absolute simulated time (clamped
// to now).
func (s *Sim) At(t time.Duration, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.events, &event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run after a simulated delay.
func (s *Sim) After(d time.Duration, fn func()) { s.At(s.now+d, fn) }

// Transfer moves size bytes from one station to another; done (optional)
// runs at the simulated completion time. Transfers from a station to
// itself complete immediately (local disk copy).
func (s *Sim) Transfer(from, to int, size int64, done func(at time.Duration)) error {
	nf, ok := s.nodes[from]
	if !ok {
		return fmt.Errorf("netsim: unknown sender %d", from)
	}
	if _, ok := s.nodes[to]; !ok {
		return fmt.Errorf("netsim: unknown receiver %d", to)
	}
	s.transfers++
	if from == to || size <= 0 {
		s.After(0, func() {
			if done != nil {
				done(s.now)
			}
		})
		return nil
	}
	f := &flow{from: from, to: to, size: size, remaining: float64(size), done: done}
	switch s.mode {
	case Sequential:
		nf.queue = append(nf.queue, f)
		s.pumpSequential(nf)
	case FairShare:
		// The flow becomes active after the per-transfer latency.
		s.After(nf.latency, func() {
			s.advanceFlows()
			nf.active[f] = struct{}{}
			s.rescheduleFlows()
		})
	}
	return nil
}

// pumpSequential starts the next queued transfer when the uplink is
// idle.
func (s *Sim) pumpSequential(n *node) {
	if n.sending || len(n.queue) == 0 {
		return
	}
	f := n.queue[0]
	n.queue = n.queue[1:]
	n.sending = true
	dur := n.latency
	if n.uplinkBps > 0 {
		dur += time.Duration(float64(f.size) / n.uplinkBps * float64(time.Second))
	}
	s.After(dur, func() {
		n.sending = false
		s.finishFlow(f)
		s.pumpSequential(n)
	})
}

// advanceFlows drains bytes from every active flow up to the current
// simulated time (FairShare mode).
func (s *Sim) advanceFlows() {
	dt := (s.now - s.lastAdvance).Seconds()
	s.lastAdvance = s.now
	if dt <= 0 {
		return
	}
	for _, n := range s.nodes {
		if len(n.active) == 0 {
			continue
		}
		rate := n.uplinkBps / float64(len(n.active))
		for f := range n.active {
			f.remaining -= rate * dt
		}
	}
}

// rescheduleFlows computes the next flow completion and schedules a
// completion scan for it (FairShare mode).
func (s *Sim) rescheduleFlows() {
	s.flowGen++
	gen := s.flowGen
	next := time.Duration(math.MaxInt64)
	found := false
	for _, n := range s.nodes {
		if len(n.active) == 0 || n.uplinkBps <= 0 {
			continue
		}
		rate := n.uplinkBps / float64(len(n.active))
		for f := range n.active {
			eta := s.now + time.Duration(f.remaining/rate*float64(time.Second))
			if eta < next {
				next = eta
				found = true
			}
		}
	}
	if !found {
		return
	}
	s.At(next, func() {
		if gen != s.flowGen {
			return // a newer reschedule superseded this scan
		}
		s.advanceFlows()
		s.completeDrainedFlows()
	})
}

// completeDrainedFlows finishes every flow whose bytes ran out, then
// reschedules.
func (s *Sim) completeDrainedFlows() {
	const epsilon = 1e-6
	for _, n := range s.nodes {
		for f := range n.active {
			if f.remaining <= epsilon*float64(f.size)+1e-9 {
				delete(n.active, f)
				s.finishFlow(f)
			}
		}
	}
	s.rescheduleFlows()
}

// finishFlow accounts for and reports one completed transfer.
func (s *Sim) finishFlow(f *flow) {
	s.nodes[f.from].bytesSent += f.size
	s.nodes[f.to].bytesRecv += f.size
	s.totalBytes += f.size
	if f.done != nil {
		f.done(s.now)
	}
}

// Run processes events until none remain, returning the final simulated
// time.
func (s *Sim) Run() time.Duration {
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*event)
		s.now = e.at
		e.fn()
	}
	return s.now
}

// Stats describe the traffic observed by the simulation so far.
type Stats struct {
	TotalBytes int64
	Transfers  int64
}

// Stats returns cumulative traffic counters.
func (s *Sim) Stats() Stats {
	return Stats{TotalBytes: s.totalBytes, Transfers: s.transfers}
}
