package netsim

import (
	"container/heap"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mtree"
)

const mbps10 = 1.25e6 // 10 Mb/s in bytes per second

func TestSingleTransferTiming(t *testing.T) {
	s := New(Sequential)
	a := s.AddNode(1e6, 10*time.Millisecond) // 1 MB/s
	b := s.AddNode(1e6, 10*time.Millisecond)
	var at time.Duration
	if err := s.Transfer(a, b, 1e6, func(now time.Duration) { at = now }); err != nil {
		t.Fatal(err)
	}
	s.Run()
	want := time.Second + 10*time.Millisecond
	if at != want {
		t.Errorf("completion at %v, want %v", at, want)
	}
	if s.BytesSent(a) != 1e6 || s.BytesReceived(b) != 1e6 {
		t.Errorf("accounting: sent=%d recv=%d", s.BytesSent(a), s.BytesReceived(b))
	}
}

func TestSequentialQueueing(t *testing.T) {
	s := New(Sequential)
	a := s.AddNode(1e6, 0)
	b := s.AddNode(1e6, 0)
	c := s.AddNode(1e6, 0)
	var tb, tc time.Duration
	s.Transfer(a, b, 1e6, func(now time.Duration) { tb = now })
	s.Transfer(a, c, 1e6, func(now time.Duration) { tc = now })
	s.Run()
	if tb != time.Second {
		t.Errorf("first transfer at %v, want 1s", tb)
	}
	if tc != 2*time.Second {
		t.Errorf("second transfer at %v, want 2s (queued behind first)", tc)
	}
}

func TestFairShareSplitsUplink(t *testing.T) {
	s := New(FairShare)
	a := s.AddNode(1e6, 0)
	b := s.AddNode(1e6, 0)
	c := s.AddNode(1e6, 0)
	var tb, tc time.Duration
	s.Transfer(a, b, 1e6, func(now time.Duration) { tb = now })
	s.Transfer(a, c, 1e6, func(now time.Duration) { tc = now })
	s.Run()
	// Both flows share the 1 MB/s uplink, so both finish around 2s.
	if tb < 1900*time.Millisecond || tb > 2100*time.Millisecond {
		t.Errorf("flow b at %v, want ~2s", tb)
	}
	if tc < 1900*time.Millisecond || tc > 2100*time.Millisecond {
		t.Errorf("flow c at %v, want ~2s", tc)
	}
}

func TestFairShareLateJoinerSlowsFirstFlow(t *testing.T) {
	s := New(FairShare)
	a := s.AddNode(1e6, 0)
	b := s.AddNode(1e6, 0)
	c := s.AddNode(1e6, 0)
	var tb time.Duration
	s.Transfer(a, b, 1e6, func(now time.Duration) { tb = now })
	// Second flow starts at t=0.5s: first flow has 0.5 MB left, now at
	// 0.5 MB/s -> finishes at 1.5s.
	s.After(500*time.Millisecond, func() {
		s.Transfer(a, c, 1e6, nil)
	})
	s.Run()
	if tb < 1400*time.Millisecond || tb > 1600*time.Millisecond {
		t.Errorf("flow b at %v, want ~1.5s", tb)
	}
}

func TestSelfTransferImmediate(t *testing.T) {
	s := New(Sequential)
	a := s.AddNode(1e6, time.Second)
	fired := false
	s.Transfer(a, a, 1e9, func(now time.Duration) {
		fired = true
		if now != 0 {
			t.Errorf("self transfer at %v, want 0", now)
		}
	})
	s.Run()
	if !fired {
		t.Fatal("self transfer never completed")
	}
}

func TestUnknownNodesRejected(t *testing.T) {
	s := New(Sequential)
	a := s.AddNode(1, 0)
	if err := s.Transfer(a, 99, 1, nil); err == nil {
		t.Error("unknown receiver accepted")
	}
	if err := s.Transfer(99, a, 1, nil); err == nil {
		t.Error("unknown sender accepted")
	}
}

func TestAtAndAfterOrdering(t *testing.T) {
	s := New(Sequential)
	var order []int
	s.At(2*time.Second, func() { order = append(order, 2) })
	s.At(time.Second, func() { order = append(order, 1) })
	s.At(time.Second, func() { order = append(order, 11) }) // FIFO at same instant
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 11 || order[2] != 2 {
		t.Errorf("order = %v", order)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	s := New(Sequential)
	fired := 0
	s.At(time.Second, func() { fired++ })
	s.At(3*time.Second, func() { fired++ })
	now := s.RunUntil(2 * time.Second)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if now != 2*time.Second {
		t.Errorf("now = %v", now)
	}
	s.Run()
	if fired != 2 {
		t.Errorf("fired after Run = %d", fired)
	}
}

// simulateTreeBroadcast performs a store-and-forward broadcast of one
// bundle down the m-ary tree and returns the completion time.
func simulateTreeBroadcast(t *testing.T, total, m int, bundle int64) time.Duration {
	t.Helper()
	s := New(Sequential)
	ids := s.AddNodes(total, mbps10, 5*time.Millisecond)
	var last time.Duration
	var forward func(station int)
	forward = func(station int) {
		kids, err := mtree.Children(station, m, total)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kids {
			k := k
			s.Transfer(ids[station-1], ids[k-1], bundle, func(now time.Duration) {
				if now > last {
					last = now
				}
				forward(k)
			})
		}
	}
	forward(1)
	s.Run()
	return last
}

func TestTreeBroadcastMatchesAnalyticModel(t *testing.T) {
	const total, m = 63, 2
	const bundle = 4 << 20
	got := simulateTreeBroadcast(t, total, m, bundle)
	lm := mtree.LinkModel{Latency: 5 * time.Millisecond, BytesPerSecond: mbps10}
	want, err := mtree.BroadcastTime(total, m, bundle, lm)
	if err != nil {
		t.Fatal(err)
	}
	// The analytic model counts rounds; the simulation pipelines rounds
	// across subtrees, so it can only be equal or slightly faster, and
	// never slower.
	if got > want {
		t.Errorf("simulated %v slower than analytic bound %v", got, want)
	}
	if got < want/2 {
		t.Errorf("simulated %v implausibly fast vs %v", got, want)
	}
}

func TestTreeBroadcastBeatsChainAndStar(t *testing.T) {
	const total = 31
	const bundle = 1 << 20
	chain := simulateTreeBroadcast(t, total, 1, bundle)
	tree := simulateTreeBroadcast(t, total, 3, bundle)
	star := simulateTreeBroadcast(t, total, total-1, bundle)
	if tree >= chain {
		t.Errorf("tree %v not faster than chain %v", tree, chain)
	}
	if tree >= star {
		t.Errorf("tree %v not faster than star %v", tree, star)
	}
}

func TestBroadcastDeliversEveryStationOnce(t *testing.T) {
	const total, m = 40, 3
	s := New(Sequential)
	ids := s.AddNodes(total, mbps10, 0)
	got := make(map[int]int)
	var forward func(station int)
	forward = func(station int) {
		kids, _ := mtree.Children(station, m, total)
		for _, k := range kids {
			k := k
			s.Transfer(ids[station-1], ids[k-1], 1000, func(time.Duration) {
				got[k]++
				forward(k)
			})
		}
	}
	forward(1)
	s.Run()
	if len(got) != total-1 {
		t.Fatalf("delivered to %d stations, want %d", len(got), total-1)
	}
	for k, n := range got {
		if n != 1 {
			t.Errorf("station %d received %d copies", k, n)
		}
	}
	if s.Stats().TotalBytes != int64(1000*(total-1)) {
		t.Errorf("total bytes = %d", s.Stats().TotalBytes)
	}
}

func TestZeroSizeTransferCompletes(t *testing.T) {
	s := New(Sequential)
	a := s.AddNode(1e6, time.Hour)
	b := s.AddNode(1e6, time.Hour)
	fired := false
	s.Transfer(a, b, 0, func(time.Duration) { fired = true })
	s.Run()
	if !fired {
		t.Error("zero-size transfer never completed")
	}
}

// Property: completion callbacks always fire in non-decreasing
// simulated time, whatever the transfer sizes.
func TestQuickEventTimeMonotonic(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := New(Sequential)
		ids := s.AddNodes(4, 1e6, time.Millisecond)
		var last time.Duration
		ok := true
		for i, sz := range sizes {
			if i >= 50 {
				break
			}
			from := ids[i%3]
			to := ids[(i+1)%4]
			s.Transfer(from, to, int64(sz)+1, func(at time.Duration) {
				if at < last {
					ok = false
				}
				last = at
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// RunUntil processes events up to and including the given time; later
// events stay queued.
func (s *Sim) RunUntil(t time.Duration) time.Duration {
	for len(s.events) > 0 && s.events[0].at <= t {
		e := heap.Pop(&s.events).(*event)
		s.now = e.at
		e.fn()
	}
	if s.now < t {
		s.now = t
	}
	return s.now
}

// BytesSent returns the bytes a station has finished sending.
func (s *Sim) BytesSent(id int) int64 {
	if n, ok := s.nodes[id]; ok {
		return n.bytesSent
	}
	return 0
}

// BytesReceived returns the bytes a station has finished receiving.
func (s *Sim) BytesReceived(id int) int64 {
	if n, ok := s.nodes[id]; ok {
		return n.bytesRecv
	}
	return 0
}
