package mtree

import (
	"testing"
	"testing/quick"
	"time"
)

func TestChildMatchesPaperEquation(t *testing.T) {
	// Hand-checked positions for m = 3 (paper's equation m(n-1)+i+1).
	cases := []struct{ n, i, m, want int }{
		{1, 1, 3, 2},
		{1, 2, 3, 3},
		{1, 3, 3, 4},
		{2, 1, 3, 5},
		{2, 2, 3, 6},
		{2, 3, 3, 7},
		{3, 1, 3, 8},
		{4, 3, 3, 13},
		{1, 1, 1, 2}, // degenerate chain
		{2, 1, 1, 3},
		{1, 2, 2, 3},
		{5, 2, 2, 11},
	}
	for _, c := range cases {
		got, err := Child(c.n, c.i, c.m)
		if err != nil {
			t.Fatalf("Child(%d,%d,%d): %v", c.n, c.i, c.m, err)
		}
		if got != c.want {
			t.Errorf("Child(%d,%d,%d) = %d, want %d", c.n, c.i, c.m, got, c.want)
		}
	}
}

func TestParentMatchesPaperEquation(t *testing.T) {
	cases := []struct{ k, m, want int }{
		{2, 3, 1},
		{3, 3, 1},
		{4, 3, 1},
		{5, 3, 2},
		{7, 3, 2},
		{8, 3, 3},
		{13, 3, 4},
		{2, 1, 1},
		{3, 1, 2},
		{11, 2, 5},
	}
	for _, c := range cases {
		got, err := Parent(c.k, c.m)
		if err != nil {
			t.Fatalf("Parent(%d,%d): %v", c.k, c.m, err)
		}
		if got != c.want {
			t.Errorf("Parent(%d,%d) = %d, want %d", c.k, c.m, got, c.want)
		}
	}
}

func TestParentOfRootFails(t *testing.T) {
	if _, err := Parent(1, 4); err != ErrRootParent {
		t.Fatalf("Parent(1,4) err = %v, want ErrRootParent", err)
	}
}

func TestArgumentValidation(t *testing.T) {
	if _, err := Child(1, 1, 0); err != ErrBadDegree {
		t.Errorf("Child degree 0: err = %v", err)
	}
	if _, err := Child(0, 1, 2); err != ErrBadStation {
		t.Errorf("Child station 0: err = %v", err)
	}
	if _, err := Child(1, 3, 2); err != ErrBadChildIdx {
		t.Errorf("Child index 3 of degree 2: err = %v", err)
	}
	if _, err := Parent(2, 0); err != ErrBadDegree {
		t.Errorf("Parent degree 0: err = %v", err)
	}
	if _, err := Depth(0, 2); err != ErrBadStation {
		t.Errorf("Depth station 0: err = %v", err)
	}
	if _, err := Children(5, 2, 4); err != ErrBadStation {
		t.Errorf("Children beyond N: err = %v", err)
	}
	if _, _, err := ChooseM(10, 1, LinkModel{}, 0); err != ErrBadDegree {
		t.Errorf("ChooseM maxM 0: err = %v", err)
	}
}

// Property: Parent(Child(n, i)) == n and ChildIndex round-trips, for all
// degrees and stations drawn by testing/quick.
func TestQuickParentChildInverse(t *testing.T) {
	f := func(nRaw, iRaw, mRaw uint16) bool {
		m := int(mRaw%16) + 1
		n := int(nRaw%10000) + 1
		i := int(iRaw%uint16(m)) + 1
		c, err := Child(n, i, m)
		if err != nil {
			return false
		}
		p, err := Parent(c, m)
		if err != nil {
			return false
		}
		idx, err := ChildIndex(c, m)
		if err != nil {
			return false
		}
		return p == n && idx == i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: every station 2..N is the child of exactly one parent, i.e.
// the children lists partition [2..N].
func TestQuickChildrenPartitionStations(t *testing.T) {
	f := func(nRaw, mRaw uint16) bool {
		m := int(mRaw%8) + 1
		total := int(nRaw%500) + 2
		seen := make(map[int]int)
		for n := 1; n <= total; n++ {
			kids, err := Children(n, m, total)
			if err != nil {
				return false
			}
			for _, k := range kids {
				seen[k]++
			}
		}
		if len(seen) != total-1 {
			return false
		}
		for k := 2; k <= total; k++ {
			if seen[k] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: depths along the parent chain decrease by exactly one.
func TestQuickDepthDecreasesAlongPath(t *testing.T) {
	f := func(kRaw, mRaw uint16) bool {
		m := int(mRaw%8) + 1
		k := int(kRaw%5000) + 2
		path, err := AncestorPath(k, m)
		if err != nil {
			return false
		}
		for j := 0; j+1 < len(path); j++ {
			d0, err0 := Depth(path[j], m)
			d1, err1 := Depth(path[j+1], m)
			if err0 != nil || err1 != nil || d0 != d1+1 {
				return false
			}
		}
		return path[len(path)-1] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDepthExactValuesBinaryTree(t *testing.T) {
	// For m = 2 the levels are 1 | 2 3 | 4..7 | 8..15 ...
	wantDepths := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 15: 3, 16: 4}
	for k, want := range wantDepths {
		got, err := Depth(k, 2)
		if err != nil {
			t.Fatalf("Depth(%d,2): %v", k, err)
		}
		if got != want {
			t.Errorf("Depth(%d,2) = %d, want %d", k, got, want)
		}
	}
}

func TestEdgesBFSOrderAndCount(t *testing.T) {
	edges, err := Edges(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 9 {
		t.Fatalf("len(edges) = %d, want 9", len(edges))
	}
	want := []Edge{{1, 2}, {1, 3}, {1, 4}, {2, 5}, {2, 6}, {2, 7}, {3, 8}, {3, 9}, {3, 10}}
	for i, e := range edges {
		if e != want[i] {
			t.Errorf("edges[%d] = %+v, want %+v", i, e, want[i])
		}
	}
}

func TestAncestorPathChain(t *testing.T) {
	path, err := AncestorPath(13, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{13, 4, 1}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestRoundsSequentialUplink(t *testing.T) {
	// m = 2, N = 7: completion rounds are sums of child indices on the
	// root path: station 2 -> 1, 3 -> 2, 4 -> 2, 5 -> 3, 6 -> 3, 7 -> 4.
	rounds, err := Rounds(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 2, 3, 3, 4}
	for i, w := range want {
		if rounds[i] != w {
			t.Errorf("rounds[%d] = %d, want %d (all %v)", i, rounds[i], w, rounds)
		}
	}
}

func TestMaxRoundChainEqualsN(t *testing.T) {
	// Degenerate chain (m = 1): station k completes at round k-1.
	got, err := MaxRound(9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 8 {
		t.Errorf("MaxRound(9,1) = %d, want 8", got)
	}
}

func TestMaxRoundStarEqualsNMinusOne(t *testing.T) {
	// Root-unicast (m = N-1): root serves each station in turn.
	got, err := MaxRound(9, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != 8 {
		t.Errorf("MaxRound(9,8) = %d, want 8", got)
	}
}

func TestTreeBeatsChainAndStar(t *testing.T) {
	for _, total := range []int{15, 63, 255} {
		chain, err := MaxRound(total, 1)
		if err != nil {
			t.Fatal(err)
		}
		star, err := MaxRound(total, total-1)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := MaxRound(total, 3)
		if err != nil {
			t.Fatal(err)
		}
		if tree >= chain || tree >= star {
			t.Errorf("N=%d: tree rounds %d should beat chain %d and star %d", total, tree, chain, star)
		}
	}
}

func TestChooseMPrefersInteriorDegree(t *testing.T) {
	lm := LinkModel{Latency: 5 * time.Millisecond, BytesPerSecond: 1.25e6}
	m, _, err := ChooseM(255, 48<<20, lm, 16)
	if err != nil {
		t.Fatal(err)
	}
	if m <= 1 || m >= 16 {
		t.Errorf("ChooseM picked boundary degree %d; expected an interior optimum", m)
	}
}

func TestHopTimeZeroBandwidth(t *testing.T) {
	lm := LinkModel{Latency: time.Second}
	if got := lm.HopTime(1 << 30); got != time.Second {
		t.Errorf("HopTime with zero bandwidth = %v, want latency only", got)
	}
}

func TestBroadcastTimeScalesWithRounds(t *testing.T) {
	lm := LinkModel{Latency: 0, BytesPerSecond: 1e6}
	t1, err := BroadcastTime(63, 2, 1e6, lm)
	if err != nil {
		t.Fatal(err)
	}
	maxRound, err := MaxRound(63, 2)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != time.Duration(maxRound)*time.Second {
		t.Errorf("BroadcastTime = %v, want %v", t1, time.Duration(maxRound)*time.Second)
	}
}

func TestValidateAllSmallConfigs(t *testing.T) {
	for m := 1; m <= 12; m++ {
		for total := 1; total <= 300; total++ {
			if err := Validate(total, m); err != nil {
				t.Fatalf("Validate(%d,%d): %v", total, m, err)
			}
		}
	}
}

func TestValidateLarge(t *testing.T) {
	for _, m := range []int{2, 3, 7, 16} {
		if err := Validate(100000, m); err != nil {
			t.Fatalf("Validate(1e5,%d): %v", m, err)
		}
	}
}

func TestChildrenClipsAtTotal(t *testing.T) {
	kids, err := Children(4, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Children of station 4 under m=3 are 11, 12, 13; 13 is clipped.
	if len(kids) != 2 || kids[0] != 11 || kids[1] != 12 {
		t.Fatalf("Children(4,3,12) = %v, want [11 12]", kids)
	}
}

func TestFanoutTimeLatencyVsBandwidth(t *testing.T) {
	lm := mtree_testLM()
	// Tiny payload: latency dominates, so a shallower (larger-m) tree wins.
	mSmall, _, err := ChooseMFanout(63, 1<<10, lm, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Huge payload: bandwidth dominates, so a small interior degree wins.
	mBig, _, err := ChooseMFanout(63, 256<<20, lm, 16)
	if err != nil {
		t.Fatal(err)
	}
	if mSmall <= mBig {
		t.Errorf("fan-out degree for tiny payload %d should exceed huge payload %d", mSmall, mBig)
	}
	if mBig < 2 || mBig > 4 {
		t.Errorf("bandwidth-bound optimum %d should be a small interior degree", mBig)
	}
}

func mtree_testLM() LinkModel {
	return LinkModel{Latency: 5 * time.Millisecond, BytesPerSecond: 1.25e6}
}

func TestFanoutTimeChainVsStar(t *testing.T) {
	lm := mtree_testLM()
	// For one station there is nothing to send.
	d, err := FanoutTime(1, 3, 1<<20, lm)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("single station fanout time = %v", d)
	}
	chain, err := FanoutTime(16, 1, 1<<20, lm)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := FanoutTime(16, 3, 1<<20, lm)
	if err != nil {
		t.Fatal(err)
	}
	if tree >= chain {
		t.Errorf("fan-out tree %v not faster than chain %v", tree, chain)
	}
}

func TestChooseMFanoutValidation(t *testing.T) {
	lm := mtree_testLM()
	if _, _, err := ChooseMFanout(0, 1, lm, 4); err != ErrBadStation {
		t.Errorf("err = %v", err)
	}
	if _, _, err := ChooseMFanout(5, 1, lm, 0); err != ErrBadDegree {
		t.Errorf("err = %v", err)
	}
	if _, err := FanoutTime(0, 2, 1, lm); err != ErrBadStation {
		t.Errorf("err = %v", err)
	}
}

// Edge is one parent-to-child transfer in the distribution tree.
type Edge struct {
	From int // sender's linear position
	To   int // receiver's linear position
}

// Edges returns every tree edge for N stations joined under degree m, in
// breadth-first order of the receiving station. This is the "broadcast
// vector" of section 4: a linear sequence of stations, each annotated
// with the sender it copies from.
func Edges(total, m int) ([]Edge, error) {
	if m < 1 {
		return nil, ErrBadDegree
	}
	if total < 1 {
		return nil, ErrBadStation
	}
	edges := make([]Edge, 0, total-1)
	for k := 2; k <= total; k++ {
		p, err := Parent(k, m)
		if err != nil {
			return nil, err
		}
		edges = append(edges, Edge{From: p, To: k})
	}
	return edges, nil
}
