package mtree

import (
	"reflect"
	"testing"
)

func downSet(positions ...int) func(int) bool {
	set := make(map[int]bool, len(positions))
	for _, p := range positions {
		set[p] = true
	}
	return func(p int) bool { return set[p] }
}

func TestLiveChildrenGraftsDeadSubtreeRoots(t *testing.T) {
	// m=2, 15 stations: children of 1 are {2,3}; 2 is dead, so its
	// children {4,5} graft onto the root. 4 is also dead, so ITS
	// children {8,9} graft too — consecutive failures expand
	// recursively.
	got, err := LiveChildren(1, 2, 15, downSet(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{8, 9, 5, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LiveChildren = %v, want %v", got, want)
	}
	// No failures: identical to Children.
	got, err = LiveChildren(1, 2, 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("healthy LiveChildren = %v", got)
	}
}

func TestLiveChildrenChainDegreeOne(t *testing.T) {
	// m=1 degenerates to a chain 1 -> 2 -> 3 -> ... ; a dead middle
	// station grafts the next link onto its parent.
	got, err := LiveChildren(2, 1, 5, downSet(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{4}) {
		t.Errorf("chain LiveChildren = %v, want [4]", got)
	}
	// A dead run collapses the whole stretch onto one sender.
	got, err = LiveChildren(1, 1, 5, downSet(2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("collapsed chain = %v, want [5]", got)
	}
	// The chain's tail: the last station has no children.
	got, err = LiveChildren(5, 1, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("tail LiveChildren = %v", got)
	}
}

func TestLiveChildrenSingleStationTree(t *testing.T) {
	got, err := LiveChildren(1, 3, 1, downSet())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("single-station LiveChildren = %v", got)
	}
	if _, err := LiveChildren(2, 3, 1, nil); err == nil {
		t.Error("station beyond the tree accepted")
	}
}

func TestLiveAncestorsSkipsConsecutiveDeadPositions(t *testing.T) {
	// m=2, station 15: root path is 15 -> 7 -> 3 -> 1. With 7 and 3
	// both dead (a consecutive run), the only live ancestor is the
	// root.
	live, err := LiveAncestors(15, 2, downSet(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, []int{1}) {
		t.Errorf("LiveAncestors = %v, want [1]", live)
	}
	nearest, ok, err := NearestLiveAncestor(15, 2, downSet(7, 3))
	if err != nil || !ok || nearest != 1 {
		t.Errorf("NearestLiveAncestor = %d ok=%v err=%v", nearest, ok, err)
	}
	// Only the immediate parent dead: the grandparent is nearest.
	nearest, ok, err = NearestLiveAncestor(15, 2, downSet(7))
	if err != nil || !ok || nearest != 3 {
		t.Errorf("NearestLiveAncestor = %d ok=%v err=%v", nearest, ok, err)
	}
	// Healthy path: the parent itself.
	nearest, ok, err = NearestLiveAncestor(15, 2, nil)
	if err != nil || !ok || nearest != 7 {
		t.Errorf("NearestLiveAncestor = %d ok=%v err=%v", nearest, ok, err)
	}
}

func TestNearestLiveAncestorAllDead(t *testing.T) {
	// Even the root is dead: no live ancestor exists.
	_, ok, err := NearestLiveAncestor(15, 2, downSet(7, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("found a live ancestor on a fully dead path")
	}
	// The root has no ancestors at all.
	live, err := LiveAncestors(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 0 {
		t.Errorf("root LiveAncestors = %v", live)
	}
}

func TestLiveAncestorsChainDegreeOne(t *testing.T) {
	// m=1 chain, station 5: ancestors are 4, 3, 2, 1; a consecutive
	// dead run 4-3 leaves 2 as the nearest live ancestor.
	live, err := LiveAncestors(5, 1, downSet(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, []int{2, 1}) {
		t.Errorf("chain LiveAncestors = %v, want [2 1]", live)
	}
}

// NearestLiveAncestor returns the closest live ancestor of station k,
// skipping any run of consecutive dead positions on the root path. The
// boolean reports whether one exists (false when every ancestor,
// including the root, is dead).
func NearestLiveAncestor(k, m int, down func(int) bool) (int, bool, error) {
	live, err := LiveAncestors(k, m, down)
	if err != nil {
		return 0, false, err
	}
	if len(live) == 0 {
		return 0, false, nil
	}
	return live[0], true, nil
}
