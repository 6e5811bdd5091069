// Package mtree implements the full m-ary tree placement arithmetic used
// by the paper's course distribution mechanism (Shih, Ma & Huang, ICPP
// 1999, section 4).
//
// N stations join the database system in a linear order and are arranged
// into a full m-ary tree following a breadth-first order. Stations are
// numbered from 1 (the instructor station is station 1, the root). The
// paper gives two equations, both reproduced here verbatim:
//
//   - the i-th child (1 <= i <= m) of the n-th station sits at linear
//     position m*(n-1) + i + 1, and
//   - the k-th station (k >= 2) has its unique parent at position
//     (k-i-1)/m + 1 where i = (k-1) mod m, taking i = m when the
//     remainder is zero.
//
// On top of the placement arithmetic the package derives broadcast
// schedules (the "broadcast vector" of section 4), propagation round
// counts under the sequential-uplink model, and the adaptive choice of m
// for a given station count and per-media bandwidth.
package mtree

import (
	"errors"
	"fmt"
	"time"
)

// Errors returned by the placement functions.
var (
	ErrBadDegree   = errors.New("mtree: degree m must be >= 1")
	ErrBadStation  = errors.New("mtree: station positions are numbered from 1")
	ErrBadChildIdx = errors.New("mtree: child index must be in [1, m]")
	ErrRootParent  = errors.New("mtree: the root station has no parent")
)

// Child returns the linear position of the i-th child (1 <= i <= m) of
// the station at linear position n in a full m-ary tree, following the
// paper's equation m*(n-1) + i + 1. The result may exceed the number of
// joined stations; callers clip against N themselves or use Children.
func Child(n, i, m int) (int, error) {
	if m < 1 {
		return 0, ErrBadDegree
	}
	if n < 1 {
		return 0, ErrBadStation
	}
	if i < 1 || i > m {
		return 0, ErrBadChildIdx
	}
	return m*(n-1) + i + 1, nil
}

// Parent returns the linear position of the unique parent of the station
// at position k (k >= 2), following the paper's inverse equation
// (k-i-1)/m + 1 with i = (k-1) mod m and i = m when the remainder is 0.
func Parent(k, m int) (int, error) {
	if m < 1 {
		return 0, ErrBadDegree
	}
	if k < 1 {
		return 0, ErrBadStation
	}
	if k == 1 {
		return 0, ErrRootParent
	}
	i := (k - 1) % m
	if i == 0 {
		i = m
	}
	return (k-i-1)/m + 1, nil
}

// ChildIndex returns which child (1-based) station k is of its parent.
func ChildIndex(k, m int) (int, error) {
	if m < 1 {
		return 0, ErrBadDegree
	}
	if k < 2 {
		return 0, ErrRootParent
	}
	i := (k - 1) % m
	if i == 0 {
		i = m
	}
	return i, nil
}

// Children returns the linear positions of every child of station n that
// actually exists among N joined stations.
func Children(n, m, total int) ([]int, error) {
	if m < 1 {
		return nil, ErrBadDegree
	}
	if n < 1 || n > total {
		return nil, ErrBadStation
	}
	var kids []int
	for i := 1; i <= m; i++ {
		c := m*(n-1) + i + 1
		if c > total {
			break
		}
		kids = append(kids, c)
	}
	return kids, nil
}

// Depth returns the level of station k in the tree; the root (station 1)
// has depth 0. It walks the parent chain, which is O(log_m k).
func Depth(k, m int) (int, error) {
	if m < 1 {
		return 0, ErrBadDegree
	}
	if k < 1 {
		return 0, ErrBadStation
	}
	d := 0
	for k > 1 {
		p, err := Parent(k, m)
		if err != nil {
			return 0, err
		}
		k = p
		d++
	}
	return d, nil
}

// AncestorPath returns the chain of stations from k up to the root,
// inclusive of both endpoints. This is the on-demand pull route of
// section 4: a station missing a lecture asks its parent, which asks its
// parent, until an instance is found.
func AncestorPath(k, m int) ([]int, error) {
	if m < 1 {
		return nil, ErrBadDegree
	}
	if k < 1 {
		return nil, ErrBadStation
	}
	path := []int{k}
	for k > 1 {
		p, err := Parent(k, m)
		if err != nil {
			return nil, err
		}
		path = append(path, p)
		k = p
	}
	return path, nil
}

// Rounds returns, for every station 1..N, the round number at which the
// station finishes receiving the broadcast under the sequential-uplink
// model: a station that already holds the data sends one full copy per
// round, serving its children in child-index order, and every holder
// sends concurrently with every other holder. The root holds the data at
// round 0. Under this model the i-th child of station n completes at
// round(n) + i, so the completion round of station k is the sum of the
// child indices along its root path — the classic uplink-serialized
// multicast bound.
func Rounds(total, m int) ([]int, error) {
	if m < 1 {
		return nil, ErrBadDegree
	}
	if total < 1 {
		return nil, ErrBadStation
	}
	rounds := make([]int, total+1)
	for k := 2; k <= total; k++ {
		p, err := Parent(k, m)
		if err != nil {
			return nil, err
		}
		i, err := ChildIndex(k, m)
		if err != nil {
			return nil, err
		}
		rounds[k] = rounds[p] + i
	}
	return rounds[1:], nil
}

// MaxRound returns the completion round of the slowest station under the
// sequential-uplink model (see Rounds).
func MaxRound(total, m int) (int, error) {
	rounds, err := Rounds(total, m)
	if err != nil {
		return 0, err
	}
	max := 0
	for _, r := range rounds {
		if r > max {
			max = r
		}
	}
	return max, nil
}

// LinkModel describes one class of network path between stations, as the
// paper's system "maintains the sizes of m's, based on the number of
// workstations and the physical network bandwidth for different types of
// multimedia data".
type LinkModel struct {
	// Latency is the fixed per-transfer setup cost.
	Latency time.Duration
	// BytesPerSecond is the sustained uplink bandwidth of a station.
	BytesPerSecond float64
}

// HopTime returns the modeled wall-clock duration of one full-bundle
// transfer across a single tree edge.
func (lm LinkModel) HopTime(bundleBytes int64) time.Duration {
	if lm.BytesPerSecond <= 0 {
		return lm.Latency
	}
	secs := float64(bundleBytes) / lm.BytesPerSecond
	return lm.Latency + time.Duration(secs*float64(time.Second))
}

// BroadcastTime returns the modeled completion time of pre-broadcasting
// a bundle of the given size to all N stations using degree m, under the
// sequential-uplink model.
func BroadcastTime(total, m int, bundleBytes int64, lm LinkModel) (time.Duration, error) {
	maxRound, err := MaxRound(total, m)
	if err != nil {
		return 0, err
	}
	return time.Duration(maxRound) * lm.HopTime(bundleBytes), nil
}

// ChooseM returns the degree in [1, maxM] that minimizes the modeled
// broadcast completion time for the given station count, bundle size and
// link model. Ties resolve to the smaller degree (less peak fan-out per
// station). This implements the adaptive-m policy of section 4.
//
// Under the sequential-uplink model the per-hop time is a constant
// factor, so the chosen degree depends only on the station count; use
// ChooseMFanout for the concurrent fan-out model, where the degree
// genuinely trades latency against bandwidth per media type.
func ChooseM(total int, bundleBytes int64, lm LinkModel, maxM int) (int, time.Duration, error) {
	if maxM < 1 {
		return 0, 0, ErrBadDegree
	}
	if total < 1 {
		return 0, 0, ErrBadStation
	}
	bestM, bestT := 1, time.Duration(-1)
	for m := 1; m <= maxM; m++ {
		t, err := BroadcastTime(total, m, bundleBytes, lm)
		if err != nil {
			return 0, 0, err
		}
		if bestT < 0 || t < bestT {
			bestM, bestT = m, t
		}
	}
	return bestM, bestT, nil
}

// FanoutTime returns the modeled completion time of a store-and-forward
// broadcast in which every holder serves its m children concurrently,
// its uplink bandwidth split evenly among them: one tree level costs
// latency + m*size/bandwidth, and the broadcast takes as many levels as
// the deepest station. Small payloads are latency-bound and favor
// shallow trees (large m); large payloads are bandwidth-bound and favor
// small m — the tension behind the paper's per-media adaptive degree.
func FanoutTime(total, m int, bundleBytes int64, lm LinkModel) (time.Duration, error) {
	if total < 1 {
		return 0, ErrBadStation
	}
	depth, err := Depth(total, m)
	if err != nil {
		return 0, err
	}
	perLevel := lm.Latency
	if lm.BytesPerSecond > 0 {
		secs := float64(m) * float64(bundleBytes) / lm.BytesPerSecond
		perLevel += time.Duration(secs * float64(time.Second))
	}
	return time.Duration(depth) * perLevel, nil
}

// ChooseMFanout returns the degree in [1, maxM] minimizing FanoutTime,
// the adaptive policy "based on the number of workstations and the
// physical network bandwidth for different types of multimedia data".
func ChooseMFanout(total int, bundleBytes int64, lm LinkModel, maxM int) (int, time.Duration, error) {
	if maxM < 1 {
		return 0, 0, ErrBadDegree
	}
	if total < 1 {
		return 0, 0, ErrBadStation
	}
	bestM, bestT := 1, time.Duration(-1)
	for m := 1; m <= maxM; m++ {
		t, err := FanoutTime(total, m, bundleBytes, lm)
		if err != nil {
			return 0, 0, err
		}
		if bestT < 0 || t < bestT {
			bestM, bestT = m, t
		}
	}
	return bestM, bestT, nil
}

// Validate checks that the pair of placement equations is mutually
// consistent for every station in [2, N]: Parent(Child(n, i)) == n and
// ChildIndex(Child(n, i)) == i. It exists so deployments can self-check
// a configured degree before building a broadcast vector.
func Validate(total, m int) error {
	if m < 1 {
		return ErrBadDegree
	}
	for k := 2; k <= total; k++ {
		p, err := Parent(k, m)
		if err != nil {
			return err
		}
		i, err := ChildIndex(k, m)
		if err != nil {
			return err
		}
		c, err := Child(p, i, m)
		if err != nil {
			return err
		}
		if c != k {
			return fmt.Errorf("mtree: inconsistent placement at station %d (degree %d): parent %d child %d resolves to %d", k, m, p, i, c)
		}
	}
	return nil
}
