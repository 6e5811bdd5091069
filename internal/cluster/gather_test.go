package cluster

import (
	"testing"
	"time"

	"repro/internal/search"
)

// simGather adapts one of the three simulated gathers to a common
// shape: k is the per-station footprint (spans or events a station
// contributes; for search, the TopK that bounds every reply), and the
// run reports the items gathered beside the shared coverage, latency
// and wire figures.
type simGather struct {
	name string
	run  func(c *Cluster, pos, k int) (items, covered int, latency time.Duration, wire int64, err error)
	// want is the item total over covered answering stations: span and
	// event sets concatenate, search merges replicas to a bounded top-k.
	want func(covered, k int) int
}

// searchPages is the corpus every station of a search run holds: one
// course, broadcast everywhere, so each station answers with the same
// pages and the merge credits each page once.
var searchPages = smallCourse(1).Pages

func simGathers() []simGather {
	return []simGather{
		{
			name: "search",
			run: func(c *Cluster, pos, k int) (int, int, time.Duration, int64, error) {
				rep, err := c.SearchFederated(pos, search.Query{Terms: []string{"lecture"}, TopK: k})
				if err != nil {
					return 0, 0, 0, 0, err
				}
				return len(rep.Hits), rep.Answered, rep.Latency, rep.WireBytes, nil
			},
			want: func(_, k int) int {
				if k < searchPages {
					return k
				}
				return searchPages
			},
		},
		{
			name: "trace",
			run: func(c *Cluster, pos, k int) (int, int, time.Duration, int64, error) {
				rep, err := c.CollectTrace(pos, func(int) int { return k })
				if err != nil {
					return 0, 0, 0, 0, err
				}
				return rep.Spans, rep.Covered, rep.Latency, rep.WireBytes, nil
			},
			want: func(covered, k int) int { return covered * k },
		},
		{
			name: "events",
			run: func(c *Cluster, pos, k int) (int, int, time.Duration, int64, error) {
				rep, err := c.CollectEvents(pos, func(int) int { return k })
				if err != nil {
					return 0, 0, 0, 0, err
				}
				return rep.Events, rep.Covered, rep.Latency, rep.WireBytes, nil
			},
			want: func(covered, k int) int { return covered * k },
		},
	}
}

// newGatherCluster builds a cluster whose every station holds the
// search corpus (the trace and event gathers ignore it).
func newGatherCluster(t *testing.T, stations, m int) *Cluster {
	t.Helper()
	c := newSearchCluster(t, stations, m)
	spec := smallCourse(1)
	if _, _, err := c.AuthorCourse(spec); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.PreBroadcast(spec.URL); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGathersOverTheSimulatedTree pins the one simulated scatter-gather
// through each of its three front ends: whole-tree coverage from an
// interior requester, wire cost that grows with the footprint, latency
// that grows with tree depth, and grafting around a down station.
func TestGathersOverTheSimulatedTree(t *testing.T) {
	for _, g := range simGathers() {
		g := g
		t.Run(g.name+"/gathers whole tree", func(t *testing.T) {
			c := newGatherCluster(t, 13, 3)
			items, covered, latency, wire, err := g.run(c, 7, 2)
			if err != nil {
				t.Fatal(err)
			}
			if covered != 13 || items != g.want(13, 2) {
				t.Fatalf("items=%d covered=%d, want %d/13", items, covered, g.want(13, 2))
			}
			if latency <= 0 || wire <= 0 {
				t.Errorf("latency=%v wire=%d", latency, wire)
			}
		})
		// Span and event sets concatenate on the way up, so their wire
		// cost scales with the footprint; search's grows with the bound
		// its per-hop merge enforces, and no further.
		t.Run(g.name+"/cost grows with footprint", func(t *testing.T) {
			wireFor := func(k int) int64 {
				_, _, _, wire, err := g.run(newGatherCluster(t, 13, 3), 1, k)
				if err != nil {
					t.Fatal(err)
				}
				return wire
			}
			if small, large := wireFor(1), wireFor(5); large <= small {
				t.Fatalf("footprint 5 moved %d bytes, footprint 1 moved %d; want growth", large, small)
			}
		})
		// The scatter-gather costs O(depth) round trips, so a chain
		// (m=1) must answer slower than a wide tree over the same
		// stations — the shape the netsim cost model exists to expose.
		t.Run(g.name+"/latency grows with tree depth", func(t *testing.T) {
			latencyFor := func(m int) time.Duration {
				_, _, latency, _, err := g.run(newGatherCluster(t, 7, m), 1, 2)
				if err != nil {
					t.Fatal(err)
				}
				return latency
			}
			if chain, tree := latencyFor(1), latencyFor(3); chain <= tree {
				t.Errorf("chain latency %v not above m=3 tree latency %v", chain, tree)
			}
		})
		t.Run(g.name+"/grafts around down station", func(t *testing.T) {
			c := newGatherCluster(t, 13, 3)
			if err := c.MarkDown(2); err != nil {
				t.Fatal(err)
			}
			// Station 2's own contribution is lost, but its subtree
			// (5, 6, 7) stays covered through the graft — and asks
			// through it: the requester is one of the orphans.
			items, covered, _, _, err := g.run(c, 5, 100)
			if err != nil {
				t.Fatal(err)
			}
			if covered != 12 || items != g.want(12, 100) {
				t.Fatalf("items=%d covered=%d, want %d/12 (dead station skipped, subtree covered)", items, covered, g.want(12, 100))
			}
			// A down station cannot issue the gather.
			if _, _, _, _, err := g.run(c, 2, 1); err == nil {
				t.Fatal("down station issued a gather")
			}
		})
	}
}
