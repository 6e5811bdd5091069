package fabric

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/transport"
)

// TestFanOutClassifiesChildFailures drives the fan-out kernel with a
// fake call — no sockets — over a 7-position m=2 tree rooted at
// position 1, whose child 2 (children 4 and 5) fails in each of the
// ways a call can, for a read and for a delivery. It pins the
// asymmetry the kernel exists to hold in one place: which failures are
// repaired by grafting, which mark the child suspect, and how many
// times the failing child is called. The application-error cells are
// what keep hopRules' classifiers grounded in transport.Unreachable: a
// classifier that grafts on any error fails them.
func TestFanOutClassifiesChildFailures(t *testing.T) {
	refused := &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	timedOut := fmt.Errorf("transport: Fabric.Search to s2: %w", transport.ErrTimeout)
	answered := errors.New("fabric: station has not joined a fabric")
	cases := []struct {
		name       string
		err        error // what every call to child 2 returns
		knownDown  bool  // child 2 is already in the station's down-set
		idempotent bool
		graft      bool // 4 and 5 are served directly
		suspect    bool
		calls      int // calls made to child 2
	}{
		{"answers/read", nil, false, true, false, false, 1},
		{"answers/delivery", nil, false, false, false, false, 1},
		// The station is alive; the operation just failed there.
		{"application error/read", answered, false, true, false, false, 1},
		{"application error/delivery", answered, false, false, false, false, 1},
		// Hard unreachability: the store-and-forward retry, then the graft.
		{"connection refused/read", refused, false, true, true, true, pushAttempts},
		{"connection refused/delivery", refused, false, false, true, true, pushAttempts},
		// A timed-out call is never re-sent. A read grafts around it
		// without suspecting the station; a delivery reports the hop.
		{"timeout/read", timedOut, false, true, true, false, 1},
		{"timeout/delivery", timedOut, false, false, false, false, 1},
		// Policy, not discovery: no attempt, no journal entry.
		{"known down/read", refused, true, true, true, false, 0},
		{"known down/delivery", refused, true, false, true, false, 0},
	}
	topo := Topology{M: 2, N: 7, Roster: map[int]string{}}
	for pos := 1; pos <= 7; pos++ {
		topo.Roster[pos] = fmt.Sprintf("s%d", pos)
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// Never started, never joined: its own roster is empty, so a
			// suspicion has no root to be reported to.
			s := newStation(newTestStore(t), false, 0, 0)
			s.down[2] = tc.knownDown
			var mu sync.Mutex
			calls := map[string]int{}
			call := func(addr string, timeout time.Duration) (subtree[int], error) {
				mu.Lock()
				calls[addr]++
				mu.Unlock()
				want := time.Duration(0) // a delivery waits the pool's default
				if tc.idempotent {
					want = readCallTimeout
				}
				if timeout != want {
					t.Errorf("call to %s given timeout %v, want %v", addr, timeout, want)
				}
				switch addr {
				case "s2":
					return subtree[int]{Stations: []StationResult{{Pos: 2}, {Pos: 4}, {Pos: 5}}, Items: []int{2, 4, 5}}, tc.err
				case "s3":
					return subtree[int]{Stations: []StationResult{{Pos: 3}, {Pos: 6}, {Pos: 7}}, Items: []int{3, 6, 7}}, nil
				case "s4":
					return subtree[int]{Stations: []StationResult{{Pos: 4}}, Items: []int{4}}, nil
				case "s5":
					return subtree[int]{Stations: []StationResult{{Pos: 5}}, Items: []int{5}}, nil
				}
				return subtree[int]{}, fmt.Errorf("unexpected call to %s", addr)
			}

			got := fanOutTree(s, nil, 1, topo, tc.idempotent, call)

			if calls["s2"] != tc.calls {
				t.Errorf("child 2 was called %d times, want %d", calls["s2"], tc.calls)
			}
			// Every failure lands as the child's own result entry.
			errs := map[int]string{}
			for _, sr := range got.Stations {
				if _, dup := errs[sr.Pos]; dup {
					t.Errorf("station %d reported twice: %+v", sr.Pos, got.Stations)
				}
				errs[sr.Pos] = sr.Err
			}
			failed := tc.err != nil || tc.knownDown
			if (errs[2] != "") != failed {
				t.Errorf("child 2 entry Err = %q, failure expected: %v", errs[2], failed)
			}
			wantItems := []int{2, 3, 4, 5, 6, 7}
			switch {
			case tc.graft:
				wantItems = []int{3, 4, 5, 6, 7}
			case failed:
				wantItems = []int{3, 6, 7}
			}
			sort.Ints(got.Items)
			if fmt.Sprint(got.Items) != fmt.Sprint(wantItems) {
				t.Errorf("items = %v, want %v (graft expected: %v)", got.Items, wantItems, tc.graft)
			}
			for _, pos := range wantItems {
				if err, ok := errs[pos]; !ok || err != "" {
					t.Errorf("station %d entry = %q (present %v), want an answer", pos, err, ok)
				}
			}
			wantStations := len(wantItems)
			if failed {
				wantStations++ // the failed hop's own entry
			}
			if len(got.Stations) != wantStations {
				t.Errorf("stations = %+v, want %d entries", got.Stations, wantStations)
			}
			s.mu.Lock()
			suspect := s.suspect[2]
			s.mu.Unlock()
			if suspect != tc.suspect {
				t.Errorf("child 2 suspect = %v, want %v", suspect, tc.suspect)
			}
			// A graft is journaled when it is a discovery, not when the
			// roster already said so.
			journaled := len(s.observer().Events(obs.EventFilter{Category: "repair"})) > 0
			if want := tc.graft && !tc.knownDown; journaled != want {
				t.Errorf("graft journaled = %v, want %v", journaled, want)
			}
		})
	}
}

// TestGathersGraftAroundDeadInteriorStation runs all three gathers
// over a live 7-station m=2 fabric whose station 2 (children 4, 5) was
// closed without a word. Each must report the same coverage — every
// position once, in order, the dead hop with its error, its children
// answered — and a reply free of duplicates under the operation's own
// identity.
func TestGathersGraftAroundDeadInteriorStation(t *testing.T) {
	stations := newFabric(t, 7, 2, 0)
	for i, st := range stations {
		addLocalDoc(t, st.Store(), i+1)
	}
	leaf := stations[6]
	query := search.Query{Terms: []string{"corpus"}, TopK: 1 << 16}
	healthy, err := leaf.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	stations[1].Close()

	gathers := []struct {
		name string
		run  func() (stations []StationResult, keys []string, err error)
	}{
		{"search", func() ([]StationResult, []string, error) {
			reply, err := leaf.Search(query)
			if err != nil {
				return nil, nil, err
			}
			if len(reply.Hits) != len(healthy.Hits)-1 {
				t.Errorf("%d hits, want the healthy %d less station 2's page", len(reply.Hits), len(healthy.Hits))
			}
			var keys []string
			for _, h := range reply.Hits {
				keys = append(keys, h.Key)
			}
			return reply.Stations, keys, nil
		}},
		{"trace", func() ([]StationResult, []string, error) {
			// The healthy search crossed every station, the dead one included.
			reply, err := leaf.Trace(healthy.TraceID)
			if err != nil {
				return nil, nil, err
			}
			// One scatter hop per live station plus the leaf's entry span.
			if len(reply.Spans) != 7 {
				t.Errorf("%d spans, want 7 (six live scatter hops and the entry)", len(reply.Spans))
			}
			var keys []string
			for _, sp := range reply.Spans {
				keys = append(keys, fmt.Sprint(sp.SpanID))
			}
			return reply.Stations, keys, nil
		}},
		{"events", func() ([]StationResult, []string, error) {
			reply, err := leaf.Events(obs.EventFilter{})
			if err != nil {
				return nil, nil, err
			}
			if len(eventsByName(reply.Events)["graft"]) == 0 {
				t.Errorf("timeline lacks the graft the first gather journaled: %+v", reply.Events)
			}
			var keys []string
			for _, e := range reply.Events {
				keys = append(keys, fmt.Sprint(e.Station, "/", e.Seq))
			}
			return reply.Stations, keys, nil
		}},
	}
	for _, g := range gathers {
		g := g
		t.Run(g.name, func(t *testing.T) {
			covered, keys, err := g.run()
			if err != nil {
				t.Fatal(err)
			}
			if len(covered) != 7 {
				t.Fatalf("covered %+v, want one entry per position", covered)
			}
			for i, sr := range covered {
				if sr.Pos != i+1 {
					t.Fatalf("entry %d is station %d; want position order: %+v", i, sr.Pos, covered)
				}
				if dead := sr.Pos == 2; (sr.Err != "") != dead {
					t.Errorf("station %d Err = %q", sr.Pos, sr.Err)
				}
			}
			seen := map[string]bool{}
			for _, k := range keys {
				if seen[k] {
					t.Errorf("item %s appears twice", k)
				}
				seen[k] = true
			}
			if len(keys) == 0 {
				t.Error("gather returned nothing")
			}
		})
	}
}

// TestDedupeKeepsFirstOfEachKey: the root's finish must survive a
// subtree covered twice (a graft after a timed-out hop that did answer
// in the end).
func TestDedupeKeepsFirstOfEachKey(t *testing.T) {
	events := []obs.Event{
		{Station: 1, Seq: 1, Name: "a"}, {Station: 2, Seq: 1, Name: "b"},
		{Station: 1, Seq: 1, Name: "again"}, {Station: 1, Seq: 2, Name: "c"},
	}
	got := dedupe(events, func(e obs.Event) eventKey { return eventKey{e.Station, e.Seq} })
	if len(got) != 3 || got[0].Name != "a" || got[1].Name != "b" || got[2].Name != "c" {
		t.Errorf("dedupe = %+v", got)
	}
}
