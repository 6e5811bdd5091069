package loadgen

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/webtest"
)

// Target is what the driver replays traffic against: a set of fabric
// stations addressed by index (0 = root). FabricTarget talks to a live
// fabric over its admin and station RPC surfaces; tests substitute an
// in-memory fake to exercise the driver without sockets.
type Target interface {
	// Stations reports how many stations are addressable.
	Stations() int
	// Broadcast pushes one course tree-wide from the root, returning
	// the bundle transfer size and the operation's trace ID (0 when the
	// target records no traces).
	Broadcast(url string, refsOnly bool) (int64, uint64, error)
	// Migrate runs the end-of-lecture migration from the root.
	Migrate(url string) (uint64, error)
	// Resolve makes a station fetch a course for itself, returning the
	// transfer size (0 when already resident).
	Resolve(station int, url string) (int64, uint64, error)
	// Search runs a federation-wide query through a station.
	Search(station int, terms []string, phrase bool, topK int) (int, uint64, error)
	// Checkout opens and immediately closes a checkout on a station's
	// configuration-management ledger.
	Checkout(station int, kind, objectID, user string) error
	// Stats scrapes every station's unified accounting snapshot.
	Stats() ([]cluster.StatsReply, error)
	// CollectTrace reconstructs one trace fabric-wide: its spans (the
	// hop tree) and the journal events correlated to it. Targets
	// without tracing return empty slices.
	CollectTrace(id uint64) ([]obs.Span, []obs.Event, error)
	Close()
}

// FabricTarget drives a live fabric: one admin client per station for
// distribution verbs, one station client per station for the base RPCs
// (checkout, stats).
type FabricTarget struct {
	admins   []*fabric.Admin
	stations []*cluster.RemoteStation
	addrs    []string
}

// DialFabric connects to the fabric rooted at rootAddr, waiting up to
// wait for the roster to reach want stations (0 = take the roster as
// found). Station index i maps to the i-th lowest live position.
func DialFabric(rootAddr string, want int, wait time.Duration) (*FabricTarget, error) {
	root := fabric.DialAdmin(rootAddr)
	defer root.Close()
	var top fabric.TopologyReply
	err := webtest.PollErr(wait, fmt.Sprintf("fabric roster to reach %d stations", want), func() (bool, error) {
		t, err := root.Topology()
		if err != nil {
			// The root may still be binding; keep polling.
			return false, nil
		}
		top = t
		return want == 0 || t.N >= want, nil
	})
	if err != nil {
		return nil, err
	}
	positions := make([]int, 0, len(top.Roster))
	for pos := range top.Roster {
		if !top.Down[pos] {
			positions = append(positions, pos)
		}
	}
	sort.Ints(positions)
	if want > 0 && len(positions) > want {
		positions = positions[:want]
	}
	t := &FabricTarget{}
	for _, pos := range positions {
		addr := top.Roster[pos]
		st, err := cluster.DialStation(addr)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("dial station %d at %s: %w", pos, addr, err)
		}
		t.admins = append(t.admins, fabric.DialAdmin(addr))
		t.stations = append(t.stations, st)
		t.addrs = append(t.addrs, addr)
	}
	return t, nil
}

// Stations reports the number of dialed stations.
func (t *FabricTarget) Stations() int { return len(t.stations) }

// Broadcast pushes one course tree-wide from the root.
func (t *FabricTarget) Broadcast(url string, refsOnly bool) (int64, uint64, error) {
	res, err := t.admins[0].Broadcast(url, refsOnly)
	if err != nil {
		return 0, 0, err
	}
	return res.Bytes, res.TraceID, nil
}

// Migrate runs the end-of-lecture migration from the root.
func (t *FabricTarget) Migrate(url string) (uint64, error) {
	res, err := t.admins[0].EndLecture(url)
	if err != nil {
		return 0, err
	}
	return res.TraceID, nil
}

// Resolve makes one station pull a course for itself.
func (t *FabricTarget) Resolve(station int, url string) (int64, uint64, error) {
	res, err := t.admins[station].Fetch(url)
	if err != nil {
		return 0, 0, err
	}
	return res.Bytes, res.TraceID, nil
}

// Search runs a federated query through one station.
func (t *FabricTarget) Search(station int, terms []string, phrase bool, topK int) (int, uint64, error) {
	res, err := t.admins[station].Search(terms, phrase, topK)
	if err != nil {
		return 0, 0, err
	}
	return len(res.Hits), res.TraceID, nil
}

// Checkout exercises the station's transactional checkout ledger:
// check out, check straight back in. A single-winner conflict comes
// back as an error wrapping docdb.ErrCheckedOut.
func (t *FabricTarget) Checkout(station int, kind, objectID, user string) error {
	id, err := t.stations[station].CheckOut(kind, objectID, user)
	if err != nil {
		return err
	}
	return t.stations[station].CheckIn(id, "load run")
}

// Stats scrapes every station's snapshot.
func (t *FabricTarget) Stats() ([]cluster.StatsReply, error) {
	out := make([]cluster.StatsReply, 0, len(t.stations))
	for i, st := range t.stations {
		s, err := st.Stats()
		if err != nil {
			return nil, fmt.Errorf("stats from station %d: %w", i, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// CollectTrace gathers one trace's spans and correlated journal
// events fabric-wide through the root's scatter-gather collection —
// the call webdocload makes for each slow exemplar before tearing a
// failed run's fabric down.
func (t *FabricTarget) CollectTrace(id uint64) ([]obs.Span, []obs.Event, error) {
	rep, err := t.admins[0].Trace(id)
	if err != nil {
		return nil, nil, err
	}
	var events []obs.Event
	if evs, err := t.admins[0].Events(obs.EventFilter{TraceID: id}); err == nil {
		events = evs.Events
	}
	return rep.Spans, events, nil
}

// Close releases all connections.
func (t *FabricTarget) Close() {
	for _, a := range t.admins {
		a.Close()
	}
	for _, s := range t.stations {
		s.Close()
	}
}

// IsConflict recognizes checkout contention (the single-winner ledger
// refusing a second checkout) from its wire form — errors cross the
// transport as strings, so the sentinel cannot be matched by value.
func IsConflict(err error) bool {
	return err != nil && strings.Contains(err.Error(), "checked out")
}
