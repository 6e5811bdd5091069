package fabric

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// eventsByName indexes a merged timeline for assertion convenience.
func eventsByName(events []obs.Event) map[string][]obs.Event {
	by := make(map[string][]obs.Event)
	for _, e := range events {
		by[e.Name] = append(by[e.Name], e)
	}
	return by
}

// TestEventsCollectsMergedTimelineFromAnyStation is the journal's
// end-to-end contract: kill an interior station mid-fabric, let a
// broadcast discover it, then collect the fault narrative — suspect,
// trace-correlated graft, down-confirmed — through a leaf's Events
// entry point, exercising every filter axis and the since-seq cursor,
// and pin the collection's coverage against the netsim model.
func TestEventsCollectsMergedTimelineFromAnyStation(t *testing.T) {
	const n, m = 13, 3
	stations := newFabric(t, n, m, 0)
	root := stations[0]
	spec := authorCourse(t, root, n)

	admin := DialAdmin(root.Addr())
	defer admin.Close()

	// Kill interior station 2 (children 5, 6, 7) without pre-declaring
	// it: the broadcast itself must discover the failure, so the root
	// journals the live narrative — suspect, then the graft correlated
	// to the broadcast's trace, then (after the root's confirmation
	// probe) down-confirmed.
	stations[1].Close()
	res, err := admin.Broadcast(spec.URL, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == 0 {
		t.Fatal("broadcast result carries no trace ID")
	}
	eventually(t, 10*time.Second, "root to confirm the suspected station down", func() bool {
		return root.Down(2)
	})

	// Collect from a leaf: the entry forwards to the root, which
	// scatters the collection tree-wide and merges the timeline.
	leaf := stations[n-1]
	reply, err := leaf.Events(obs.EventFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Stations) != n {
		t.Fatalf("collection covered %d station entries, want %d", len(reply.Stations), n)
	}
	deadEntries := 0
	for _, sr := range reply.Stations {
		if sr.Err != "" {
			deadEntries++
			if sr.Pos != 2 {
				t.Errorf("unexpected dead entry for station %d: %s", sr.Pos, sr.Err)
			}
		}
	}
	if deadEntries != 1 {
		t.Errorf("collection reported %d dead stations, want 1 (position 2)", deadEntries)
	}

	by := eventsByName(reply.Events)
	for _, name := range []string{"suspect", "graft", "down-confirmed"} {
		if len(by[name]) == 0 {
			t.Fatalf("merged timeline lacks %q; events: %+v", name, reply.Events)
		}
	}
	graft := by["graft"][0]
	if graft.Station != 1 {
		t.Errorf("graft journaled at station %d, want the grafting root", graft.Station)
	}
	if graft.TraceID != res.TraceID {
		t.Errorf("graft event trace = %x, want the broadcast's %x", graft.TraceID, res.TraceID)
	}
	if line := graft.Line(); !strings.Contains(line, "child=2") {
		t.Errorf("graft line %q does not name the grafted child", line)
	}
	// The merge is SortEvents order: seq-monotonic within a station.
	var lastSeq uint64
	for _, e := range reply.Events {
		if e.Station == 1 {
			if e.Seq <= lastSeq {
				t.Errorf("root events out of order: seq %d after %d", e.Seq, lastSeq)
			}
			lastSeq = e.Seq
		}
	}

	// Category filter: only the repair events.
	repairs, err := leaf.Events(obs.EventFilter{Category: "repair"})
	if err != nil {
		t.Fatal(err)
	}
	if len(repairs.Events) == 0 {
		t.Fatal("repair filter returned nothing")
	}
	for _, e := range repairs.Events {
		if e.Category != "repair" || e.Name != "graft" {
			t.Errorf("repair filter leaked %s/%s", e.Category, e.Name)
		}
	}

	// Severity floor: errors only — the down declaration, not the
	// warnings that led up to it.
	errs, err := leaf.Events(obs.EventFilter{MinSeverity: obs.SevError})
	if err != nil {
		t.Fatal(err)
	}
	if len(errs.Events) == 0 {
		t.Fatal("severity filter returned nothing")
	}
	for _, e := range errs.Events {
		if e.Severity < obs.SevError {
			t.Errorf("severity filter leaked %s (%s)", e.Name, e.Severity)
		}
	}
	if len(eventsByName(errs.Events)["down-confirmed"]) == 0 {
		t.Error("severity filter lost the down confirmation")
	}

	// Trace correlation: the broadcast's ID selects exactly the events
	// stamped during its traversal.
	traced, err := leaf.Events(obs.EventFilter{TraceID: res.TraceID})
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Events) == 0 {
		t.Fatal("trace filter returned nothing")
	}
	for _, e := range traced.Events {
		if e.TraceID != res.TraceID {
			t.Errorf("trace filter leaked event %s with trace %x", e.Name, e.TraceID)
		}
	}
	if len(eventsByName(traced.Events)["graft"]) == 0 {
		t.Error("trace filter lost the graft")
	}

	// Netsim parity: the simulated collection over the same topology
	// with the live journals' footprint gathers the same event total
	// and covers the same live stations.
	perStation := make(map[int]int)
	for _, e := range reply.Events {
		perStation[e.Station]++
	}
	sim, err := cluster.New(cluster.Config{
		Stations: n, M: m, UplinkBps: 1.25e6, Latency: 5 * time.Millisecond,
		Watermark: 0, Mode: netsim.Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.MarkDown(2); err != nil {
		t.Fatal(err)
	}
	simRep, err := sim.CollectEvents(n, func(p int) int { return perStation[p] })
	if err != nil {
		t.Fatal(err)
	}
	if simRep.Events != len(reply.Events) {
		t.Errorf("simulator gathered %d events, live collection %d", simRep.Events, len(reply.Events))
	}
	if simRep.Covered != n-1 {
		t.Errorf("simulator covered %d stations, want %d (one down)", simRep.Covered, n-1)
	}

	// Since-seq cursor: everything so far sits at or below the cursor,
	// so a poll from the max seen sequence returns nothing...
	var maxSeq uint64
	for _, e := range reply.Events {
		if e.Seq > maxSeq {
			maxSeq = e.Seq
		}
	}
	caughtUp, err := leaf.Events(obs.EventFilter{SinceSeq: maxSeq})
	if err != nil {
		t.Fatal(err)
	}
	if len(caughtUp.Events) != 0 {
		t.Fatalf("cursor at %d still returned %d events: %+v", maxSeq, len(caughtUp.Events), caughtUp.Events)
	}

	// ...and a fresh incident is exactly what the next poll delivers.
	stations[7].Close() // leaf position 8
	probeUntilDown(t, root, 8)
	news, err := leaf.Events(obs.EventFilter{SinceSeq: maxSeq})
	if err != nil {
		t.Fatal(err)
	}
	if len(news.Events) == 0 {
		t.Fatal("cursor poll after a new incident returned nothing")
	}
	for _, e := range news.Events {
		if e.Seq <= maxSeq {
			t.Errorf("cursor leaked old event %s (seq %d <= %d)", e.Name, e.Seq, maxSeq)
		}
	}
	declared := eventsByName(news.Events)["down-declared"]
	if len(declared) == 0 {
		t.Fatalf("cursor poll lacks the new down declaration; events: %+v", news.Events)
	}
	if line := declared[0].Line(); !strings.Contains(line, "pos=8") {
		t.Errorf("down declaration %q does not name station 8", line)
	}
}
