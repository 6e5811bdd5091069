package fabric

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/docdb"
	"repro/internal/netsim"
	"repro/internal/search"
	"repro/internal/webtest"
)

// addLocalDoc authors a station-local page: the catalog scaffold plus
// one HTML file carrying a shared corpus term and a per-station unique
// term. This is the content only that station can answer for.
func addLocalDoc(t *testing.T, store *docdb.Store, pos int) string {
	t.Helper()
	script := fmt.Sprintf("local-%03d", pos)
	url := fmt.Sprintf("http://mmu/local-%03d/v1", pos)
	if _, err := store.Database("mmu"); err != nil {
		if err := store.CreateDatabase(docdb.Database{Name: "mmu"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.CreateScript(docdb.Script{
		Name: script, DBName: "mmu", Author: fmt.Sprintf("author%d", pos),
		Description: fmt.Sprintf("Station %d shard", pos),
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.AddImplementation(docdb.Implementation{StartingURL: url, ScriptName: script}); err != nil {
		t.Fatal(err)
	}
	page := fmt.Sprintf("<html><title>shard %d</title><body>federated corpus shardterm%04d</body></html>", pos, pos)
	if err := store.PutHTML(url, "index.html", []byte(page)); err != nil {
		t.Fatal(err)
	}
	return url
}

// comparable projection of a hit: everything content-derived. Station
// is excluded — the fabric credits the lowest-positioned replica, the
// merged baseline has no stations at all.
type hitView struct {
	Key     string
	Kind    string
	Score   int64
	Snippet string
}

func views(hits []search.Hit) []hitView {
	out := make([]hitView, len(hits))
	for i, h := range hits {
		out[i] = hitView{Key: h.Key, Kind: h.Kind, Score: h.Score, Snippet: h.Snippet}
	}
	return out
}

func diffHits(t *testing.T, label string, got, want []search.Hit) {
	t.Helper()
	g, w := views(got), views(want)
	if len(g) != len(w) {
		t.Errorf("%s: %d hits, want %d\n got %v\nwant %v", label, len(g), len(w), g, w)
		return
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: hit %d = %+v, want %+v", label, i, g[i], w[i])
		}
	}
}

// TestFederatedSearchMatchesBaselineAndSimulator is the acceptance
// run: a 13-station m=3 fabric answers a full-text query issued at a
// leaf with exactly the hits a single merged-catalog scan baseline
// predicts, pinned against the netsim scatter-gather model — including
// after an interior station is killed mid-run.
func TestFederatedSearchMatchesBaselineAndSimulator(t *testing.T) {
	const (
		n         = 13
		m         = 3
		watermark = 0
	)
	spec := smallCourse(1)
	query := search.Query{Terms: []string{"corpus", "lecture"}, TopK: 1 << 16}

	// --- Live fabric: root authors and broadcasts a course, every
	// station adds a local-only shard document.
	stations := newFabric(t, n, m, watermark)
	root := stations[0]
	authorCourse(t, root, 1)
	res, err := root.Broadcast(spec.URL, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.Stations {
		if sr.Err != "" {
			t.Fatalf("broadcast to station %d: %s", sr.Pos, sr.Err)
		}
	}
	for i, st := range stations {
		addLocalDoc(t, st.Store(), i+1)
	}

	// --- Merged-catalog baseline: one store holding the union of every
	// station's documents, scanned linearly (no inverted index on the
	// query path).
	base := newTestStore(t)
	bundle, err := root.Store().ExportBundle(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.ImportBundle(bundle, 1, true); err != nil {
		t.Fatal(err)
	}
	for pos := 1; pos <= n; pos++ {
		addLocalDoc(t, base, pos)
	}
	baseline := base.ContentIndex().(*search.Index)
	want := baseline.ScanSearch(query)
	if len(want) < n+1 {
		t.Fatalf("baseline found only %d hits — corpus premise broken", len(want))
	}
	// The scan baseline and the indexed path agree before anything
	// distributed is trusted.
	diffHits(t, "baseline scan vs index", baseline.Search(query), want)

	// --- Simulator: same corpus, same schedule, discrete-event time.
	sim, err := cluster.New(cluster.Config{
		Stations: n, M: m, UplinkBps: 1.25e6, Latency: 5 * time.Millisecond,
		Watermark: watermark, Mode: netsim.Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.AuthorCourse(spec); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.PreBroadcast(spec.URL); err != nil {
		t.Fatal(err)
	}
	for pos := 1; pos <= n; pos++ {
		st, err := sim.Station(pos)
		if err != nil {
			t.Fatal(err)
		}
		addLocalDoc(t, st.Store, pos)
	}

	// --- Healthy run: the leaf's answer equals the baseline and the
	// simulator, station for station.
	leaf := stations[n-1]
	reply, err := leaf.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	diffHits(t, "fabric vs baseline", reply.Hits, want)
	for _, sr := range reply.Stations {
		if sr.Err != "" {
			t.Errorf("healthy scatter reported station %d: %s", sr.Pos, sr.Err)
		}
	}
	if len(reply.Stations) != n {
		t.Errorf("scatter covered %d stations, want %d", len(reply.Stations), n)
	}
	simRep, err := sim.SearchFederated(n, query)
	if err != nil {
		t.Fatal(err)
	}
	diffHits(t, "simulator vs baseline", simRep.Hits, want)
	if simRep.Answered != n || simRep.Latency <= 0 {
		t.Errorf("simulator report = answered %d, latency %v", simRep.Answered, simRep.Latency)
	}

	// --- Interior failure: station 2 (children 5,6,7) dies without a
	// word. The scatter grafts its subtree onto the root; only station
	// 2's own shard drops out of the answer.
	stations[1].Close()
	deadKey := search.Key(search.KindHTML, "http://mmu/local-002/v1", "index.html")
	deadScript := search.Key(search.KindScript, "", "local-002")
	var wantDead []search.Hit
	for _, h := range want {
		if h.Key != deadKey && h.Key != deadScript {
			wantDead = append(wantDead, h)
		}
	}
	reply, err = leaf.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	diffHits(t, "fabric with dead interior station", reply.Hits, wantDead)
	byPos := map[int]StationResult{}
	for _, sr := range reply.Stations {
		byPos[sr.Pos] = sr
	}
	if byPos[2].Err == "" {
		t.Error("dead station 2 not reported in the scatter results")
	}
	for _, pos := range []int{5, 6, 7} {
		if byPos[pos].Err != "" {
			t.Errorf("grafted child %d reported dead: %s", pos, byPos[pos].Err)
		}
	}

	if err := sim.MarkDown(2); err != nil {
		t.Fatal(err)
	}
	simRep, err = sim.SearchFederated(n, query)
	if err != nil {
		t.Fatal(err)
	}
	diffHits(t, "simulator with dead interior station", simRep.Hits, wantDead)
	if simRep.Answered != n-1 {
		t.Errorf("simulator answered = %d, want %d", simRep.Answered, n-1)
	}
}

// TestSearchTopKBoundsEveryReply: the per-hop merge keeps replies
// bounded, and the bounded answer is exactly the baseline's head.
func TestSearchTopKBoundsEveryReply(t *testing.T) {
	stations := newFabric(t, 5, 2, 0)
	for i, st := range stations {
		addLocalDoc(t, st.Store(), i+1)
	}
	base := newTestStore(t)
	for pos := 1; pos <= 5; pos++ {
		addLocalDoc(t, base, pos)
	}
	want := base.ContentIndex().(*search.Index).ScanSearch(search.Query{Terms: []string{"corpus"}, TopK: 3})
	reply, err := stations[4].Search(search.Query{Terms: []string{"corpus"}, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Hits) != 3 {
		t.Fatalf("topK=3 returned %d hits", len(reply.Hits))
	}
	diffHits(t, "bounded reply", reply.Hits, want)
}

// TestSearchDedupsBroadcastReplicas: a document broadcast to every
// station appears once in the federation answer, credited to the
// lowest-positioned holder (the root).
func TestSearchDedupsBroadcastReplicas(t *testing.T) {
	stations := newFabric(t, 5, 2, 0)
	root := stations[0]
	spec := authorCourse(t, root, 1)
	if _, err := root.Broadcast(spec.URL, false); err != nil {
		t.Fatal(err)
	}
	reply, err := stations[3].Search(search.Query{Terms: []string{"lecture"}, TopK: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, h := range reply.Hits {
		seen[h.Key]++
		if h.Station != 1 {
			t.Errorf("replicated hit %s credited to station %d, want 1", h.Key, h.Station)
		}
	}
	for key, count := range seen {
		if count > 1 {
			t.Errorf("hit %s appeared %d times", key, count)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no hits for broadcast content")
	}
}

// TestReferenceOnlyStationAnswersWithoutBlobs: after a reference-only
// broadcast, a leaf query still finds the course through the catalog
// metadata in every station's index, and answering materializes no
// content anywhere — reference stations never touch the BLOB layer.
func TestReferenceOnlyStationAnswersWithoutBlobs(t *testing.T) {
	stations := newFabric(t, 5, 2, 0)
	root := stations[0]
	spec := authorCourse(t, root, 1)
	if _, err := root.Broadcast(spec.URL, true); err != nil {
		t.Fatal(err)
	}
	reply, err := stations[4].Search(search.Query{Terms: []string{spec.Keywords[0]}, TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range reply.Hits {
		if h.Kind == search.KindScript && h.Path == spec.ScriptName {
			found = true
		}
	}
	if !found {
		t.Fatalf("catalog metadata hit missing from reference-only fabric: %+v", reply.Hits)
	}
	for i, st := range stations[1:] {
		if got := st.Store().Blobs().Stats().PhysicalBytes; got != 0 {
			t.Errorf("station %d materialized %d BLOB bytes answering a search", i+2, got)
		}
	}
}

// TestSearchFromEveryStationAgrees: the answer is position-independent
// — any station's round trip to the root yields the same hits and the
// same position-ordered coverage.
func TestSearchFromEveryStationAgrees(t *testing.T) {
	stations := newFabric(t, 5, 2, 0)
	for i, st := range stations {
		addLocalDoc(t, st.Store(), i+1)
	}
	query := search.Query{Terms: []string{"corpus"}, TopK: 1 << 16}
	first, err := stations[0].Search(query)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stations {
		reply, err := st.Search(query)
		if err != nil {
			t.Fatalf("station %d: %v", i+1, err)
		}
		diffHits(t, fmt.Sprintf("station %d vs root", i+1), reply.Hits, first.Hits)
		// Coverage comes back in position order, like every tree
		// operation's, not in the order the scatter's goroutines landed.
		for j, sr := range reply.Stations {
			if sr.Pos != j+1 {
				t.Fatalf("station %d: coverage out of position order: %+v", i+1, reply.Stations)
			}
		}
	}
}

// TestAdminSearchVerb drives the webdocctl path: the typed admin
// client queries through an arbitrary station.
func TestAdminSearchVerb(t *testing.T) {
	stations := newFabric(t, 3, 2, 0)
	for i, st := range stations {
		addLocalDoc(t, st.Store(), i+1)
	}
	admin := DialAdmin(stations[2].Addr())
	defer admin.Close()
	reply, err := admin.Search([]string{"shardterm0002"}, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Hits) != 1 || reply.Hits[0].Station != 2 {
		t.Fatalf("admin search hits = %+v", reply.Hits)
	}
	// Phrase flag travels end to end.
	phrase, err := admin.Search([]string{"federated", "corpus"}, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(phrase.Hits) != 3 {
		t.Errorf("phrase hits = %+v", phrase.Hits)
	}
	none, err := admin.Search([]string{"corpus", "federated"}, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(none.Hits) != 0 {
		t.Errorf("reversed phrase matched: %+v", none.Hits)
	}
}

// TestSearchWaitsOutRepairedStation: killing a station and letting the
// heartbeat declare it dead must leave searches working through the
// grafted tree (the known-down path, as opposed to the in-flight
// discovery the acceptance test covers).
func TestSearchWaitsOutRepairedStation(t *testing.T) {
	stations := newFabric(t, 7, 2, 0)
	root := stations[0]
	for i, st := range stations {
		addLocalDoc(t, st.Store(), i+1)
	}
	if err := root.StartHeartbeat(50*time.Millisecond, 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	stations[1].Close()
	webtest.Eventually(t, 10*time.Second, "root to declare station 2 dead", func() bool {
		return root.Down(2)
	})
	reply, err := stations[6].Search(search.Query{Terms: []string{"corpus"}, TopK: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	// One shard page per live station; the dead station's is the only
	// loss.
	if len(reply.Hits) != 6 {
		t.Errorf("hits after repair = %d, want 6", len(reply.Hits))
	}
}
