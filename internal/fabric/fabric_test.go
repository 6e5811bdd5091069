package fabric

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/docdb"
	"repro/internal/mtree"
	"repro/internal/netsim"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/workload"
)

func newTestStore(t *testing.T) *docdb.Store {
	t.Helper()
	store, err := docdb.Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	store.Now = func() time.Time { return time.Date(1999, 4, 21, 8, 0, 0, 0, time.UTC) }
	// Every test station carries a content index, as deployed stations
	// do — the write hooks then run under the race detector beside the
	// fabric traffic.
	if _, err := search.Attach(store); err != nil {
		t.Fatal(err)
	}
	return store
}

// newFabric builds an in-process fabric of n stations (root plus n-1
// joiners), each with its own document database and listen socket.
func newFabric(t *testing.T, n, m, watermark int) []*Station {
	t.Helper()
	root, err := NewRoot(newTestStore(t), "127.0.0.1:0", m, watermark)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	stations := []*Station{root}
	for i := 2; i <= n; i++ {
		st, err := Join(newTestStore(t), "127.0.0.1:0", root.Addr())
		if err != nil {
			t.Fatalf("station %d join: %v", i, err)
		}
		t.Cleanup(func() { st.Close() })
		stations = append(stations, st)
	}
	return stations
}

func smallCourse(n int) workload.CourseSpec {
	spec := workload.DefaultSpec(n)
	spec.Pages = 6
	spec.ExtraLinks = 3
	spec.ImagesPerPage = 1
	spec.VideoEvery = 3
	spec.AudioEvery = 0
	spec.MediaScaleDown = 16384
	return spec
}

// authorCourse builds a course on the root station and records the
// persistent instance plus its reusable class, as the instructor
// station does.
func authorCourse(t *testing.T, root *Station, n int) workload.CourseSpec {
	t.Helper()
	spec := smallCourse(n)
	if _, err := workload.BuildCourse(root.Store(), spec); err != nil {
		t.Fatal(err)
	}
	inst, err := root.Store().NewInstance(spec.URL, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.Store().DeclareClass(inst.ID); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestJoinAssignsLinearPositionsAndRoutes(t *testing.T) {
	stations := newFabric(t, 5, 2, 1)
	for i, st := range stations {
		if got := st.Pos(); got != i+1 {
			t.Errorf("station %d: pos = %d", i+1, got)
		}
	}
	// Every station can answer a topology query; the root view is
	// authoritative and complete.
	admin := DialAdmin(stations[0].Addr())
	defer admin.Close()
	top, err := admin.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if !top.IsRoot || top.N != 5 || top.M != 2 || len(top.Roster) != 5 {
		t.Fatalf("root topology = %+v", top)
	}
	// The roster addresses match the stations' bound sockets.
	for i, st := range stations {
		if top.Roster[i+1] != st.Addr() {
			t.Errorf("roster[%d] = %s, want %s", i+1, top.Roster[i+1], st.Addr())
		}
	}
	// A joiner knows at least its ancestors (its join-time roster) and
	// its own position.
	leaf := DialAdmin(stations[4].Addr())
	defer leaf.Close()
	ltop, err := leaf.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if ltop.Pos != 5 || ltop.IsRoot {
		t.Fatalf("leaf topology = %+v", ltop)
	}
	parent, err := mtree.Parent(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ltop.Roster[parent]; !ok {
		t.Errorf("leaf roster lacks its parent %d: %v", parent, ltop.Roster)
	}
}

func TestJoinRequiresRoot(t *testing.T) {
	stations := newFabric(t, 3, 2, 1)
	if _, err := Join(newTestStore(t), "127.0.0.1:0", stations[1].Addr()); err == nil {
		t.Fatal("joining via a non-root station succeeded")
	}
}

func TestBroadcastPlacesInstancesEverywhere(t *testing.T) {
	stations := newFabric(t, 5, 2, 1)
	spec := authorCourse(t, stations[0], 1)
	res, err := stations[0].Broadcast(spec.URL, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stations) != 4 {
		t.Fatalf("results = %+v", res.Stations)
	}
	for _, sr := range res.Stations {
		if sr.Err != "" || sr.Form != schema.FormInstance {
			t.Errorf("station %d: form=%q err=%q", sr.Pos, sr.Form, sr.Err)
		}
	}
	if res.Bytes == 0 {
		t.Error("broadcast reported zero bundle bytes")
	}
	// Every station now holds a physical instance with identical pages
	// and resident media bytes.
	want, err := stations[0].Store().HTML(spec.URL, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stations[1:] {
		obj, err := st.Store().ObjectByURL(spec.URL)
		if err != nil || obj.Form != schema.FormInstance {
			t.Fatalf("station %d: obj=%+v err=%v", i+2, obj, err)
		}
		got, err := st.Store().HTML(spec.URL, "index.html")
		if err != nil || string(got) != string(want) {
			t.Errorf("station %d: page mismatch (err=%v)", i+2, err)
		}
		if st.Store().Blobs().Stats().PhysicalBytes == 0 {
			t.Errorf("station %d: no physical BLOB bytes after full broadcast", i+2)
		}
	}
}

func TestBroadcastReferencesCarryNoBlobs(t *testing.T) {
	stations := newFabric(t, 5, 2, 1)
	spec := authorCourse(t, stations[0], 1)
	res, err := stations[0].Broadcast(spec.URL, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.Stations {
		if sr.Err != "" || sr.Form != schema.FormReference {
			t.Errorf("station %d: form=%q err=%q", sr.Pos, sr.Form, sr.Err)
		}
	}
	// A reference-only bundle is tiny compared to the full closure.
	full, err := stations[0].Store().ExportBundle(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes >= full.TotalBytes() {
		t.Errorf("ref bundle %d bytes >= full bundle %d bytes", res.Bytes, full.TotalBytes())
	}
	for i, st := range stations[1:] {
		obj, err := st.Store().ObjectByURL(spec.URL)
		if err != nil || obj.Form != schema.FormReference {
			t.Fatalf("station %d: obj=%+v err=%v", i+2, obj, err)
		}
		if phys := st.Store().Blobs().Stats().PhysicalBytes; phys != 0 {
			t.Errorf("station %d: %d physical bytes after reference broadcast", i+2, phys)
		}
	}
}

// TestBroadcastAllBatchesDocuments: several documents ride one batched
// traversal, landing everywhere with per-station per-document results.
func TestBroadcastAllBatchesDocuments(t *testing.T) {
	stations := newFabric(t, 5, 2, 1)
	specA := authorCourse(t, stations[0], 1)
	specB := authorCourse(t, stations[0], 2)
	if specA.URL == specB.URL {
		t.Fatalf("course specs share URL %q", specA.URL)
	}
	urls := []string{specA.URL, specB.URL}

	admin := DialAdmin(stations[0].Addr())
	defer admin.Close()
	res, err := admin.BroadcastAll(urls, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.URL != urls[0] || len(res.URLs) != 2 {
		t.Fatalf("result names %q / %v", res.URL, res.URLs)
	}
	// One result per station per document, each labeled with its URL.
	seen := make(map[string]int)
	for _, sr := range res.Stations {
		if sr.Err != "" || sr.Form != schema.FormInstance {
			t.Errorf("station %d %s: form=%q err=%q", sr.Pos, sr.URL, sr.Form, sr.Err)
		}
		seen[fmt.Sprintf("%d/%s", sr.Pos, sr.URL)]++
	}
	if len(seen) != 8 || len(res.Stations) != 8 {
		t.Fatalf("results = %+v", res.Stations)
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("result %s reported %d times", key, n)
		}
	}
	// Both documents are physically resident on every station.
	for i, st := range stations[1:] {
		for _, url := range urls {
			obj, err := st.Store().ObjectByURL(url)
			if err != nil || obj.Form != schema.FormInstance {
				t.Fatalf("station %d %s: obj=%+v err=%v", i+2, url, obj, err)
			}
		}
	}
}

func TestResolveWalksParentRouteAndWatermarks(t *testing.T) {
	stations := newFabric(t, 5, 2, 1)
	spec := authorCourse(t, stations[0], 1)
	// The course was never broadcast: the leaf must pull it up the
	// parent route from the root.
	leaf := stations[4] // position 5, route 5 -> 2 -> 1
	res, err := leaf.Resolve(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Local || res.ServedBy != 1 || res.Replicated || res.Fetches != 1 {
		t.Fatalf("first resolve = %+v", res)
	}
	if phys := leaf.Store().Blobs().Stats().PhysicalBytes; phys != 0 {
		t.Fatalf("leaf materialized below the watermark: %d bytes", phys)
	}
	// Crossing the watermark (fetches > 1) materializes local BLOBs.
	res, err = leaf.Resolve(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replicated || res.Fetches != 2 {
		t.Fatalf("second resolve = %+v", res)
	}
	obj, err := leaf.Store().ObjectByURL(spec.URL)
	if err != nil || obj.Form != schema.FormInstance {
		t.Fatalf("leaf object after watermark = %+v (err=%v)", obj, err)
	}
	if leaf.Store().Blobs().Stats().PhysicalBytes == 0 {
		t.Fatal("no physical BLOB bytes after crossing the watermark")
	}
	// A later resolve is served locally.
	res, err = leaf.Resolve(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Local {
		t.Fatalf("post-materialization resolve = %+v", res)
	}
}

func TestResolveServedByNearestHolder(t *testing.T) {
	stations := newFabric(t, 5, 2, 1)
	spec := authorCourse(t, stations[0], 1)
	// Station 2 crosses the watermark and materializes an instance.
	mid := stations[1]
	for i := 0; i < 2; i++ {
		if _, err := mid.Resolve(spec.URL); err != nil {
			t.Fatal(err)
		}
	}
	// Station 5's parent is station 2; the pull should now be served
	// one hop away instead of by the root.
	res, err := stations[4].Resolve(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != 2 {
		t.Errorf("served by %d, want 2 (nearest holder)", res.ServedBy)
	}
}

func TestResolveMissingEverywhere(t *testing.T) {
	stations := newFabric(t, 3, 2, 1)
	// The error crosses the parent route as a string.
	if _, err := stations[2].Resolve("http://mmu/ghost/v1"); err == nil || !strings.Contains(err.Error(), ErrNoInstance.Error()) {
		t.Fatalf("err = %v, want no-instance", err)
	}
}

func TestEndLectureMigratesAndReclaims(t *testing.T) {
	stations := newFabric(t, 5, 2, 1)
	spec := authorCourse(t, stations[0], 1)
	if _, err := stations[0].Broadcast(spec.URL, false); err != nil {
		t.Fatal(err)
	}
	var held int64
	for _, st := range stations[1:] {
		held += st.Store().Blobs().Stats().PhysicalBytes
	}
	if held == 0 {
		t.Fatal("nothing materialized by the broadcast")
	}
	reply, err := stations[0].EndLecture(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Freed != held {
		t.Errorf("freed %d bytes, want %d", reply.Freed, held)
	}
	if len(reply.Stations) != 4 {
		t.Errorf("migrated stations = %+v", reply.Stations)
	}
	for i, st := range stations {
		obj, err := st.Store().ObjectByURL(spec.URL)
		if err != nil {
			t.Fatalf("station %d: %v", i+1, err)
		}
		wantForm := schema.FormReference
		if i == 0 {
			wantForm = schema.FormInstance // persistent instructor copy survives
			if obj.Form == schema.FormClass {
				wantForm = schema.FormClass
			}
		}
		if obj.Form != wantForm {
			t.Errorf("station %d: form = %s, want %s", i+1, obj.Form, wantForm)
		}
		if i > 0 {
			if phys := st.Store().Blobs().Stats().PhysicalBytes; phys != 0 {
				t.Errorf("station %d: %d physical bytes after migration", i+1, phys)
			}
		}
	}
	// The lecture can run again: a fresh broadcast re-materializes.
	if _, err := stations[0].Broadcast(spec.URL, false); err != nil {
		t.Fatal(err)
	}
	if stations[4].Store().Blobs().Stats().PhysicalBytes == 0 {
		t.Error("re-broadcast did not materialize the leaf")
	}
}

func TestThirteenStationsDegreeThree(t *testing.T) {
	stations := newFabric(t, 13, 3, 0)
	spec := authorCourse(t, stations[0], 1)
	res, err := stations[0].Broadcast(spec.URL, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stations) != 12 {
		t.Fatalf("reached %d stations, want 12", len(res.Stations))
	}
	for _, sr := range res.Stations {
		if sr.Err != "" || sr.Form != schema.FormInstance {
			t.Errorf("station %d: form=%q err=%q", sr.Pos, sr.Form, sr.Err)
		}
	}
	// An un-broadcast course resolves from the deepest leaf across
	// multiple hops (13 -> 4 -> 1 under m=3).
	spec2 := authorCourse(t, stations[0], 2)
	got, err := stations[12].Resolve(spec2.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got.ServedBy != 1 {
		t.Errorf("served by %d, want 1", got.ServedBy)
	}
	// Watermark 0: the very first fetch materializes.
	if !got.Replicated {
		t.Errorf("resolve under watermark 0 = %+v", got)
	}
}

func TestConcurrentResolvesAcrossStations(t *testing.T) {
	stations := newFabric(t, 9, 2, 0)
	spec := authorCourse(t, stations[0], 1)
	var wg sync.WaitGroup
	errs := make(chan error, len(stations)*2)
	for _, st := range stations[1:] {
		st := st
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := st.Resolve(spec.URL); err != nil {
					errs <- fmt.Errorf("station %d: %w", st.Pos(), err)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i, st := range stations[1:] {
		obj, err := st.Store().ObjectByURL(spec.URL)
		if err != nil || obj.Form != schema.FormInstance {
			t.Errorf("station %d after concurrent resolves: obj=%+v err=%v", i+2, obj, err)
		}
	}
}

// TestFabricMatchesSimulator runs the same lecture scenario through
// the netsim cluster and the live fabric and asserts both reach the
// same end-state: per-station object forms and physical BLOB usage.
func TestFabricMatchesSimulator(t *testing.T) {
	const (
		n         = 5
		m         = 2
		watermark = 1
	)
	specA := smallCourse(1)
	specB := smallCourse(2)

	// --- Simulated run.
	sim, err := cluster.New(cluster.Config{
		Stations:  n,
		M:         m,
		UplinkBps: 1.25e6,
		Latency:   5 * time.Millisecond,
		Watermark: watermark,
		Mode:      netsim.Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.AuthorCourse(specA); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.AuthorCourse(specB); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.PreBroadcast(specA.URL); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sim.FetchOnDemand(n, specB.URL); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sim.EndLecture(specA.URL); err != nil {
		t.Fatal(err)
	}

	// --- Live run, same script.
	stations := newFabric(t, n, m, watermark)
	authorCourse(t, stations[0], 1)
	authorCourse(t, stations[0], 2)
	if _, err := stations[0].Broadcast(specA.URL, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := stations[n-1].Resolve(specB.URL); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stations[0].EndLecture(specA.URL); err != nil {
		t.Fatal(err)
	}

	// --- Same end-state, station by station.
	simUsage := sim.DiskUsage()
	for pos := 1; pos <= n; pos++ {
		live := stations[pos-1].Store()
		simSt, err := sim.Station(pos)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := live.Blobs().Stats().PhysicalBytes, simUsage[pos-1]; got != want {
			t.Errorf("station %d: physical bytes fabric=%d sim=%d", pos, got, want)
		}
		for _, url := range []string{specA.URL, specB.URL} {
			liveObj, liveErr := live.ObjectByURL(url)
			simObj, simErr := simSt.Store.ObjectByURL(url)
			if (liveErr == nil) != (simErr == nil) {
				t.Errorf("station %d %s: presence fabric=%v sim=%v", pos, url, liveErr, simErr)
				continue
			}
			if liveErr == nil && liveObj.Form != simObj.Form {
				t.Errorf("station %d %s: form fabric=%s sim=%s", pos, url, liveObj.Form, simObj.Form)
			}
		}
	}
}

// TestAdminVerbs drives the fabric through the administrative client,
// the way webdocctl does.
func TestAdminVerbs(t *testing.T) {
	stations := newFabric(t, 5, 2, 0)
	spec := authorCourse(t, stations[0], 1)

	root := DialAdmin(stations[0].Addr())
	defer root.Close()
	res, err := root.Broadcast(spec.URL, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stations) != 4 {
		t.Fatalf("broadcast = %+v", res)
	}
	// Broadcast via a non-root station fails.
	leafAdmin := DialAdmin(stations[4].Addr())
	defer leafAdmin.Close()
	if _, err := leafAdmin.Broadcast(spec.URL, false); err == nil {
		t.Error("broadcast via non-root station succeeded")
	}

	spec2 := authorCourse(t, stations[0], 2)
	fetch, err := leafAdmin.Fetch(spec2.URL)
	if err != nil {
		t.Fatal(err)
	}
	if fetch.ServedBy != 1 || !fetch.Replicated {
		t.Errorf("fetch = %+v", fetch)
	}

	mig, err := root.EndLecture(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if mig.Freed == 0 || len(mig.Stations) != 4 {
		t.Errorf("migration = %+v", mig)
	}
}
