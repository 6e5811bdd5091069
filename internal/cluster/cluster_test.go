package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mtree"
	"repro/internal/netsim"
	"repro/internal/schema"
	"repro/internal/workload"
)

const mbps10 = 1.25e6

func testConfig(stations, m, watermark int) Config {
	return Config{
		Stations:  stations,
		M:         m,
		UplinkBps: mbps10,
		Latency:   5 * time.Millisecond,
		Watermark: watermark,
		Mode:      netsim.Sequential,
	}
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

// newBroadcastCluster authors a course on station 1 and mirrors the
// references everywhere.
func newBroadcastCluster(t *testing.T, stations, m, watermark int) (*Cluster, workload.CourseSpec) {
	t.Helper()
	c, err := New(testConfig(stations, m, watermark))
	if err != nil {
		t.Fatal(err)
	}
	spec := smallCourse(1)
	if _, _, err := c.AuthorCourse(spec); err != nil {
		t.Fatal(err)
	}
	if err := c.BroadcastReferences(spec.URL); err != nil {
		t.Fatal(err)
	}
	return c, spec
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(testConfig(0, 2, 0)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("0 stations: %v", err)
	}
	if _, err := New(testConfig(4, 0, 0)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("degree 0: %v", err)
	}
	c, err := New(testConfig(4, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Station(0); !errors.Is(err, ErrNoStation) {
		t.Errorf("station 0: %v", err)
	}
	if _, err := c.Station(5); !errors.Is(err, ErrNoStation) {
		t.Errorf("station 5: %v", err)
	}
}

func TestBroadcastReferencesReachesEveryStation(t *testing.T) {
	c, spec := newBroadcastCluster(t, 13, 3, 0)
	for pos := 2; pos <= c.Size(); pos++ {
		st, _ := c.Station(pos)
		obj, err := st.Store.ObjectByURL(spec.URL)
		if err != nil {
			t.Fatalf("station %d: %v", pos, err)
		}
		if obj.Form != schema.FormReference {
			t.Errorf("station %d form = %s", pos, obj.Form)
		}
		if obj.Origin != 1 {
			t.Errorf("station %d origin = %d", pos, obj.Origin)
		}
	}
	// References carry no BLOB bytes.
	usage := c.DiskUsage()
	for pos := 2; pos <= c.Size(); pos++ {
		if usage[pos-1] != 0 {
			t.Errorf("station %d holds %d bytes after reference broadcast", pos, usage[pos-1])
		}
	}
}

func TestPreBroadcastDeliversContentEverywhere(t *testing.T) {
	c, spec := newBroadcastCluster(t, 13, 3, 0)
	times, size, err := c.PreBroadcast(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Fatal("bundle size must be positive")
	}
	if times[0] != 0 {
		t.Errorf("root completion = %v", times[0])
	}
	for pos := 2; pos <= c.Size(); pos++ {
		if times[pos-1] <= 0 {
			t.Errorf("station %d completion = %v", pos, times[pos-1])
		}
		st, _ := c.Station(pos)
		obj, err := st.Store.ObjectByURL(spec.URL)
		if err != nil {
			t.Fatal(err)
		}
		if obj.Form != schema.FormInstance || obj.Persistent {
			t.Errorf("station %d obj = %+v", pos, obj)
		}
		if resident, _ := st.Store.ResidentBytes(spec.URL); resident == 0 {
			t.Errorf("station %d has no resident content", pos)
		}
	}
	// Deeper stations complete later (store-and-forward).
	d2, _ := mtree.Depth(2, 3)
	d13, _ := mtree.Depth(13, 3)
	if d13 <= d2 {
		t.Fatal("test setup: station 13 should be deeper")
	}
	if times[12] <= times[1] {
		t.Errorf("deeper station finished earlier: %v <= %v", times[12], times[1])
	}
}

func TestPreBroadcastTreeFasterThanChain(t *testing.T) {
	last := func(m int) time.Duration {
		c, err := New(testConfig(15, m, 0))
		if err != nil {
			t.Fatal(err)
		}
		spec := smallCourse(2)
		if _, _, err := c.AuthorCourse(spec); err != nil {
			t.Fatal(err)
		}
		if err := c.BroadcastReferences(spec.URL); err != nil {
			t.Fatal(err)
		}
		times, _, err := c.PreBroadcast(spec.URL)
		if err != nil {
			t.Fatal(err)
		}
		var max time.Duration
		for _, tt := range times {
			if tt > max {
				max = tt
			}
		}
		return max
	}
	chain := last(1)
	tree := last(3)
	star := last(14)
	if tree >= chain {
		t.Errorf("tree %v not faster than chain %v", tree, chain)
	}
	if tree >= star {
		t.Errorf("tree %v not faster than star %v", tree, star)
	}
}

func TestFetchOnDemandFromRoot(t *testing.T) {
	c, spec := newBroadcastCluster(t, 7, 2, 1)
	res, err := c.FetchOnDemand(5, spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Local {
		t.Error("first fetch reported local")
	}
	if res.ServedBy != 1 {
		t.Errorf("served by %d, want 1 (only the root holds an instance)", res.ServedBy)
	}
	if res.Latency <= 0 {
		t.Errorf("latency = %v", res.Latency)
	}
	if res.Replicated {
		t.Error("replicated below watermark")
	}
	st, _ := c.Station(5)
	if st.fetches[spec.URL] != 1 {
		t.Errorf("fetches = %d", st.fetches[spec.URL])
	}
}

func TestWatermarkReplication(t *testing.T) {
	c, spec := newBroadcastCluster(t, 7, 2, 1)
	// Watermark 1: the second fetch replicates.
	if _, err := c.FetchOnDemand(5, spec.URL); err != nil {
		t.Fatal(err)
	}
	res, err := c.FetchOnDemand(5, spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replicated {
		t.Fatal("second fetch should cross watermark 1")
	}
	// Third access is local.
	res, err = c.FetchOnDemand(5, spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Local || res.Latency != 0 {
		t.Errorf("post-replication fetch = %+v", res)
	}
	st, _ := c.Station(5)
	if st.Store.Blobs().Stats().PhysicalBytes == 0 {
		t.Error("no bytes resident after replication")
	}
}

func TestWatermarkNeverReplicates(t *testing.T) {
	c, spec := newBroadcastCluster(t, 7, 2, -1)
	for i := 0; i < 5; i++ {
		res, err := c.FetchOnDemand(5, spec.URL)
		if err != nil {
			t.Fatal(err)
		}
		if res.Replicated || res.Local {
			t.Fatalf("fetch %d = %+v with watermark -1", i, res)
		}
	}
	st, _ := c.Station(5)
	if st.Store.Blobs().Stats().PhysicalBytes != 0 {
		t.Error("bytes resident despite watermark -1")
	}
}

func TestFetchServedByNearestHoldingAncestor(t *testing.T) {
	c, spec := newBroadcastCluster(t, 7, 2, 0)
	// Station 2 (parent of 5) replicates first (watermark 0: first
	// fetch replicates).
	if _, err := c.FetchOnDemand(2, spec.URL); err != nil {
		t.Fatal(err)
	}
	res, err := c.FetchOnDemand(5, spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != 2 {
		t.Errorf("served by %d, want the parent station 2", res.ServedBy)
	}
}

func TestEndLectureMigratesAndFrees(t *testing.T) {
	c, spec := newBroadcastCluster(t, 7, 2, 0)
	if _, _, err := c.PreBroadcast(spec.URL); err != nil {
		t.Fatal(err)
	}
	usage := c.DiskUsage()
	if usage[3] == 0 {
		t.Fatal("expected resident bytes before EndLecture")
	}
	freed, err := c.EndLecture(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if freed <= 0 {
		t.Errorf("freed = %d", freed)
	}
	usage = c.DiskUsage()
	for pos := 2; pos <= c.Size(); pos++ {
		if usage[pos-1] != 0 {
			t.Errorf("station %d still holds %d bytes", pos, usage[pos-1])
		}
		st, _ := c.Station(pos)
		obj, err := st.Store.ObjectByURL(spec.URL)
		if err != nil {
			t.Fatal(err)
		}
		if obj.Form != schema.FormReference {
			t.Errorf("station %d form = %s", pos, obj.Form)
		}
	}
	// The instructor station keeps its persistent instance.
	if usage[0] == 0 {
		t.Error("instructor station lost its persistent instance")
	}
	root, _ := c.Station(1)
	obj, err := root.Store.ObjectByURL(spec.URL)
	if err != nil || obj.Form != schema.FormInstance {
		t.Errorf("root obj = %+v, err %v", obj, err)
	}
}

func TestPlaybackPreloadedHasNoStalls(t *testing.T) {
	c, spec := newBroadcastCluster(t, 7, 2, 0)
	if _, _, err := c.PreBroadcast(spec.URL); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Playback(5, spec.URL, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pages != 6 {
		t.Errorf("pages = %d", rep.Pages)
	}
	if rep.Stalls != 0 || rep.StallTime != 0 {
		t.Errorf("preloaded playback stalled: %+v", rep)
	}
}

func TestPlaybackRemoteStalls(t *testing.T) {
	c, spec := newBroadcastCluster(t, 7, 2, -1)
	rep, err := c.Playback(5, spec.URL, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalls == 0 || rep.StallTime == 0 {
		t.Errorf("remote playback did not stall: %+v", rep)
	}
	if rep.FetchBytes == 0 {
		t.Error("no bytes fetched during stalled playback")
	}
}

func TestFetchNoInstanceAnywhere(t *testing.T) {
	c, err := New(testConfig(3, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchOnDemand(2, "http://ghost"); !errors.Is(err, ErrNoInstance) {
		t.Errorf("err = %v", err)
	}
}

func TestWireBytesAccounting(t *testing.T) {
	c, spec := newBroadcastCluster(t, 7, 2, 0)
	before := c.WireBytes()
	_, size, err := c.PreBroadcast(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	moved := c.WireBytes() - before
	if moved != size*int64(c.Size()-1) {
		t.Errorf("wire bytes = %d, want %d (bundle to each of %d stations)", moved, size*int64(c.Size()-1), c.Size()-1)
	}
}
