package cluster

import (
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/docdb"
	"repro/internal/netsim"
	"repro/internal/relstore"
	"repro/internal/search"
	"repro/internal/workload"
)

func newSearchCluster(t *testing.T, stations, m int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Stations: stations, M: m, UplinkBps: 1.25e6, Latency: 5 * time.Millisecond,
		Watermark: 0, Mode: netsim.Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSearchFederatedFindsRemoteContent(t *testing.T) {
	c := newSearchCluster(t, 7, 2)
	spec := smallCourse(1)
	if _, _, err := c.AuthorCourse(spec); err != nil {
		t.Fatal(err)
	}
	// Nothing broadcast: the course lives only on station 1, yet a
	// leaf's federation query finds its pages.
	rep, err := c.SearchFederated(7, search.Query{Terms: []string{"lecture"}, TopK: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Hits) != spec.Pages {
		t.Fatalf("hits = %d, want %d course pages", len(rep.Hits), spec.Pages)
	}
	for _, h := range rep.Hits {
		if h.Station != 1 {
			t.Errorf("hit %s credited to station %d, want 1", h.Key, h.Station)
		}
	}
	if rep.Answered != 7 || rep.Latency <= 0 || rep.WireBytes <= 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestSearchLocalRPC(t *testing.T) {
	store, err := docdb.Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	store.Now = func() time.Time { return time.Date(1999, 4, 21, 0, 0, 0, 0, time.UTC) }
	if _, err := search.Attach(store); err != nil {
		t.Fatal(err)
	}
	spec := smallCourse(1)
	if _, err := workload.BuildCourse(store, spec); err != nil {
		t.Fatal(err)
	}
	n := NewNode(3, store)
	addr, err := n.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	rs, err := DialStation(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	hits, err := rs.SearchLocal([]string{"lecture"}, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 4 {
		t.Fatalf("hits = %+v", hits)
	}
	for _, h := range hits {
		if h.Station != 3 {
			t.Errorf("hit %s station = %d, want 3", h.Key, h.Station)
		}
	}
}

func TestSearchLocalRPCWithoutIndexFails(t *testing.T) {
	_, addr, _ := startNode(t, 1, true)
	rs, err := DialStation(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.SearchLocal([]string{"lecture"}, false, 4); err == nil {
		t.Fatal("station without an index answered a SearchLocal")
	}
}
