package fabric

import (
	"sync"
	"testing"

	"repro/internal/cluster"
)

// TestStatsScrapeUnderFabricTraffic hammers the unified Stats RPC on
// the full 13-station m=3 fabric while broadcasts, resolves and a
// migration run — the load harness's scrape pattern, under the race
// detector. Every scrape must answer from every station, and the final
// snapshot must show the traffic.
func TestStatsScrapeUnderFabricTraffic(t *testing.T) {
	stations := newFabric(t, 13, 3, 2)
	spec := authorCourse(t, stations[0], 1)

	scrape := func() {
		for i, st := range stations {
			rs, err := cluster.DialStation(st.Addr())
			if err != nil {
				t.Errorf("dial station %d: %v", i+1, err)
				return
			}
			if _, err := rs.Stats(); err != nil {
				t.Errorf("stats from station %d: %v", i+1, err)
			}
			rs.Close()
		}
	}

	var wg sync.WaitGroup
	// Scrapers race the distribution traffic.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				scrape()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := stations[0].Broadcast(spec.URL, false); err != nil {
			t.Errorf("broadcast: %v", err)
			return
		}
		for _, st := range []*Station{stations[4], stations[9], stations[12]} {
			if _, err := st.Resolve(spec.URL); err != nil {
				t.Errorf("resolve: %v", err)
			}
		}
		if _, err := endLecture(stations[0], spec.URL); err != nil {
			t.Errorf("migrate: %v", err)
		}
	}()
	wg.Wait()

	// After the dust settles the root's counters carry the fabric
	// traffic: joins, heartbeats, scrapes and the broadcast fan-out all
	// arrived over the same accounted socket.
	root := stations[0].Node().StatsNow()
	if root.Ops["Stats"] == 0 {
		t.Errorf("root served no Stats calls: %v", root.Ops)
	}
	if root.BytesIn == 0 || root.BytesOut == 0 {
		t.Errorf("root byte counters empty: %d in / %d out", root.BytesIn, root.BytesOut)
	}
	if !root.Indexed || root.IndexDocs == 0 {
		t.Errorf("root index stats empty: %+v", root)
	}
}
