package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/schema"
)

func TestMarkDownValidation(t *testing.T) {
	c, _ := newBroadcastCluster(t, 7, 2, 0)
	if err := c.MarkDown(1); !errors.Is(err, ErrBadConfig) {
		t.Errorf("root failure: %v", err)
	}
	if err := c.MarkDown(99); !errors.Is(err, ErrNoStation) {
		t.Errorf("unknown station: %v", err)
	}
	if err := c.MarkDown(3); err != nil {
		t.Fatal(err)
	}
	if !c.Down(3) {
		t.Error("station 3 not marked down")
	}
	if err := c.MarkUp(3); err != nil {
		t.Fatal(err)
	}
	if c.Down(3) {
		t.Error("station 3 still down after MarkUp")
	}
}

func TestLiveChildrenGraftsAroundFailure(t *testing.T) {
	c, _ := newBroadcastCluster(t, 7, 2, 0)
	// Under m=2: children of 1 are 2 and 3; children of 3 are 6 and 7.
	if err := c.MarkDown(3); err != nil {
		t.Fatal(err)
	}
	kids, err := c.liveChildren(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 6, 7}
	if len(kids) != len(want) {
		t.Fatalf("live children = %v, want %v", kids, want)
	}
	for i := range want {
		if kids[i] != want[i] {
			t.Fatalf("live children = %v, want %v", kids, want)
		}
	}
}

func TestPreBroadcastSkipsFailedStation(t *testing.T) {
	c, spec := newBroadcastCluster(t, 7, 2, 0)
	if err := c.MarkDown(2); err != nil {
		t.Fatal(err)
	}
	times, _, err := c.PreBroadcast(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Failed station receives nothing.
	st2, _ := c.Station(2)
	if resident, _ := st2.Store.ResidentBytes(spec.URL); resident != 0 {
		t.Errorf("failed station holds %d bytes", resident)
	}
	// Its children (4 and 5 under m=2) still receive, grafted onto the root.
	for _, pos := range []int{3, 4, 5, 6, 7} {
		st, _ := c.Station(pos)
		obj, err := st.Store.ObjectByURL(spec.URL)
		if err != nil {
			t.Fatalf("station %d: %v", pos, err)
		}
		if obj.Form != schema.FormInstance {
			t.Errorf("station %d form = %s", pos, obj.Form)
		}
		if times[pos-1] <= 0 {
			t.Errorf("station %d completion = %v", pos, times[pos-1])
		}
	}
}

func TestFetchOnDemandSkipsDeadHolder(t *testing.T) {
	c, spec := newBroadcastCluster(t, 7, 2, 0)
	// Station 2 holds a replica, then fails; station 5 (child of 2)
	// must be served by the root instead.
	if _, err := c.FetchOnDemand(2, spec.URL); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkDown(2); err != nil {
		t.Fatal(err)
	}
	res, err := c.FetchOnDemand(5, spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != 1 {
		t.Errorf("served by %d, want the root", res.ServedBy)
	}
	// A down requester is refused outright.
	if _, err := c.FetchOnDemand(2, spec.URL); !errors.Is(err, ErrNoStation) {
		t.Errorf("down requester: %v", err)
	}
}

func TestChunkedBroadcastDeliversEverywhere(t *testing.T) {
	c, spec := newBroadcastCluster(t, 13, 3, 0)
	times, size, err := c.PreBroadcastChunked(spec.URL, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Fatal("empty bundle")
	}
	for pos := 2; pos <= c.Size(); pos++ {
		st, _ := c.Station(pos)
		obj, err := st.Store.ObjectByURL(spec.URL)
		if err != nil {
			t.Fatalf("station %d: %v", pos, err)
		}
		if obj.Form != schema.FormInstance {
			t.Errorf("station %d form = %s", pos, obj.Form)
		}
		if times[pos-1] <= 0 {
			t.Errorf("station %d completion = %v", pos, times[pos-1])
		}
		if resident, _ := st.Store.ResidentBytes(spec.URL); resident == 0 {
			t.Errorf("station %d holds nothing", pos)
		}
	}
}

func TestChunkedFasterThanStoreAndForwardOnDeepTree(t *testing.T) {
	run := func(chunked bool) time.Duration {
		// Zero latency isolates the pipelining effect: chunking pays one
		// extra latency per chunk, which would otherwise mask the win on
		// this small test bundle.
		cfg := testConfig(15, 2, 0)
		cfg.Latency = 0
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec := smallCourse(3)
		if _, _, err := c.AuthorCourse(spec); err != nil {
			t.Fatal(err)
		}
		if err := c.BroadcastReferences(spec.URL); err != nil {
			t.Fatal(err)
		}
		var times []time.Duration
		if chunked {
			times, _, err = c.PreBroadcastChunked(spec.URL, 1024)
		} else {
			times, _, err = c.PreBroadcast(spec.URL)
		}
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
	sf := run(false)
	ch := run(true)
	if ch >= sf {
		t.Errorf("chunked %v not faster than store-and-forward %v", ch, sf)
	}
}

func TestChunkedRejectsBadChunkSize(t *testing.T) {
	c, spec := newBroadcastCluster(t, 3, 2, 0)
	if _, _, err := c.PreBroadcastChunked(spec.URL, 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestChunkedRoutesAroundFailure(t *testing.T) {
	c, spec := newBroadcastCluster(t, 7, 2, 0)
	if err := c.MarkDown(3); err != nil {
		t.Fatal(err)
	}
	times, _, err := c.PreBroadcastChunked(spec.URL, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{2, 4, 5, 6, 7} {
		if times[pos-1] <= 0 {
			t.Errorf("station %d completion = %v", pos, times[pos-1])
		}
	}
	if times[2] != 0 {
		t.Errorf("failed station completed at %v", times[2])
	}
}
