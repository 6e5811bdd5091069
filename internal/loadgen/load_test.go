package loadgen

import (
	"testing"
	"time"
)

// The full harness path over real sockets: self-host a small fabric,
// replay a compressed profile through the FabricTarget, and judge the
// report — the in-process twin of `make load-smoke`.
func TestHarnessAgainstSelfHostedFabric(t *testing.T) {
	p := &Profile{
		Name:      "harness-e2e",
		Seed:      11,
		TimeScale: 300,
		Fabric:    FabricSpec{Stations: 4, M: 3, Watermark: 2},
		Courses:   CourseLoad{Count: 3, Pages: 4, ExtraLinks: 1, ImagesPerPage: 1},
		Phases: []Phase{
			{Name: "push", Op: "broadcast", Duration: time.Minute, Rate: 0.05, Clients: 1},
			{Name: "storm", Op: "resolve", Start: time.Minute, Duration: 2 * time.Minute, Rate: 0.15, Clients: 2},
			{Name: "lookups", Op: "search", Start: 2 * time.Minute, Duration: time.Minute, Rate: 0.1, Clients: 1, TopK: 5},
			{Name: "edits", Op: "checkout", Duration: 3 * time.Minute, Rate: 0.05, Clients: 1},
			{Name: "wrap-up", Op: "migrate", Start: 3 * time.Minute, Duration: time.Minute, Rate: 0.02, Clients: 1},
		},
		SLOs: []SLO{
			{Op: "resolve", P99: 30 * time.Second, MaxErrorRate: 0},
			{Op: "search", P99: 30 * time.Second, MaxErrorRate: 0},
			{Op: "broadcast", MaxErrorRate: 0},
		},
	}
	host, err := StartHost(p, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()

	target, err := DialFabric(host.RootAddr(), p.Fabric.Stations, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	plan := BuildPlan(p)
	col, wall, err := Run(p, plan, target, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := target.Stats()
	if err != nil {
		t.Fatal(err)
	}
	report := BuildReport(p, col, wall, stats)
	if !report.Pass {
		t.Fatalf("harness run failed its SLOs: %+v", report.SLOs)
	}
	for kind, want := range plan.OpCounts() {
		if got := report.Ops[kind].Count; got != int64(want) {
			t.Errorf("report counts %d %s ops, plan has %d", got, kind, want)
		}
	}
	if report.Ops["resolve"].Errors != 0 || report.Ops["search"].Errors != 0 {
		t.Errorf("unexpected errors: %+v", report.Ops)
	}
	// The scrape covers every station, and the traffic left footprints:
	// the root served broadcasts, somebody answered searches.
	if len(report.StationStats) != p.Fabric.Stations {
		t.Fatalf("scraped %d stations, fabric has %d", len(report.StationStats), p.Fabric.Stations)
	}
	var rpcs int64
	for _, st := range report.StationStats {
		for _, n := range st.Ops {
			rpcs += n
		}
	}
	if rpcs == 0 {
		t.Error("station stats recorded no RPC activity at all")
	}
	if report.StationStats[0].Pos != 1 {
		t.Errorf("first scraped station is pos %d, want the root", report.StationStats[0].Pos)
	}
}

// TestFailedSLORunResolvesSlowTraces is the trace-driven SLO debugging
// loop end-to-end: a run judged against an impossible p99 fails its
// verdict, and resolving the slow exemplars against the still-live
// fabric yields hop trees (and any correlated journal events) ready to
// embed in the report — webdocload's exact path on a failed run.
func TestFailedSLORunResolvesSlowTraces(t *testing.T) {
	p := &Profile{
		Name:      "slo-debug",
		Seed:      7,
		TimeScale: 600,
		Fabric:    FabricSpec{Stations: 3, M: 3, Watermark: 2},
		Courses:   CourseLoad{Count: 2, Pages: 3, ExtraLinks: 2, ImagesPerPage: 1},
		Phases: []Phase{
			{Name: "push", Op: "broadcast", Duration: time.Minute, Rate: 0.1, Clients: 1},
			{Name: "storm", Op: "resolve", Duration: 2 * time.Minute, Rate: 0.2, Clients: 1},
		},
		SLOs: []SLO{{Op: "resolve", P99: time.Microsecond, MaxErrorRate: -1}},
	}
	host, err := StartHost(p, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	target, err := DialFabric(host.RootAddr(), p.Fabric.Stations, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	plan := BuildPlan(p)
	col, wall, err := Run(p, plan, target, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := target.Stats()
	if err != nil {
		t.Fatal(err)
	}
	report := BuildReport(p, col, wall, stats)
	if report.Pass {
		t.Fatal("a 1µs p99 SLO passed; the impossible verdict is the test's premise")
	}
	if len(report.SlowTraces) == 0 {
		t.Fatal("failed run recorded no slow-trace exemplars")
	}
	report.ResolvedTraces = ResolveSlowTraces(target, report.SlowTraces)
	if len(report.ResolvedTraces) != len(report.SlowTraces) {
		t.Fatalf("resolved %d of %d exemplars", len(report.ResolvedTraces), len(report.SlowTraces))
	}
	withSpans := 0
	for _, rt := range report.ResolvedTraces {
		if rt.Err != "" {
			t.Errorf("exemplar %s failed to resolve: %s", rt.TraceID, rt.Err)
			continue
		}
		if len(rt.Spans) > 0 {
			withSpans++
		}
	}
	if withSpans == 0 {
		t.Fatal("no resolved exemplar carries a hop tree")
	}
}
