package loadgen

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// fakeTarget counts ops in memory so driver tests run without sockets.
type fakeTarget struct {
	mu       sync.Mutex
	stations int
	calls    map[string]int
	failOp   string // ops of this kind error
}

func newFakeTarget(stations int) *fakeTarget {
	return &fakeTarget{stations: stations, calls: map[string]int{}}
}

func (f *fakeTarget) note(kind string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls[kind]++
	if kind == f.failOp {
		return errors.New("injected failure")
	}
	return nil
}

func (f *fakeTarget) Stations() int { return f.stations }
func (f *fakeTarget) Broadcast(url string, refsOnly bool) (int64, uint64, error) {
	return 100, 0xabc, f.note("broadcast")
}
func (f *fakeTarget) Migrate(url string) (uint64, error) { return 0xabc, f.note("migrate") }
func (f *fakeTarget) Resolve(station int, url string) (int64, uint64, error) {
	return 10, 0xabc, f.note("resolve")
}
func (f *fakeTarget) Search(station int, terms []string, phrase bool, topK int) (int, uint64, error) {
	return 1, 0xabc, f.note("search")
}
func (f *fakeTarget) Checkout(station int, kind, objectID, user string) error {
	return f.note("checkout")
}
func (f *fakeTarget) Stats() ([]cluster.StatsReply, error) {
	return []cluster.StatsReply{{Pos: 1}}, nil
}
func (f *fakeTarget) CollectTrace(id uint64) ([]obs.Span, []obs.Event, error) {
	f.note("collect")
	return []obs.Span{{TraceID: id, SpanID: 1, Method: "Fabric.Broadcast"}},
		[]obs.Event{{Seq: 1, Name: "graft", TraceID: id}}, nil
}
func (f *fakeTarget) Close() {}

func fastProfile() *Profile {
	return &Profile{
		Name:      "fast",
		Seed:      3,
		TimeScale: 600,
		Fabric:    FabricSpec{Stations: 3, M: 3, Watermark: 2},
		Courses:   CourseLoad{Count: 4, Pages: 4, ExtraLinks: 2, ImagesPerPage: 1},
		Phases: []Phase{
			{Name: "push", Op: "broadcast", Duration: time.Minute, Rate: 0.1, Clients: 1},
			{Name: "storm", Op: "resolve", Duration: 2 * time.Minute, Rate: 0.3, Clients: 2},
			{Name: "lookups", Op: "search", Start: time.Minute, Duration: time.Minute, Rate: 0.2, Clients: 2, TopK: 10},
			{Name: "edits", Op: "checkout", Duration: 2 * time.Minute, Rate: 0.1, Clients: 1},
		},
		SLOs: []SLO{{Op: "resolve", P99: 10 * time.Second, MaxErrorRate: 0}},
	}
}

// TestBuildPlanDeterminism: two independent plans from the same
// profile are identical, op for op.
func TestBuildPlanDeterminism(t *testing.T) {
	p := fastProfile()
	a, b := BuildPlan(p), BuildPlan(p)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("plans from the same profile differ")
	}
	if a.Total == 0 {
		t.Fatal("empty plan")
	}
	// A different seed must change the drawn parameters (here: some
	// op's station or course assignment) without changing the counts.
	p2 := fastProfile()
	p2.Seed = 4
	c := BuildPlan(p2)
	if !reflect.DeepEqual(a.OpCounts(), c.OpCounts()) {
		t.Errorf("op counts moved with the seed: %v vs %v", a.OpCounts(), c.OpCounts())
	}
	if reflect.DeepEqual(a, c) {
		t.Error("plans identical across different seeds")
	}
}

// TestRunExecutesExactPlan: the paced executor performs every planned
// op exactly once, whatever the timing — the determinism the report
// schema depends on.
func TestRunExecutesExactPlan(t *testing.T) {
	p := fastProfile()
	plan := BuildPlan(p)
	for run := 0; run < 2; run++ {
		tgt := newFakeTarget(p.Fabric.Stations)
		col, wall, err := Run(p, plan, tgt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tgt.calls, plan.OpCounts()) {
			t.Errorf("run %d executed %v, plan says %v", run, tgt.calls, plan.OpCounts())
		}
		sums := col.Summarize(wall, p.SimDuration())
		for kind, want := range plan.OpCounts() {
			if got := sums[kind].Count; got != int64(want) {
				t.Errorf("run %d: recorded %d %s ops, want %d", run, got, kind, want)
			}
			if sums[kind].Errors != 0 {
				t.Errorf("run %d: %s errors = %d", run, kind, sums[kind].Errors)
			}
		}
	}
}

func TestRunRejectsSmallTarget(t *testing.T) {
	p := fastProfile()
	if _, _, err := Run(p, BuildPlan(p), newFakeTarget(1), nil); err == nil {
		t.Fatal("want error for a target with fewer stations than the profile")
	}
}

// TestRunValidatesProfile: an override applied after the profile was
// built (webdocload's -time-scale) cannot skip validation.
func TestRunValidatesProfile(t *testing.T) {
	p := fastProfile()
	p.TimeScale = -1
	tgt := newFakeTarget(p.Fabric.Stations)
	_, _, err := Run(p, BuildPlan(p), tgt, nil)
	if err == nil || !strings.Contains(err.Error(), "time-scale") {
		t.Fatalf("err = %v, want a time-scale error", err)
	}
	if len(tgt.calls) != 0 {
		t.Errorf("invalid profile still fired ops: %v", tgt.calls)
	}
}

// TestSLOPercentileNeedsASuccess: a class whose every op errored has no
// latency samples, so its zero percentiles must not pass a latency SLO.
func TestSLOPercentileNeedsASuccess(t *testing.T) {
	slos := []SLO{{Op: "checkout", P99: 5 * time.Second, MaxErrorRate: -1}}
	for _, c := range []struct {
		sum  OpSummary
		pass bool
	}{
		{OpSummary{Count: 10, Errors: 10}, false},
		{OpSummary{Count: 10, Conflicts: 10}, false},
		{OpSummary{Count: 10, Errors: 9, P99Ms: 3}, true},
	} {
		if _, pass := EvaluateSLOs(slos, map[string]OpSummary{"checkout": c.sum}); pass != c.pass {
			t.Errorf("%+v: pass = %v, want %v", c.sum, pass, c.pass)
		}
	}
}

// TestSLOEvaluation drives failures through the verdict logic: an
// injected error rate must fail max-error-rate and flip the overall
// verdict.
func TestSLOEvaluation(t *testing.T) {
	p := fastProfile()
	plan := BuildPlan(p)
	tgt := newFakeTarget(p.Fabric.Stations)
	tgt.failOp = "resolve"
	col, wall, err := Run(p, plan, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	report := BuildReport(p, col, wall, nil)
	if report.Pass {
		t.Error("report passed despite injected resolve failures")
	}
	var sawErrRate bool
	for _, v := range report.SLOs {
		if v.Op == "resolve" && v.Metric == "error_rate" {
			sawErrRate = true
			if v.Pass || v.Actual != 1 {
				t.Errorf("error_rate verdict = %+v", v)
			}
		}
	}
	if !sawErrRate {
		t.Error("no error_rate verdict in the report")
	}
}

// TestReportSchema pins the JSON keys CI consumers read.
func TestReportSchema(t *testing.T) {
	p := fastProfile()
	plan := BuildPlan(p)
	tgt := newFakeTarget(p.Fabric.Stations)
	col, wall, err := Run(p, plan, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := tgt.Stats()
	report := BuildReport(p, col, wall, stats)
	if !report.Pass {
		t.Fatalf("clean run failed SLOs: %+v", report.SLOs)
	}
	path := filepath.Join(t.TempDir(), ReportFileName(p.Name))
	if err := WriteReport(path, report); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"profile", "seed", "time_scale", "stations", "m",
		"sim_seconds", "wall_seconds", "ops", "slos", "pass", "station_stats",
		"slow_traces"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("report missing key %q", key)
		}
	}
	// Every traced op competes for its phase's exemplar slots; the fake
	// target stamps trace 0xabc on everything, so exemplars must be
	// bounded per phase and carry the formatted ID.
	if len(report.SlowTraces) == 0 {
		t.Fatal("no slow-trace exemplars in a run with traced ops")
	}
	perPhase := map[string]int{}
	for _, st := range report.SlowTraces {
		perPhase[st.Phase]++
		if st.TraceID != "0000000000000abc" {
			t.Errorf("exemplar trace ID = %q", st.TraceID)
		}
		if st.LatencyMs < 0 || st.Op == "" || st.Phase == "" {
			t.Errorf("malformed exemplar %+v", st)
		}
	}
	for phase, n := range perPhase {
		if n > slowExemplarsPerPhase {
			t.Errorf("phase %s kept %d exemplars, cap is %d", phase, n, slowExemplarsPerPhase)
		}
	}
	ops, _ := decoded["ops"].(map[string]any)
	res, _ := ops["resolve"].(map[string]any)
	for _, key := range []string{"count", "errors", "error_rate", "p50_ms", "p95_ms",
		"p99_ms", "throughput_wall_ops_per_sec", "throughput_sim_ops_per_sec"} {
		if _, ok := res[key]; !ok {
			t.Errorf("ops.resolve missing key %q", key)
		}
	}
}

// TestPercentiles pins the nearest-rank definition.
func TestPercentiles(t *testing.T) {
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	if got := percentile(samples, 0.50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := percentile(samples, 0.99); got != 99*time.Millisecond {
		t.Errorf("p99 = %v", got)
	}
	if got := percentile(samples[:1], 0.99); got != time.Millisecond {
		t.Errorf("p99 of one sample = %v", got)
	}
}
