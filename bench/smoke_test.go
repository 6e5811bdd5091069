package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke is the tier-1 hook: every workload at smoke scale — tiny
// windows, the same code paths, the oracle on — first untraced, then
// traced with the per-layer ledger. Full-length runs never execute
// under go test.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("hosts seven durable stations; skipped in -short")
	}
	out := t.TempDir()
	untraced := smokeRun(t, out, "0")
	traced := smokeRun(t, out, "1")

	for _, w := range workloads {
		u, tr := untraced[w.name], traced[w.name]
		if u == nil || tr == nil {
			t.Fatalf("%s: no result file", w.name)
		}
		for _, r := range []*result{u, tr} {
			if !r.Correct || r.Failed != 0 {
				t.Errorf("%s (traced=%v): oracle failed: %v", w.name, r.Traced, r.Failures)
			}
			if r.EndToEnd["error_share"].Value != 0 {
				t.Errorf("%s: error_share %v", w.name, r.EndToEnd["error_share"].Value)
			}
		}
		for _, name := range gateMetricNames {
			if m, ok := u.Gate[name]; !ok || m.Value <= 0 {
				t.Errorf("%s: gate metric %s = %+v", w.name, name, m)
			}
		}
		for _, name := range ledgerMetricNames {
			if _, ok := tr.PerLayer[name]; !ok {
				t.Errorf("%s: traced run lacks per-layer metric %s", w.name, name)
			}
		}
		if u.PlanHash == "" || u.PlanHash != tr.PlanHash {
			t.Errorf("%s: plan hash %q untraced, %q traced: the traced run must replay the same plan", w.name, u.PlanHash, tr.PlanHash)
		}
		if fi, err := os.Stat(filepath.Join(out, "trace_"+w.name+".json")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
		if len(tr.SelfTime) == 0 {
			t.Errorf("%s: traced run reports no per-layer self times", w.name)
		}
	}

	// Exact-count metrics repeat to the bit between two runs of a plan.
	edit, editTraced := untraced["author-edit"], traced["author-edit"]
	for _, name := range []string{"write_amp"} {
		if a, b := edit.EndToEnd[name].Value, editTraced.EndToEnd[name].Value; a != b || a <= 0 {
			t.Errorf("author-edit %s: %v then %v", name, a, b)
		}
	}
	if a, b := edit.PerLayer["transport.calls_per_op"].Value, editTraced.PerLayer["transport.calls_per_op"].Value; a != b || a <= 0 {
		t.Errorf("author-edit transport.calls_per_op: %v then %v", a, b)
	}
	want := float64(restartBodyCourses) / float64(restartBodyCourses+restartTailCourses)
	for _, r := range []*result{untraced["crash-restart"], traced["crash-restart"]} {
		if got := r.EndToEnd["restart_resident_share"].Value; got != want {
			t.Errorf("crash-restart restart_resident_share = %v, the plan checkpoints %v of the media", got, want)
		}
	}
}

// smokeRun runs all four workloads at smoke scale and returns their
// results by workload, having checked the contract line.
func smokeRun(t *testing.T, out, trace string) map[string]*result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-trace", trace, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run (trace=%s) exited %d\n%s\n%s", trace, code, stderr.String(), tail(stdout.String(), 40))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var contract struct {
		Correct   *bool
		Attempted *int64
		Failed    *int64
		Metrics   map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &contract); err != nil {
		t.Fatalf("last line is not the contract object: %v\n%s", err, lines[len(lines)-1])
	}
	if contract.Correct == nil || !*contract.Correct || contract.Attempted == nil || *contract.Attempted < 1 ||
		contract.Failed == nil || *contract.Failed != 0 || len(contract.Metrics) == 0 {
		t.Errorf("contract line: %s", lines[len(lines)-1])
	}
	suffix := ""
	if trace == "1" {
		suffix = "_trace"
	}
	results := map[string]*result{}
	for _, w := range workloads {
		runs, err := loadRuns(filepath.Join(out, "result_"+w.name+suffix+".json"))
		if err != nil {
			t.Fatal(err)
		}
		results[w.name] = runs[0]
	}
	return results
}

func tail(s string, n int) string {
	lines := strings.Split(s, "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

func TestCompareFlagsRegressionsAndNoise(t *testing.T) {
	mk := func(v float64) *result {
		return &result{Workload: "w", Correct: true, Valid: true,
			Gate:     map[string]metric{"op_p50_ms": {Value: v, Unit: "ms"}},
			EndToEnd: map[string]metric{}}
	}
	var buf bytes.Buffer
	if code := compareRuns([]*result{mk(10)}, []*result{mk(11)}, &buf); code != 0 {
		t.Errorf("10%% worse inside a 25%% bound exited %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareRuns([]*result{mk(10)}, []*result{mk(14)}, &buf); code == 0 || !strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("40%% worse passed:\n%s", buf.String())
	}
	buf.Reset()
	noisy := []*result{mk(10), mk(16), mk(7), mk(13)}
	if code := compareRuns(noisy, []*result{mk(10), mk(10), mk(10)}, &buf); code == 0 || !strings.Contains(buf.String(), "UNRESOLVED") {
		t.Errorf("a spread wider than the bound must be unresolved, not unchanged:\n%s", buf.String())
	}
}
