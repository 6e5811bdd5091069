package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// Plans are drawn up front from per-workload streams of the seed: the
// same seed must give the same plan, a different seed a different one,
// and one workload's draws must not shift another's.

func stormHash(seed int64) string {
	h := newPlanHasher("lecture-storm", seed)
	hashStormPlan(h, stormPlan(planRNG(seed, streamStorm), 2000, corpusCourses))
	return h.sum()
}

func editHash(t *testing.T, seed int64) (string, *editPlanner) {
	t.Helper()
	p := newEditPlanner(seed)
	h := newPlanHasher("author-edit", seed)
	for _, n := range []int{300, 2500} {
		ops, err := p.phase(n)
		if err != nil {
			t.Fatal(err)
		}
		hashEditPlan(h, ops)
	}
	return h.sum(), p
}

func pushHash(seed int64) string {
	h := newPlanHasher("lecture-push", seed)
	for _, c := range pushOrder(planRNG(seed, streamPush), corpusCourses, 48) {
		h.addf("push %d", c)
	}
	return h.sum()
}

func TestPlansAreSeedDetermined(t *testing.T) {
	editOf := func(seed int64) string { h, _ := editHash(t, seed); return h }
	for name, hash := range map[string]func(int64) string{
		"lecture-push": pushHash, "lecture-storm": stormHash, "author-edit": editOf,
	} {
		a, again, b := hash(1999), hash(1999), hash(2000)
		if a != again {
			t.Errorf("%s: seed 1999 hashed to %s and then %s", name, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 1999 and 2000 share plan hash %s", name, a)
		}
	}
}

func TestPushOrderVisitsEveryCourseEachRound(t *testing.T) {
	order := pushOrder(planRNG(7, streamPush), corpusCourses, 5*corpusCourses)
	for round := 0; round < 5; round++ {
		seen := append([]int(nil), order[round*corpusCourses:(round+1)*corpusCourses]...)
		sort.Ints(seen)
		for i, c := range seen {
			if c != i {
				t.Fatalf("round %d visits %v", round, seen)
			}
		}
	}
}

// The exact-count metrics must follow from the plan alone. For the
// edit plan that means: the user bytes, the number of station RPCs and
// the final row counts are all functions of the drawn ops.
func TestEditPlanDeterminesItsCounts(t *testing.T) {
	_, p := editHash(t, 42)
	_, q := editHash(t, 42)
	if !reflect.DeepEqual(p.tally, q.tally) {
		t.Fatalf("same seed, different op tallies: %v vs %v", p.tally, q.tally)
	}
	total := 0
	for _, n := range p.tally {
		total += n
	}
	if total != 2800 {
		t.Fatalf("plan tallied %d ops, drew 2800", total)
	}
	if p.tally[editCheckpoint] != 2800/editCkptEvery || p.tally[editImport] != 2800/editImportEvery {
		t.Errorf("checkpoints %d imports %d: not on their fixed plan positions", p.tally[editCheckpoint], p.tally[editImport])
	}
	if got, want := plannedCalls(p.tally), int64(p.tally[editPair]*2+p.tally[editContended]*3+
		p.tally[editInsertTest]+p.tally[editInsertBug]+p.tally[editInsertAnn]+
		p.tally[editSelect]+p.tally[editFetch]+p.tally[editImport]); got != want {
		t.Errorf("plannedCalls = %d, want %d", got, want)
	}
}

// BENCHMARK.json must name exactly what the program reports.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the package: %v", err)
	}
	var spec struct {
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, the program's window is %v", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%s), the program's is %q (%s)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var names []string
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
		b, ok := bounds[m.Name]
		if !ok || b.share != m.Bound || b.higherBetter != (m.Better == "higher") {
			t.Errorf("end_to_end %s: bound %v better %s, the program gates on %+v", m.Name, m.Bound, m.Better, b)
		}
	}
	if !reflect.DeepEqual(names, gateMetricNames) {
		t.Errorf("end_to_end %v, the program reports %v", names, gateMetricNames)
	}
	names = nil
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, ledgerMetricNames) {
		t.Errorf("per_layer %v, the program reports %v", names, ledgerMetricNames)
	}
}

func TestQuartilesMatchTheExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestNearestRank(t *testing.T) {
	s := samples{50, 10, 40, 20, 30}.sorted()
	for q, want := range map[float64]int{0.5: 30, 0.2: 10, 0.21: 20, 1: 50} {
		if got := nearestRank(s, q); int(got) != want {
			t.Errorf("nearestRank(%v) = %d, want %d", q, got, want)
		}
	}
	if beyond(1000, 0.99) != 10 || beyond(999, 0.99) != 9 {
		t.Errorf("beyond(1000, .99) = %d, beyond(999, .99) = %d", beyond(1000, 0.99), beyond(999, 0.99))
	}
}
