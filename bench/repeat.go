package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// bound is a metric's direction and the share of the baseline median
// by which it may worsen before a change counts as a regression.
type bound struct {
	higherBetter bool
	share        float64
}

// bounds covers the gate metrics (the values BENCHMARK.json carries)
// and the workloads' own end-to-end metrics. A zero share means the
// metric is an exact count that must not move the wrong way at all.
var bounds = map[string]bound{
	"setup_s":       {false, 0.25},
	"peak_rss_mb":   {false, 0.20},
	"op_p50_ms":     {false, 0.25},
	"sat_ops_s":     {true, 0.25},
	"cpu_ms_per_op": {false, 0.25},

	"error_share":            {false, 0},
	"push_mb_s":              {true, 0.25},
	"push_p50_ms":            {false, 0.25},
	"push_p95_ms":            {false, 0.25},
	"resolve_remote_p50_ms":  {false, 0.25},
	"resolve_p95_ms":         {false, 0.25},
	"search_p50_ms":          {false, 0.25},
	"search_p95_ms":          {false, 0.25},
	"storm_sat_ops_s":        {true, 0.25},
	"edit_p50_ms":            {false, 0.25},
	"edit_p90_ms":            {false, 0.25},
	"edit_p99_ms":            {false, 0.25},
	"edit_sat_ops_s":         {true, 0.25},
	"write_amp":              {false, 0.01},
	"restart_ms":             {false, 0.25},
	"restart_p75_ms":         {false, 0.25},
	"restart_p90_ms":         {false, 0.25},
	"restart_resident_share": {true, 0},
}

// series is every value a metric took across a set of runs.
type series map[string]map[string][]float64 // workload -> metric -> values

// collect folds runs into series, counting each metric once per run
// even when it appears under both its gate name and its own.
func collect(runs []*result) series {
	s := series{}
	for _, r := range runs {
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		seen := map[string]bool{}
		for _, group := range []map[string]metric{r.Gate, r.EndToEnd} {
			for name, m := range group {
				if !seen[name] {
					seen[name] = true
					s[r.Workload][name] = append(s[r.Workload][name], m.Value)
				}
			}
		}
	}
	return s
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise a bound has to clear. Fewer than three runs have no
// spread to speak of.
func spread(vs []float64) (float64, bool) {
	if len(vs) < 3 {
		return 0, false
	}
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0, q3 == q1
	}
	return (q3 - q1) / math.Abs(q2), true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// repeatRuns runs the selection n times on the same seed and prints,
// per workload and metric, the median, the quartiles and the spread
// against the metric's bound. It saves every run to repeat.json (a file
// -compare accepts) and exits non-zero if a run failed its oracle, was
// marked invalid by the health guard, or a spread exceeds its bound.
func repeatRuns(cfg config, selected []workloadDef, n int, stdout, stderr io.Writer) int {
	var runs []*result
	for k := 0; k < n; k++ {
		fmt.Fprintf(stdout, "-- repeat %d of %d\n", k+1, n)
		results, err := runSelection(cfg, selected, io.Discard)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		runs = append(runs, results...)
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "repeat.json"), runs); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, r := range runs {
		if !r.Correct || !r.Valid {
			fmt.Fprintf(stdout, "%s: run correct=%v valid=%v %v %v\n", r.Workload, r.Correct, r.Valid, r.Failures, r.Invalid)
			code = 1
		}
	}
	s := collect(runs)
	for _, w := range sortedKeys(s) {
		fmt.Fprintf(stdout, "== %s (%d runs)\n", w, n)
		fmt.Fprintf(stdout, "  %-26s %12s %12s %12s %9s %7s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, name := range sortedKeys(s[w]) {
			vs := s[w][name]
			q1, q2, q3 := quartiles(vs)
			sp, ok := spread(vs)
			b := bounds[name]
			verdict := ""
			if ok && sp > b.share {
				verdict = "  SPREAD EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "  %-26s %12.4f %12.4f %12.4f %8.2f%% %6.0f%%%s\n", name, q2, q1, q3, 100*sp, 100*b.share, verdict)
		}
	}
	return code
}

// loadRuns reads a result file: one result object (result_<workload>.json)
// or an array of them (repeat.json).
func loadRuns(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var many []*result
	if err := json.Unmarshal(data, &many); err == nil {
		return many, nil
	}
	var one result
	if err := json.Unmarshal(data, &one); err != nil {
		return nil, fmt.Errorf("%s: neither a result nor a list of results: %w", path, err)
	}
	return []*result{&one}, nil
}

// compareFiles is the regression gate: for every workload and metric
// in both files it compares the medians against the metric's bound.
// A metric whose own run-to-run spread exceeds its bound is reported
// as unresolved — the runs cannot tell — never as unchanged.
func compareFiles(basePath, changePath string, stdout, stderr io.Writer) int {
	base, err := loadRuns(basePath)
	if err == nil {
		var change []*result
		if change, err = loadRuns(changePath); err == nil {
			return compareRuns(base, change, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareRuns(base, change []*result, stdout io.Writer) int {
	code := 0
	for _, r := range append(append([]*result{}, base...), change...) {
		if !r.Correct || !r.Valid {
			fmt.Fprintf(stdout, "%s: a run is not usable (correct=%v valid=%v)\n", r.Workload, r.Correct, r.Valid)
			code = 1
		}
	}
	a, b := collect(base), collect(change)
	for _, w := range sortedKeys(a) {
		if b[w] == nil {
			continue
		}
		fmt.Fprintf(stdout, "== %s\n", w)
		fmt.Fprintf(stdout, "  %-26s %12s %12s %9s %7s  %s\n", "metric", "base", "change", "worse by", "bound", "verdict")
		for _, name := range sortedKeys(a[w]) {
			vb, ok := b[w][name]
			if !ok {
				continue
			}
			bd := bounds[name]
			ma, mb := medianOf(a[w][name]), medianOf(vb)
			worse := 0.0
			switch {
			case ma == mb:
			case ma == 0:
				worse = 1
				if (mb > 0) == bd.higherBetter {
					worse = -1
				}
			case bd.higherBetter:
				worse = (ma - mb) / math.Abs(ma)
			default:
				worse = (mb - ma) / math.Abs(ma)
			}
			sa, oka := spread(a[w][name])
			sb, okb := spread(vb)
			verdict := "ok"
			switch {
			case (oka && sa > bd.share) || (okb && sb > bd.share):
				verdict = "UNRESOLVED (run-to-run spread exceeds the bound)"
				code = 1
			case worse > bd.share:
				verdict = "REGRESSION"
				code = 1
			case worse < -bd.share:
				verdict = "improved"
			}
			fmt.Fprintf(stdout, "  %-26s %12.4f %12.4f %8.2f%% %6.0f%%  %s\n", name, ma, mb, 100*worse, 100*bd.share, verdict)
		}
	}
	return code
}
