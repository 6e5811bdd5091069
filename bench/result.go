package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// metric is one reported number: its value as measured, its unit and —
// for a percentile or a median — the sample count it was taken from.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one workload run: the gate metrics BENCHMARK.json names
// (the same keys on every workload), the workload's own end-to-end
// metrics under the issue's names, the per-layer ledger, and the
// verdicts of the oracle and the generator-health guard.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Smoke     bool     `json:"smoke,omitempty"`
	PlanHash  string   `json:"plan_hash"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Correct   bool     `json:"correct"`
	Valid     bool     `json:"valid"`
	Invalid   []string `json:"invalid,omitempty"`
	Failures  []string `json:"failures,omitempty"`

	Gate     map[string]metric `json:"gate"`
	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
	SelfTime map[string]metric `json:"self_time,omitempty"`
	Notes    []string          `json:"notes,omitempty"`
}

func newResult(workload string, cfg config) *result {
	return &result{
		Workload: workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Traced: cfg.trace, Smoke: cfg.smoke, Correct: true, Valid: true,
		Gate:     map[string]metric{},
		EndToEnd: map[string]metric{},
		PerLayer: map[string]metric{},
	}
}

// maxFailureNotes bounds the failure descriptions kept per run; the
// counts are exact regardless.
const maxFailureNotes = 20

// fail counts failed operations (or oracle checks) and keeps the first
// few descriptions. Every failure is counted in error_share.
func (r *result) fail(n int64, format string, args ...any) {
	r.Failed += n
	r.Correct = false
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// invalidate records a generator-health violation: the numbers were
// measured, but not under the conditions the benchmark promises.
func (r *result) invalidate(format string, args ...any) {
	r.Valid = false
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

func (r *result) e2e(name string, v float64, unit string, n int) {
	r.EndToEnd[name] = metric{Value: v, Unit: unit, N: n}
}

func (r *result) layer(name string, v float64, unit string, n int) {
	r.PerLayer[name] = metric{Value: v, Unit: unit, N: n}
}

// percentile reports the q-quantile of a latency set under name, in
// the given time unit, and applies the sample-count guard: a reported
// percentile must have minBeyond samples beyond it.
func (r *result) percentile(into map[string]metric, name string, s samples, q float64, unit string) {
	sorted := s.sorted()
	v := nearestRank(sorted, q)
	val := ms(v)
	if unit == "us" {
		val = us(v)
	}
	into[name] = metric{Value: val, Unit: unit, N: len(sorted)}
	if q > 0.5 && beyond(len(sorted), q) < minBeyond && !r.Smoke {
		r.invalidate("%s: only %d samples beyond p%g of %d", name, beyond(len(sorted), q), q*100, len(sorted))
	}
}

// finish derives the metrics every workload shares.
func (r *result) finish(setup []time.Duration) {
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	r.e2e("error_share", share, "share", int(r.Attempted))
	var ss []float64
	for _, d := range setup {
		ss = append(ss, d.Seconds())
	}
	setupS := metric{Value: medianOf(ss), Unit: "s", N: len(ss)}
	rss := metric{Value: peakRSSMB(), Unit: "MB"}
	r.EndToEnd["setup_s"], r.Gate["setup_s"] = setupS, setupS
	r.EndToEnd["peak_rss_mb"], r.Gate["peak_rss_mb"] = rss, rss
}

// contractLine is the last line of standard output: exactly the keys
// the benchmark contract names, carrying the gate metrics of an
// untraced run or the per-layer ledger of a traced one.
func (r *result) contractLine(w io.Writer) error {
	metrics := map[string]metric{}
	names := gateMetricNames
	src := r.Gate
	if r.Traced {
		names, src = ledgerMetricNames, r.PerLayer
	}
	for _, name := range names {
		m, ok := src[name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", r.Workload, name)
		}
		metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return printContract(w, r.Correct, attempted, r.Failed, metrics)
}

// printContract writes the one-line JSON object the driver reads.
func printContract(w io.Writer, correct bool, attempted, failed int64, metrics map[string]metric) error {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printHuman lists every metric by name, value, unit and sample count.
func (r *result) printHuman(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  traced=%v  plan_hash=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.PlanHash)
	section := func(title string, ms map[string]metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "  %s\n", title)
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := ms[n]
			if m.N > 0 {
				fmt.Fprintf(w, "    %-40s %14.4f %-8s n=%d\n", n, m.Value, m.Unit, m.N)
			} else {
				fmt.Fprintf(w, "    %-40s %14.4f %s\n", n, m.Value, m.Unit)
			}
		}
	}
	section("end-to-end", r.EndToEnd)
	section("gate (BENCHMARK.json names)", r.Gate)
	section("per-layer", r.PerLayer)
	section("self time by layer (traced sample)", r.SelfTime)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, v := range r.Invalid {
		fmt.Fprintf(w, "  INVALID: %s\n", v)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v valid=%v\n", r.Attempted, r.Failed, r.Correct, r.Valid)
}
