package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/atomicio"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// The run report: everything a CI artifact needs to judge a load run
// without re-running it — per-op-class latency/throughput aggregates,
// per-station accounting scraped over the Stats RPC, and a pass/fail
// verdict per SLO. Written as BENCH_load_<profile>.json next to the
// other BENCH_* artifacts.

// Report is the harness's JSON output.
type Report struct {
	Profile   string  `json:"profile"`
	Seed      int64   `json:"seed"`
	TimeScale float64 `json:"time_scale"`
	Stations  int     `json:"stations"`
	M         int     `json:"m"`
	Watermark int     `json:"watermark"`
	Courses   int     `json:"courses"`

	SimSeconds  float64 `json:"sim_seconds"`
	WallSeconds float64 `json:"wall_seconds"`

	Ops map[string]OpSummary `json:"ops"`

	// SlowTraces are each phase's slowest successful ops with their
	// distributed trace IDs — feed one to `webdocctl trace` while the
	// fabric is still up to reconstruct the hop tree.
	SlowTraces []SlowTrace `json:"slow_traces,omitempty"`

	// ResolvedTraces are the slow exemplars' hop trees and correlated
	// journal events, collected fabric-wide before teardown when the
	// run failed an SLO — a failed p99 ships with its slowest
	// traversals pre-resolved instead of trace IDs that died with the
	// fabric.
	ResolvedTraces []ResolvedTrace `json:"resolved_traces,omitempty"`

	SLOs []SLOResult `json:"slos"`
	Pass bool        `json:"pass"`

	StationStats []StationStat `json:"station_stats,omitempty"`
}

// SLOResult is one objective's verdict. Threshold and Actual share the
// metric's unit: milliseconds for percentiles, a fraction for
// error-rate, ops per simulated second for throughput.
type SLOResult struct {
	Op        string  `json:"op"`
	Metric    string  `json:"metric"`
	Threshold float64 `json:"threshold"`
	Actual    float64 `json:"actual"`
	Pass      bool    `json:"pass"`
}

// ResolvedTrace is one slow exemplar with its reconstruction: the
// fabric-wide span set (hop tree) and the journal events correlated to
// the trace (grafts mid-traversal, mostly).
type ResolvedTrace struct {
	Phase     string      `json:"phase"`
	Op        string      `json:"op"`
	TraceID   string      `json:"trace_id"`
	LatencyMs float64     `json:"latency_ms"`
	Spans     []obs.Span  `json:"spans,omitempty"`
	Events    []obs.Event `json:"events,omitempty"`
	Err       string      `json:"err,omitempty"`
}

// ResolveSlowTraces collects each slow exemplar's hop tree and
// correlated events from a still-live target. A collection failure is
// recorded on the row, not fatal: a partially resolved report beats
// none, and the run already failed.
func ResolveSlowTraces(t Target, slow []SlowTrace) []ResolvedTrace {
	var out []ResolvedTrace
	for _, st := range slow {
		rt := ResolvedTrace{Phase: st.Phase, Op: st.Op, TraceID: st.TraceID, LatencyMs: st.LatencyMs}
		id, err := strconv.ParseUint(st.TraceID, 16, 64)
		if err != nil || id == 0 {
			rt.Err = fmt.Sprintf("bad trace ID %q", st.TraceID)
		} else if spans, events, err := t.CollectTrace(id); err != nil {
			rt.Err = err.Error()
		} else {
			rt.Spans, rt.Events = spans, events
		}
		out = append(out, rt)
	}
	return out
}

// StationStat is one station's Stats snapshot after the run.
type StationStat struct {
	Pos           int              `json:"pos"`
	Ops           map[string]int64 `json:"ops,omitempty"`
	BytesIn       int64            `json:"bytes_in"`
	BytesOut      int64            `json:"bytes_out"`
	Objects       int64            `json:"objects"`
	BlobObjects   int              `json:"blob_objects"`
	PhysicalBytes int64            `json:"physical_bytes"`
	LogicalBytes  int64            `json:"logical_bytes"`
	IndexDocs     int              `json:"index_docs"`
	IndexPostings int              `json:"index_postings"`
}

// stationStat flattens a Stats RPC reply into the report row.
func stationStat(s cluster.StatsReply) StationStat {
	return StationStat{
		Pos:           s.Pos,
		Ops:           s.Ops,
		BytesIn:       s.BytesIn,
		BytesOut:      s.BytesOut,
		Objects:       s.Objects,
		BlobObjects:   s.BlobObjects,
		PhysicalBytes: s.PhysicalBytes,
		LogicalBytes:  s.LogicalBytes,
		IndexDocs:     s.IndexDocs,
		IndexPostings: s.IndexPostings,
	}
}

// EvaluateSLOs judges summaries against the profile's objectives.
// Unchecked thresholds produce no row; an op with an SLO but no
// recorded traffic fails (the profile promised load that never ran),
// and so does a percentile of a class with no successful op, whose
// latency samples are empty rather than fast.
func EvaluateSLOs(slos []SLO, ops map[string]OpSummary) (results []SLOResult, pass bool) {
	pass = true
	for _, s := range slos {
		sum, ok := ops[s.Op]
		check := func(metric string, threshold, actual float64, good bool) {
			r := SLOResult{Op: s.Op, Metric: metric, Threshold: threshold, Actual: actual, Pass: good && ok && sum.Count > 0}
			if !r.Pass {
				pass = false
			}
			results = append(results, r)
		}
		sampled := sum.Count-sum.Errors-sum.Conflicts > 0
		if s.P50 > 0 {
			check("p50_ms", ms(s.P50), sum.P50Ms, sampled && sum.P50Ms <= ms(s.P50))
		}
		if s.P95 > 0 {
			check("p95_ms", ms(s.P95), sum.P95Ms, sampled && sum.P95Ms <= ms(s.P95))
		}
		if s.P99 > 0 {
			check("p99_ms", ms(s.P99), sum.P99Ms, sampled && sum.P99Ms <= ms(s.P99))
		}
		if s.MaxErrorRate >= 0 {
			check("error_rate", s.MaxErrorRate, sum.ErrorRate, sum.ErrorRate <= s.MaxErrorRate)
		}
		if s.MinThroughput > 0 {
			check("min_sim_ops_per_sec", s.MinThroughput, sum.SimOpsPerSec, sum.SimOpsPerSec >= s.MinThroughput)
		}
	}
	return results, pass
}

// BuildReport assembles the report from a finished run.
func BuildReport(p *Profile, col *Collector, wall time.Duration, stats []cluster.StatsReply) *Report {
	sim := p.SimDuration()
	ops := col.Summarize(wall, sim)
	slos, pass := EvaluateSLOs(p.SLOs, ops)
	r := &Report{
		Profile:     p.Name,
		Seed:        p.Seed,
		TimeScale:   p.TimeScale,
		Stations:    p.Fabric.Stations,
		M:           p.Fabric.M,
		Watermark:   p.Fabric.Watermark,
		Courses:     p.Courses.Count,
		SimSeconds:  sim.Seconds(),
		WallSeconds: wall.Seconds(),
		Ops:         ops,
		SlowTraces:  col.SlowTraces(),
		SLOs:        slos,
		Pass:        pass,
	}
	for _, s := range stats {
		r.StationStats = append(r.StationStats, stationStat(s))
	}
	sort.Slice(r.StationStats, func(i, j int) bool { return r.StationStats[i].Pos < r.StationStats[j].Pos })
	return r
}

// ReportFileName is the artifact name for a profile, matching the
// BENCH_* convention the CI uploads.
func ReportFileName(profileName string) string {
	return fmt.Sprintf("BENCH_load_%s.json", profileName)
}

// WriteReport marshals the report to path (indent + trailing newline,
// like the other BENCH artifacts). The write is temp-then-rename so a
// run killed mid-report never leaves a torn JSON artifact for CI to
// upload — readers see the previous complete report or the new one.
func WriteReport(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}
