// Command webdocload replays a time-compressed semester day against a
// distribution fabric and judges the run against the profile's latency
// SLOs.
//
//	webdocload -profile semester-day
//	webdocload -profile semester-day -addr 127.0.0.1:7070   # existing fabric
//
// Profiles are Go values in internal/loadgen (SemesterDay, CISmoke),
// picked by name; an unknown name exits 2 and lists the known ones.
// -seed and -time-scale override the profile's values, and the result
// is validated before any op fires. Without -addr the harness
// self-hosts the profile's fabric in-process (loopback TCP, real
// sockets) and seeds the course corpus first. The run always writes
// BENCH_load_<profile>.json and exits non-zero when any SLO fails, so
// CI can gate on it directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/loadgen"
)

func main() {
	var (
		profileName = flag.String("profile", "", "shipped load profile name (required): "+strings.Join(loadgen.ProfileNames(), ", "))
		addr        = flag.String("addr", "", "root address of an existing fabric (default: self-host)")
		out         = flag.String("out", "", "report path (default BENCH_load_<profile>.json)")
		outDir      = flag.String("out-dir", ".", "directory for the default report path")
		seed        = flag.Int64("seed", 0, "override the profile's seed (0 = keep)")
		timeScale   = flag.Float64("time-scale", 0, "override the profile's time-scale (0 = keep)")
		jsonOut     = flag.Bool("json", false, "print the report JSON to stdout")
		quiet       = flag.Bool("q", false, "suppress progress output")
		wait        = flag.Duration("wait", 30*time.Second, "how long to wait for an existing fabric's roster")
	)
	flag.Parse()
	if *profileName == "" {
		fmt.Fprintln(os.Stderr, "usage: webdocload -profile <name> [-addr host:port] [-out report.json] [-json]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	profile, err := loadgen.ProfileByName(*profileName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webdocload:", err)
		os.Exit(2)
	}
	if *seed != 0 {
		profile.Seed = *seed
	}
	if *timeScale != 0 {
		profile.TimeScale = *timeScale
	}
	logf := loadgen.Logf(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
	if *quiet {
		logf = nil
	}

	plan := loadgen.BuildPlan(profile)

	rootAddr := *addr
	if rootAddr == "" {
		host, err := loadgen.StartHost(profile, logf)
		if err != nil {
			fail(err)
		}
		defer host.Close()
		rootAddr = host.RootAddr()
	}
	target, err := loadgen.DialFabric(rootAddr, profile.Fabric.Stations, *wait)
	if err != nil {
		fail(err)
	}
	defer target.Close()

	col, wall, err := loadgen.Run(profile, plan, target, logf)
	if err != nil {
		fail(err)
	}
	stats, err := target.Stats()
	if err != nil {
		fail(fmt.Errorf("scraping station stats: %w", err))
	}
	report := loadgen.BuildReport(profile, col, wall, stats)
	if !report.Pass && len(report.SlowTraces) > 0 {
		// The run failed an SLO: resolve the slow exemplars' hop trees
		// and correlated journal events while the fabric is still up,
		// so the report ships the debugging evidence, not just IDs.
		if logf != nil {
			logf("resolving %d slow-trace exemplar(s) before teardown", len(report.SlowTraces))
		}
		report.ResolvedTraces = loadgen.ResolveSlowTraces(target, report.SlowTraces)
	}

	path := *out
	if path == "" {
		path = filepath.Join(*outDir, loadgen.ReportFileName(profile.Name))
	}
	if err := loadgen.WriteReport(path, report); err != nil {
		fail(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(report)
	} else {
		printSummary(report, path)
	}
	if !report.Pass {
		os.Exit(1)
	}
}

func printSummary(r *loadgen.Report, path string) {
	fmt.Printf("profile %s: %d stations (m=%d), %.0fs simulated in %.1fs wall\n",
		r.Profile, r.Stations, r.M, r.SimSeconds, r.WallSeconds)
	for _, op := range []string{"broadcast", "resolve", "search", "checkout", "migrate"} {
		s, ok := r.Ops[op]
		if !ok {
			continue
		}
		fmt.Printf("  %-9s %5d ops  %6.1f ops/s  p50 %7.1fms  p95 %7.1fms  p99 %7.1fms  errs %d\n",
			op, s.Count, s.WallOpsPerSec, s.P50Ms, s.P95Ms, s.P99Ms, s.Errors)
	}
	for _, v := range r.SLOs {
		mark := "PASS"
		if !v.Pass {
			mark = "FAIL"
		}
		fmt.Printf("  SLO %-9s %-20s threshold %10.2f  actual %10.2f  %s\n",
			v.Op, v.Metric, v.Threshold, v.Actual, mark)
	}
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Printf("verdict: %s  (report: %s)\n", verdict, path)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "webdocload:", err)
	os.Exit(1)
}
