// Command bench is the lecture-day benchmark: four named workloads
// over a durable 7-station fabric (or, where the fabric is not the
// subject, one durable station), an oracle per workload, the issue's
// end-to-end metrics, a per-layer ledger from wire to fabric, and a
// traced replay that writes spans to bench/out. See README.md.
//
//	go run ./bench                                   all four workloads
//	go run ./bench --workload author-edit --seed 7 --seconds 15 --trace 0
//	go run ./bench -repeat 3                         medians, quartiles, spread vs bound
//	go run ./bench -compare a.json b.json            gate: exits non-zero past a bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/atomicio"
)

// config is one invocation's settings. Nothing here tunes the load:
// rates, sizes and op counts are frozen constants beside each
// workload, scaled only by the measured window (-seconds).
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
}

// workloadDef binds a workload's name to its implementation. run sets
// the store up (timing each set-up), measures, checks the oracle and
// fills the result; dir is a scratch directory it owns.
type workloadDef struct {
	name string
	why  string
	run  func(cfg config, dir string, res *result, rec *recorder) ([]time.Duration, error)
}

var workloads = []workloadDef{
	{"lecture-push", "pre-broadcast before class: large frames, bundle export/import, BLOB puts and the parallel fan-out do the work; small RPCs, search and checkpoints do none", runLecturePush},
	{"lecture-storm", "students pull and search during class: parent-route relay, scatter-gather merge, small-message transport and the index, with migrate writes beside the reads and almost no WAL work", runLectureStorm},
	{"author-edit", "authors check components in and out of one durable station: table locks, WAL appends, minisql and the checkpoint's write-quiescent window dominate; the fabric does nothing", runAuthorEdit},
	{"crash-restart", "cold recovery after process death: snapshot decode, WAL replay, BLOB restore and index rebuild do all the work and the network none", runCrashRestart},
}

// defaultSeconds is the measured window of one run, as BENCHMARK.json
// freezes it (run_seconds). smokeSeconds is the tier-1 smoke's.
const (
	defaultSeconds = 15
	smokeSeconds   = 0.6
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "all", "lecture-push | lecture-storm | author-edit | crash-restart | all")
	fs.Int64Var(&cfg.seed, "seed", 1999, "seed of every generated input and op plan")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "length of the measured window of one workload")
	trace := fs.Int("trace", 0, "1 replays the same plan with the span recorder on and reports the per-layer ledger")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny windows, same code paths, oracle on (what `go test ./bench` runs)")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for result files, span files and scratch data")
	repeat := fs.Int("repeat", 0, "run the selection N times and print per-metric median, quartiles and spread against its bound")
	compare := fs.String("compare", "", "`a.json` b.json: diff two result files and exit non-zero past a bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	if cfg.smoke && cfg.seconds == defaultSeconds {
		cfg.seconds = smokeSeconds
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files: -compare a.json b.json")
			return 2
		}
		return compareFiles(*compare, fs.Arg(0), stdout, stderr)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	selected, err := selectWorkloads(cfg.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printEnvironment(stdout, cfg)
	if *repeat > 0 {
		return repeatRuns(cfg, selected, *repeat, stdout, stderr)
	}
	results, err := runSelection(cfg, selected, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := contractOutput(results, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, r := range results {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

func selectWorkloads(name string) ([]workloadDef, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workloadDef{w}, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

// runSelection runs each selected workload once, printing and saving
// its result. A lone workload (what the driver asks for) and the smoke
// run execute in this process. Several full-length workloads each get a
// process of their own: heap, garbage-collector pacing and the resident-
// set peak of one workload would otherwise leak into the next one's
// numbers.
func runSelection(cfg config, selected []workloadDef, stdout io.Writer) ([]*result, error) {
	var results []*result
	for _, w := range selected {
		var res *result
		var err error
		if len(selected) == 1 || cfg.smoke {
			if res, err = runWorkload(cfg, w); err == nil {
				err = saveResult(cfg, res)
			}
		} else {
			res, err = runInChild(cfg, w)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.printHuman(stdout)
		results = append(results, res)
	}
	return results, nil
}

// runInChild re-executes this program for one workload, waits for it,
// and reads the result file it saved.
func runInChild(cfg config, w workloadDef) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(cfg.seed),
		"--seconds", fmt.Sprint(cfg.seconds), "--trace", trace, "-out", cfg.outDir)
	cmd.Stderr = os.Stderr
	res := newResult(w.name, cfg)
	os.Remove(resultPath(cfg, res)) // never mistake an earlier run's file for this one's
	// A child that ran but failed its oracle exits 1 and still saves
	// its result; only a missing result is an error here.
	runErr := cmd.Run()
	runs, err := loadRuns(resultPath(cfg, res))
	if err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, err
	}
	return runs[0], nil
}

// runWorkload executes one workload in a scratch directory of its own
// under the output directory (the benchmark writes nowhere else).
func runWorkload(cfg config, w workloadDef) (*result, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "data-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := newResult(w.name, cfg)
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	setups, err := w.run(cfg, dir, res, rec)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := runLedger(cfg, filepath.Join(dir, "ledger"), res); err != nil {
			return nil, fmt.Errorf("per-layer ledger: %w", err)
		}
		res.SelfTime = rec.selfTimes()
		if err := rec.write(filepath.Join(cfg.outDir, "trace_"+w.name+".json"), w.name, cfg.seed); err != nil {
			return nil, err
		}
	}
	res.finish(setups)
	return res, nil
}

// timedSetups runs a workload's set-up several times — each in a fresh
// directory, all but the last torn down again — so setup_s is a median
// and work moved into set-up by a later change shows up steadily.
func timedSetups[T any](cfg config, dir string, setup func(dir string) (T, error), teardown func(T)) (T, []time.Duration, error) {
	rounds := setupRounds
	if cfg.smoke {
		rounds = 1
	}
	var state T
	var times []time.Duration
	for k := 0; k < rounds; k++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", k))
		t0 := time.Now()
		st, err := setup(sub)
		if err != nil {
			return state, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0))
		if k < rounds-1 {
			teardown(st)
			os.RemoveAll(sub)
			continue
		}
		state = st
	}
	return state, times, nil
}

// setupRounds is how many times a run sets its workload up.
const setupRounds = 7

func resultPath(cfg config, res *result) string {
	name := "result_" + res.Workload
	if res.Traced {
		name += "_trace"
	}
	return filepath.Join(cfg.outDir, name+".json")
}

func saveResult(cfg config, res *result) error { return writeJSON(resultPath(cfg, res), res) }

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// contractOutput prints the run's last line. One workload: that
// workload's contract line. Several: one object of the same shape
// whose metric names carry the workload as a prefix.
func contractOutput(results []*result, stdout io.Writer) error {
	if len(results) == 1 {
		return results[0].contractLine(stdout)
	}
	correct, attempted, failed := true, int64(0), int64(0)
	merged := map[string]metric{}
	for _, r := range results {
		attempted += r.Attempted
		failed += r.Failed
		correct = correct && r.Correct
		src := r.Gate
		if r.Traced {
			src = r.PerLayer
		}
		for name, m := range src {
			merged[r.Workload+"/"+name] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	return printContract(stdout, correct, attempted, failed, merged)
}

// printEnvironment states what the numbers were measured on.
func printEnvironment(w io.Writer, cfg config) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "bench: nproc=%d GOMAXPROCS=%d %s commit=%s data-dir=%s (%s) clients=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit,
		cfg.outDir, fsName(cfg.outDir), clientThreads)
	fmt.Fprintln(w, "bench: crash model is process death (appends reach the page cache, nothing is fsynced at commit); power loss is not measured")
}
