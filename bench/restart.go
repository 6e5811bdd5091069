package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/blob"
	"repro/internal/docdb"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/workload"
)

// crash-restart: what an operator pays after every crash. Set-up
// builds one durable station — a checkpointed body plus an
// uncheckpointed tail — and abandons it as a dying process would. The
// measured window then recovers fresh copies of that directory, cold,
// one after another, each through the daemon's own start-up sequence
// up to the first page read and the first query.
//
// Frozen sizes (see README): the store's shape does not scale with
// -seconds, only the number of recoveries does.
const (
	restartBodyCourses = 24
	restartTailCourses = 4
	restartBodyRows    = 5000 // ledger and record rows before the checkpoint
	restartTailCommits = 2000 // commits after it
	restartMinRuns     = 20   // recoveries timed even if the window is shorter
	restartTraceEach   = 2
)

// restartExpect is the pre-kill state a recovery must reproduce.
type restartExpect struct {
	rows      map[string]int
	indexDocs int
	pageBytes int64
	pageSum   [sha256.Size]byte
}

type restartState struct {
	dir     string // the abandoned data directory
	expect  restartExpect
	corp    *corpus
	planSum [sha256.Size]byte // digest of the seeded record plan
}

// fillRecords writes n ledger and record rows through the document
// layer: test records, bug reports, annotations and checkout/check-in
// pairs (two rows each), in fixed proportion, each against a course
// drawn from the seed's plan stream. names keeps counting across calls
// so keys stay unique.
func fillRecords(rng *rand.Rand, store *docdb.Store, specs []workload.CourseSpec, names *int, rows int) error {
	for written := 0; written < rows; {
		*names++
		spec := specs[rng.Intn(len(specs))]
		var err error
		switch *names % 10 {
		case 0, 1, 2, 3:
			err = store.RecordTest(docdb.TestRecord{
				Name: fmt.Sprintf("test-%06d", *names), ScriptName: spec.ScriptName, StartingURL: spec.URL,
				Scope: "local", Messages: []string{"open index.html", "follow next", "close"},
			})
			written++
		case 4, 5:
			err = store.FileBugReport(docdb.BugReport{
				Name: fmt.Sprintf("bug-%06d", *names), TestName: "seed-test", Description: "broken link on page 3",
			})
			written++
		case 6:
			err = store.SaveAnnotation(docdb.Annotation{
				Name: fmt.Sprintf("ann-%06d", *names), ScriptName: spec.ScriptName, StartingURL: spec.URL,
				Author: "student", File: bytes.Repeat([]byte("note "), 40),
			})
			written++
		default:
			var id string
			if id, err = store.CheckOut(schema.KindScript, spec.ScriptName, "author"); err == nil {
				err = store.CheckIn(id, "revision")
			}
			written += 2
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// setupRestart builds the station and abandons it with no shutdown
// checkpoint.
func setupRestart(cfg config, dir string) (*restartState, error) {
	node, err := openStation(filepath.Join(dir, "crashed-station"))
	if err != nil {
		return nil, err
	}
	store := node.store
	corp, err := buildCorpus(store, restartBodyCourses)
	if err != nil {
		return nil, err
	}
	err = store.RecordTest(docdb.TestRecord{Name: "seed-test", ScriptName: corp.specs[0].ScriptName, Scope: "global"})
	if err != nil {
		return nil, err
	}
	names, rng := 0, planRNG(cfg.seed, streamRestart)
	if err := fillRecords(rng, store, corp.specs, &names, restartBodyRows); err != nil {
		return nil, err
	}
	if _, err := store.CheckpointNow(); err != nil {
		return nil, err
	}
	// The tail: commits the checkpoint does not cover, and four more
	// courses whose media bytes exist only in memory when the process
	// dies.
	if err := fillRecords(rng, store, corp.specs, &names, restartTailCommits); err != nil {
		return nil, err
	}
	for i := 0; i < restartTailCourses; i++ {
		spec := courseSpec(restartBodyCourses+i, 1)
		if _, _, err := workload.AuthorCourse(store, spec); err != nil {
			return nil, err
		}
		corp.specs = append(corp.specs, spec)
	}
	st := &restartState{dir: node.dir, corp: corp, planSum: testRecordDigest(store)}
	if st.expect, err = observe(store, node.index, corp.specs[0].URL); err != nil {
		return nil, err
	}
	return st, node.abandon()
}

// testRecordDigest fingerprints which course each test record was
// filed against — the seeded part of the build plan.
func testRecordDigest(store *docdb.Store) [sha256.Size]byte {
	h := sha256.New()
	store.Rel().Scan(schema.TableTestRecords, func(r relstore.Row) bool {
		fmt.Fprintln(h, r["test_name"], r["script_name"])
		return true
	})
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// observe reads the state the oracle compares: row counts of every
// table, the index's document count, the total page bytes and the
// checksum of one page.
func observe(store *docdb.Store, ix *search.Index, probeURL string) (restartExpect, error) {
	e := restartExpect{rows: map[string]int{}, indexDocs: ix.Docs()}
	for _, table := range store.Rel().Tables() {
		n, err := store.Rel().Count(table)
		if err != nil {
			return e, err
		}
		e.rows[table] = n
	}
	err := store.Rel().Scan(schema.TableHTMLFiles, func(r relstore.Row) bool {
		content, _ := r["content"].([]byte)
		e.pageBytes += int64(len(content))
		return true
	})
	if err != nil {
		return e, err
	}
	page, err := store.HTML(probeURL, workload.PagePath(0))
	if err != nil {
		return e, err
	}
	e.pageSum = sha256.Sum256(page)
	return e, nil
}

// recoverOnce is the timed unit: the daemon's start-up sequence on a
// data directory — new engine, document store, content index, Recover
// — through the first page read and the first query.
func recoverOnce(dir, probeURL string) (*station, error) {
	node, err := openStation(dir)
	if err != nil {
		return nil, err
	}
	if _, err := node.store.HTML(probeURL, workload.PagePath(0)); err != nil {
		return nil, fmt.Errorf("first read: %w", err)
	}
	if hits := node.index.Search(search.Query{Terms: []string{"lecture"}, TopK: stormTopK}); len(hits) == 0 {
		return nil, fmt.Errorf("first query found nothing")
	}
	return node, nil
}

func runCrashRestart(cfg config, dir string, res *result, rec *recorder) ([]time.Duration, error) {
	st, setups, err := timedSetups(cfg, dir,
		func(d string) (*restartState, error) { return setupRestart(cfg, d) },
		func(*restartState) {})
	if err != nil {
		return nil, err
	}
	hash := newPlanHasher("crash-restart", cfg.seed)
	for _, b := range st.corp.bundles {
		hash.addBundle(b)
	}
	hash.addf("body=%d courses %d rows; tail=%d commits %d courses", restartBodyCourses, restartBodyRows, restartTailCommits, restartTailCourses)
	hash.addf("record plan digest %x", st.planSum)
	res.PlanHash = hash.sum()
	probe := st.corp.specs[0].URL

	window := time.Duration(cfg.seconds * float64(time.Second))
	minRuns := restartMinRuns
	if cfg.smoke {
		minRuns = 2
	}
	var (
		lat            samples
		busy, cpu      time.Duration
		resident, refs int
		halves         [2]struct {
			n    int
			busy time.Duration
		}
	)
	t0 := time.Now()
	for k := 0; time.Since(t0) < window || k < minRuns; k++ {
		// The second half of the window is traced — or, when the window
		// is too short to have halves (the smoke run), every recovery
		// after the first.
		tracedHalf := rec != nil && (time.Since(t0) >= window/2 || (cfg.smoke && k > 0))
		traced := tracedHalf && (cfg.smoke || sampled(rec, k, restartTraceEach))
		copyTo := filepath.Join(dir, fmt.Sprintf("copy-%d", k))
		if err := copyDir(st.dir, copyTo); err != nil {
			return setups, err
		}
		var node *station
		var rerr error
		cpu0, start := cpuTime(), time.Now()
		attempt := func() { node, rerr = recoverOnce(copyTo, probe) }
		span := 0
		if traced {
			span = rec.root(k, "docdb", "start-up: Open+Attach+Recover+first read+first query", attempt)
		} else {
			attempt()
		}
		d := time.Since(start)
		cpu += cpuTime() - cpu0
		res.Attempted++
		if rerr != nil {
			res.fail(1, "recovery %d: %v", k, rerr)
		} else {
			lat = append(lat, d)
			busy += d
			h := 0
			if tracedHalf {
				h = 1
			}
			halves[h].n++
			halves[h].busy += d
			restartOracle(res, st, node, k)
			r, n := residentMedia(node.store)
			resident, refs = resident+r, refs+n
			if err := node.abandon(); err != nil {
				return setups, err
			}
		}
		if traced && rerr == nil {
			replayRestart(rec, span, k, copyTo)
		}
		os.RemoveAll(copyTo)
	}
	if len(lat) == 0 {
		return setups, fmt.Errorf("no recovery succeeded")
	}
	n := len(lat)
	res.percentile(res.EndToEnd, "restart_ms", lat, 0.5, "ms")
	res.e2e("restart_resident_share", float64(resident)/float64(refs), "share", refs)
	res.Gate["op_p50_ms"] = res.EndToEnd["restart_ms"]
	if q := tailQuantile(n, 0.75, 0.9); q > 0.5 {
		res.percentile(res.EndToEnd, fmt.Sprintf("restart_p%.0f_ms", q*100), lat, q, "ms")
	}
	res.Gate["sat_ops_s"] = metric{Value: float64(n) / busy.Seconds(), Unit: "1/s", N: n}
	res.Gate["cpu_ms_per_op"] = metric{Value: ms(cpu) / float64(n), Unit: "ms", N: n}
	res.Notes = append(res.Notes,
		"sat_ops_s is recoveries per second of recovery time",
		fmt.Sprintf("recovered directory holds %d bytes; restart_resident_share below 1 is the BLOB crash window (rows whose media were never checkpointed), a metric here, not an error", dirBytes(st.dir)),
		"process-death model: the abandoned directory's appends reached the page cache and nothing was fsynced; power loss is not measured")
	if rec != nil && halves[0].n > 0 && halves[1].n > 0 {
		off := float64(halves[0].n) / halves[0].busy.Seconds()
		on := float64(halves[1].n) / halves[1].busy.Seconds()
		res.layer("bench.trace_overhead_pct", 100*(off-on)/off, "%", n)
	} else if rec != nil {
		res.layer("bench.trace_overhead_pct", 0, "%", 0)
	}
	return setups, nil
}

// restartOracle compares a recovered station with the pre-kill state.
func restartOracle(res *result, st *restartState, node *station, k int) {
	got, err := observe(node.store, node.index, st.corp.specs[0].URL)
	if err != nil {
		res.fail(1, "recovery %d: reading recovered state: %v", k, err)
		return
	}
	want := st.expect
	for table, n := range want.rows {
		if got.rows[table] != n {
			res.fail(1, "recovery %d: %s has %d rows, %d before the crash", k, table, got.rows[table], n)
		}
	}
	if got.indexDocs != want.indexDocs {
		res.fail(1, "recovery %d: index holds %d documents, %d before the crash", k, got.indexDocs, want.indexDocs)
	}
	if got.pageBytes != want.pageBytes || got.pageSum != want.pageSum {
		res.fail(1, "recovery %d: page bytes differ from the pre-crash store", k)
	}
}

// residentMedia counts the recovered media descriptors and how many of
// them point at a BLOB the recovered store actually holds.
func residentMedia(store *docdb.Store) (resident, refs int) {
	store.Rel().Scan(schema.TableImplMedia, func(r relstore.Row) bool {
		refs++
		hash, _ := r["blob_hash"].(string)
		if store.Blobs().Has(blob.Ref{Hash: hash}) {
			resident++
		}
		return true
	})
	return resident, refs
}

// replayRestart replays one recovery's parts on the same directory,
// each alone, as children of the start-up span: the relational
// recovery, the BLOB restore and the index recovery. The root's
// remainder is the document layer's own share (ID resync, glue).
func replayRestart(rec *recorder, parent, op int, dir string) {
	rel := relstore.NewDB()
	var info *relstore.RecoverInfo
	rec.replay(parent, op, "relstore", "relstore.OpenDurable", func() {
		info, _ = rel.OpenDurable(dir)
	})
	if info == nil {
		return
	}
	defer rel.CloseWAL()
	if data, err := os.ReadFile(sidecarPath(dir, "blobs", info.Gen)); err == nil {
		rec.replay(parent, op, "blob", "blob.Restore", func() {
			blob.NewStore().Restore(bytes.NewReader(data))
		})
	}
	sidecar, _ := os.ReadFile(sidecarPath(dir, "search", info.Gen))
	rec.replay(parent, op, "search", "search.RecoverCheckpoint", func() {
		search.NewIndex().RecoverCheckpoint(sidecar, rel, info.Applied)
	})
}
