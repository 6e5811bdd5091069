package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/docdb"
	"repro/internal/fabric"
	"repro/internal/search"
)

// lecture-storm: the read path during class. Every course starts as a
// reference on the six non-root stations. Students fetch (Zipf over
// courses) from those stations and search from anywhere, while the
// plan has the root end one lecture at a fixed cadence so replicas are
// reclaimed and the share of fetches that go remote holds steady.
//
// Frozen load, calibrated once on the defining commit (see README):
// the paced phase offers stormRate ops/s, about half of what the
// closed-loop saturate phase sustained.
const (
	stormRate       = 500.0 // ops/s offered in the paced phase
	stormPacedShare = 0.6   // of -seconds; the rest is the saturate phase
	stormFetchShare = 0.7   // of non-timetable ops; the rest are searches
	stormEndEvery   = 40    // every n-th op the root ends one lecture (0.1 s at stormRate)
	stormZipfS      = 1.1
	stormTopK       = 10
	stormOracleEach = 50  // every n-th search is checked against the scan baseline
	stormSatPlanCap = 8.0 // saturate plan length, as a multiple of the paced rate
	stormWarmupOps  = 300
	stormTraceEach  = 12
)

type stormKind byte

const (
	stormFetch  stormKind = 'F'
	stormSearch stormKind = 'S'
	stormEnd    stormKind = 'E'
)

type stormOp struct {
	kind    stormKind
	station int // index into host.admins: 0 is the root
	course  int
	q       query
}

// stormOutcome is what one executed op reported.
type stormOutcome struct {
	ok         bool
	remote     bool
	replicated bool
	hops       int
}

// stormPlan draws n ops. Timetable ops sit at fixed plan positions and
// walk the courses round-robin; the rest are fetches from a uniformly
// chosen non-root station or searches entering at any station.
func stormPlan(rng *rand.Rand, n, courses int) []stormOp {
	zipf := newZipfCourse(courses, stormZipfS)
	ops := make([]stormOp, n)
	ended := 0
	for i := range ops {
		switch {
		case i%stormEndEvery == stormEndEvery-1:
			ops[i] = stormOp{kind: stormEnd, course: ended % courses}
			ended++
		case rng.Float64() < stormFetchShare:
			ops[i] = stormOp{kind: stormFetch, station: 1 + rng.Intn(fabricStations-1), course: zipf.draw(rng)}
		default:
			ops[i] = stormOp{kind: stormSearch, station: rng.Intn(fabricStations), q: drawQuery(rng, courses)}
		}
	}
	return ops
}

func hashStormPlan(h *planHasher, ops []stormOp) {
	for _, op := range ops {
		h.addf("%c %d %d %v %v", op.kind, op.station, op.course, op.q.Terms, op.q.Phrase)
	}
}

// stormRun is the state shared by the workload's phases.
type stormRun struct {
	st  *fabricState
	res *result
	rec *recorder
	rp  *replayer

	// courseMu keeps a fetch of a course and the end of that course's
	// lecture from overlapping: a resolve relayed through a station
	// that is migrating the same document can be served a half-dropped
	// bundle, a race in the system this workload does not set out to
	// measure. Fetches of other courses and all searches run beside
	// the migration untouched.
	courseMu []sync.RWMutex

	mu         sync.Mutex // guards the fields below
	searches   int
	fetched    int64 // bundle bytes remote fetches returned
	searchHops hopStats
	otherHops  hopStats
}

// exec performs one op. Failures are counted when measured is set;
// traced ops get a root span, a layer replay and their hop tree.
func (r *stormRun) exec(op stormOp, i int, measured, traced bool) stormOutcome {
	h := r.st.host
	var out stormOutcome
	var err error
	switch op.kind {
	case stormEnd:
		url := r.st.corpus.specs[op.course].URL
		r.courseMu[op.course].Lock()
		var rep fabric.MigrateReply
		rep, err = h.admins[0].EndLecture(url)
		r.courseMu[op.course].Unlock()
		if err == nil {
			err = stationErrors(rep.Stations, -1)
		}
	case stormFetch:
		url := r.st.corpus.specs[op.course].URL
		var fr fabric.FetchResult
		call := func() {
			r.courseMu[op.course].RLock()
			fr, err = h.admins[op.station].Fetch(url)
			r.courseMu[op.course].RUnlock()
		}
		span := 0
		if traced {
			span = r.rec.root(i, "fabric", "Admin.Fetch", call)
		} else {
			call()
		}
		if err == nil && fr.URL != url {
			err = fmt.Errorf("fetch answered for %q", fr.URL)
		}
		if err == nil && !fr.Local {
			if fr.Bytes <= 0 {
				err = fmt.Errorf("remote fetch of %s moved no bytes", url)
			}
			from, _ := depthOf(op.station + 1)
			to, _ := depthOf(fr.ServedBy)
			out.remote, out.replicated, out.hops = true, fr.Replicated, from-to
			if measured {
				r.mu.Lock()
				r.fetched += fr.Bytes
				r.mu.Unlock()
			}
		}
		if traced && err == nil {
			r.replayFetch(span, i, op, fr, out.hops)
		}
	case stormSearch:
		var rep fabric.SearchReply
		call := func() { rep, err = h.admins[op.station].Search(op.q.Terms, op.q.Phrase, stormTopK) }
		span := 0
		if traced {
			span = r.rec.root(i, "fabric", "Admin.Search", call)
		} else {
			call()
		}
		if err == nil {
			err = stationErrors(rep.Stations, fabricStations)
		}
		if err == nil && measured {
			r.mu.Lock()
			r.searches++
			check := r.searches%stormOracleEach == 0
			r.mu.Unlock()
			if check {
				err = r.searchOracle(op.q, rep.Hits)
			}
		}
		if traced && err == nil {
			r.replaySearch(span, i, op, rep)
		}
	}
	out.ok = err == nil
	if measured {
		r.mu.Lock()
		r.res.Attempted++
		if err != nil {
			r.res.fail(1, "%c station %d course %d %v: %v", op.kind, op.station+1, op.course, op.q.Terms, err)
		}
		r.mu.Unlock()
	}
	return out
}

// searchOracle checks a federated hit list against the merged-catalog
// scan baseline. The root holds every document persistently and hit
// scores depend on content alone, so the federation's merged top-k
// must equal the root's unindexed ScanSearch, key for key and score
// for score.
func (r *stormRun) searchOracle(q query, got []search.Hit) error {
	want := r.st.host.root().index.ScanSearch(search.Query{Terms: q.Terms, Phrase: q.Phrase, TopK: stormTopK})
	if len(got) != len(want) {
		return fmt.Errorf("federated search returned %d hits, scan baseline %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || got[i].Score != want[i].Score {
			return fmt.Errorf("hit %d is %s (%d), scan baseline has %s (%d)", i, got[i].Key, got[i].Score, want[i].Key, want[i].Score)
		}
	}
	return nil
}

// replayFetch replays a fetch through the layers: a local hit is one
// object lookup; a remote one is an export at the holder, one edge
// (marshal, echo, unmarshal) per hop of the parent route and, when the
// fetch crossed the watermark, an import.
func (r *stormRun) replayFetch(parent, op int, sop stormOp, fr fabric.FetchResult, hops int) {
	rp := r.rp
	url := r.st.corpus.specs[sop.course].URL
	rp.rec.replay(parent, op, "transport", "echo RPC (admin request)", func() {
		rp.note(rp.echo.call(make([]byte, 64)))
	})
	if fr.Local {
		rp.rec.replay(parent, op, "docdb", "docdb.ObjectByURL", func() {
			_, err := r.st.host.nodes[sop.station].store.ObjectByURL(url)
			rp.note(err)
		})
		return
	}
	var b *docdb.Bundle
	rp.rec.replay(parent, op, "docdb", "docdb.ExportBundle", func() {
		var err error
		b, err = r.st.host.root().store.ExportBundle(url)
		rp.note(err)
	})
	if b == nil {
		return
	}
	for hop := 0; hop < hops; hop++ {
		var got fabric.ResolveReply
		rp.edge(parent, op, fabric.ResolveReply{Bundle: *b, ServedBy: fr.ServedBy}, &got)
	}
	if fr.Replicated {
		rp.importBundle(parent, op, b)
	}
	r.mu.Lock()
	r.otherHops.collect(rp.rec, parent, op, r.st.host.admins[0], fr.TraceID, "Fabric.Resolve")
	r.mu.Unlock()
}

// replaySearch replays a federated query: the entry hop and one hop
// per tree level as small echo RPCs, one local index query, and one
// top-k merge per level of the gather.
func (r *stormRun) replaySearch(parent, op int, sop stormOp, rep fabric.SearchReply) {
	rp := r.rp
	q := search.Query{Terms: sop.q.Terms, Phrase: sop.q.Phrase, TopK: stormTopK}
	depth, _ := depthOf(fabricStations)
	edges := depth + 1 // client to entry station, then down the tree
	if sop.station != 0 {
		edges++ // entry station forwards to the root
	}
	for e := 0; e < edges; e++ {
		rp.rec.replay(parent, op, "transport", "echo RPC (query hop)", func() {
			rp.note(rp.echo.call(make([]byte, 64)))
		})
	}
	var local []search.Hit
	rp.rec.replay(parent, op, "search", "search.Index.Search", func() {
		local = r.st.host.root().index.Search(q)
	})
	for level := 0; level < depth; level++ {
		rp.rec.replay(parent, op, "search", "search.Merge", func() {
			search.Merge(stormTopK, local, rep.Hits, local, rep.Hits)
		})
	}
	r.mu.Lock()
	r.searchHops.collect(rp.rec, parent, op, r.st.host.admins[0], rep.TraceID, "Fabric.Search")
	r.mu.Unlock()
}

func runLectureStorm(cfg config, dir string, res *result, rec *recorder) ([]time.Duration, error) {
	st, setups, err := timedSetups(cfg, dir,
		func(d string) (*fabricState, error) { return setupFabric(cfg, d, true) },
		(*fabricState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()

	pacedDur := cfg.seconds * stormPacedShare
	satDur := time.Duration((cfg.seconds - pacedDur) * float64(time.Second))
	nPaced := int(stormRate * pacedDur)
	nSat := int(stormRate * stormSatPlanCap * satDur.Seconds())
	warm := stormWarmupOps
	if cfg.smoke {
		warm = 40
	}
	rng := planRNG(cfg.seed, streamStorm)
	warmOps := stormPlan(rng, warm, corpusCourses)
	pacedOps := stormPlan(rng, nPaced, corpusCourses)
	satOps := stormPlan(rng, nSat, corpusCourses)
	hash := newPlanHasher("lecture-storm", cfg.seed)
	for _, b := range st.corpus.bundles {
		hash.addBundle(b)
	}
	hashStormPlan(hash, warmOps)
	hashStormPlan(hash, pacedOps)
	hashStormPlan(hash, satOps)
	res.PlanHash = hash.sum()

	run := &stormRun{st: st, res: res, rec: rec, courseMu: make([]sync.RWMutex, corpusCourses)}
	if rec != nil {
		if run.rp, err = newReplayer(rec, dir); err != nil {
			return nil, err
		}
		defer run.rp.close()
	}

	// Warm-up: untimed, closed loop.
	runClosed(len(warmOps), 0, func(_, i int) { run.exec(warmOps[i], i, false, false) })
	wire0 := st.host.wire()

	// Paced phase: open loop, latency from each op's due time.
	interval := intervalFor(stormRate)
	outcomes := make([]stormOutcome, nPaced)
	paced := runPaced(nPaced, interval, func(_, i int) {
		outcomes[i] = run.exec(pacedOps[i], i, true, sampled(rec, i, stormTraceEach))
	})
	var fetchAll, fetchRemote, searchLat, endLat samples
	var hops, replicated int
	for i, t := range paced {
		if !outcomes[i].ok {
			continue
		}
		switch pacedOps[i].kind {
		case stormFetch:
			fetchAll = append(fetchAll, t.latency())
			if outcomes[i].remote {
				fetchRemote = append(fetchRemote, t.latency())
				hops += outcomes[i].hops
			}
			if outcomes[i].replicated {
				replicated++
			}
		case stormSearch:
			searchLat = append(searchLat, t.latency())
		case stormEnd:
			endLat = append(endLat, t.latency())
		}
	}
	if len(fetchRemote) == 0 || len(searchLat) == 0 {
		return setups, fmt.Errorf("paced phase completed %d remote fetches and %d searches", len(fetchRemote), len(searchLat))
	}

	// Saturate phase: closed loop, same mix. A traced run keeps the
	// recorder off for the first half and on for the second.
	var satOpsDone int
	var satWall time.Duration
	cpu0 := cpuTime()
	if rec != nil {
		half := len(satOps) / 2
		t1, w1 := runClosed(half, satDur/2, func(_, i int) { run.exec(satOps[i], nPaced+i, true, false) })
		t2, w2 := runClosed(len(satOps)-half, satDur/2, func(_, i int) {
			run.exec(satOps[half+i], nPaced+half+i, true, sampled(rec, i, stormTraceEach))
		})
		off := float64(countRan(t1)) / w1.Seconds()
		on := float64(countRan(t2)) / w2.Seconds()
		satOpsDone, satWall = countRan(t1)+countRan(t2), w1+w2
		res.layer("bench.trace_overhead_pct", 100*(off-on)/off, "%", satOpsDone)
	} else {
		ts, w := runClosed(len(satOps), satDur, func(_, i int) { run.exec(satOps[i], nPaced+i, true, false) })
		satOpsDone, satWall = countRan(ts), w
		if satOpsDone == len(satOps) {
			res.invalidate("saturate phase ran out of planned ops (%d) before its window closed", len(satOps))
		}
	}

	satCPU := cpuTime() - cpu0

	res.percentile(res.EndToEnd, "resolve_remote_p50_ms", fetchRemote, 0.5, "ms")
	res.percentile(res.EndToEnd, "resolve_p95_ms", fetchAll, 0.95, "ms")
	res.percentile(res.EndToEnd, "search_p50_ms", searchLat, 0.5, "ms")
	res.percentile(res.EndToEnd, "search_p95_ms", searchLat, 0.95, "ms")
	res.e2e("storm_sat_ops_s", float64(satOpsDone)/satWall.Seconds(), "1/s", satOpsDone)
	res.Gate["op_p50_ms"] = res.EndToEnd["resolve_remote_p50_ms"]
	res.Gate["sat_ops_s"] = res.EndToEnd["storm_sat_ops_s"]
	res.Gate["cpu_ms_per_op"] = metric{Value: ms(satCPU) / float64(satOpsDone), Unit: "ms", N: satOpsDone}
	res.Notes = append(res.Notes, "cpu_ms_per_op is taken over the saturate phase")

	remoteShare := float64(len(fetchRemote)) / float64(len(fetchAll))
	res.layer("fabric.resolve_remote_share", remoteShare, "share", len(fetchAll))
	res.layer("fabric.resolve_replicated_share", float64(replicated)/float64(len(fetchAll)), "share", len(fetchAll))
	res.layer("fabric.resolve_hops_mean", float64(hops)/float64(len(fetchRemote)), "hops", len(fetchRemote))
	res.percentile(res.PerLayer, "fabric.migrate_ms_p50", endLat, 0.5, "ms")
	reportPacing(res, paced)
	if run.searchHops.traces > 0 {
		res.percentile(res.PerLayer, "fabric.search_self_ms_p50", run.searchHops.self, 0.5, "ms")
		res.layer("fabric.grafts", float64(run.searchHops.grafts+run.otherHops.grafts), "count", run.searchHops.traces+run.otherHops.traces)
	}
	if !cfg.smoke {
		if remoteShare < 0.25 || remoteShare > 0.60 {
			res.invalidate("fabric.resolve_remote_share %.3f left the 0.25–0.60 band the frozen timetable targets", remoteShare)
		}
	}
	wireLedger(res, wire0, st.host.wire(), res.Attempted, run.fetched)
	run.rp.report(res)
	return setups, nil
}
