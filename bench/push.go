package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/docdb"
	"repro/internal/fabric"
	"repro/internal/mtree"
	"repro/internal/obs"
	"repro/internal/schema"
)

// lecture-push: the paper's pre-broadcast. One client at the root, in
// a closed loop, broadcasts a full course down the tree and then ends
// the lecture (migrating the six copies back to references), round-
// robin over the corpus so station state stays bounded.

// pushTraceStride samples every second push of the traced half.
const pushTraceStride = 2

type fabricState struct {
	host   *host
	corpus *corpus
}

func (s *fabricState) close() { s.host.close() }

// setupFabric hosts the durable fabric and authors the corpus on its
// root; announce additionally broadcasts every course as a reference,
// the state a lecture day starts from.
func setupFabric(cfg config, dir string, announce bool) (*fabricState, error) {
	h, err := startHost(dir)
	if err != nil {
		return nil, err
	}
	c, err := buildCorpus(h.root().store, corpusCourses)
	if err != nil {
		h.close()
		return nil, err
	}
	if announce {
		for _, spec := range c.specs {
			res, err := h.admins[0].Broadcast(spec.URL, true)
			if err == nil {
				err = stationErrors(res.Stations, fabricStations-1)
			}
			if err != nil {
				h.close()
				return nil, fmt.Errorf("announcing %s: %w", spec.URL, err)
			}
		}
	}
	return &fabricState{host: h, corpus: c}, nil
}

// stationErrors checks a tree operation's per-station outcomes: want
// stations reported (any number when want is negative — a migration
// only reports the stations that held a copy), none with an error.
func stationErrors(rs []fabric.StationResult, want int) error {
	if want >= 0 && len(rs) != want {
		return fmt.Errorf("%d stations reported, want %d", len(rs), want)
	}
	for _, r := range rs {
		if r.Err != "" {
			return fmt.Errorf("station %d: %s", r.Pos, r.Err)
		}
	}
	return nil
}

func runLecturePush(cfg config, dir string, res *result, rec *recorder) ([]time.Duration, error) {
	st, setups, err := timedSetups(cfg, dir,
		func(d string) (*fabricState, error) { return setupFabric(cfg, d, false) },
		(*fabricState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	root := st.host.admins[0]

	hash := newPlanHasher("lecture-push", cfg.seed)
	for _, b := range st.corpus.bundles {
		hash.addBundle(b)
	}
	// The plan: every round visits each course once, in an order drawn
	// from the seed, so station state stays bounded whatever the order.
	rng := planRNG(cfg.seed, streamPush)
	order := pushOrder(rng, len(st.corpus.specs), 4*len(st.corpus.specs))
	for _, c := range order {
		hash.addf("push %d", c)
	}
	res.PlanHash = hash.sum()
	courseAt := func(i int) int {
		for len(order) <= i {
			order = append(order, pushOrder(rng, len(st.corpus.specs), len(st.corpus.specs))...)
		}
		return order[i]
	}

	var rp *replayer
	if rec != nil {
		if rp, err = newReplayer(rec, dir); err != nil {
			return nil, err
		}
		defer rp.close()
	}

	var (
		pushLat, migrateLat samples
		pushedBytes         int64
		covered, expected   int
		hops                hopStats
	)
	cycle := func(i int, measured, traced bool) {
		course := courseAt(i)
		spec := st.corpus.specs[course]
		var (
			bres fabric.BroadcastResult
			err  error
		)
		t0 := time.Now()
		push := func() { bres, err = root.Broadcast(spec.URL, false) }
		rootSpan := 0
		if traced {
			rootSpan = rec.root(i, "fabric", "Admin.Broadcast", push)
		} else {
			push()
		}
		d := time.Since(t0)
		if measured {
			res.Attempted++
			if err == nil {
				err = stationErrors(bres.Stations, fabricStations-1)
			}
			if err != nil {
				res.fail(1, "broadcast %s: %v", spec.URL, err)
			} else {
				pushLat = append(pushLat, d)
				pushedBytes += bres.Bytes * (fabricStations - 1)
				covered += len(bres.Stations)
			}
			expected += fabricStations - 1
		}
		if traced && err == nil {
			replayPush(rp, rootSpan, i, st, spec.URL)
			hops.collect(rec, rootSpan, i, root, bres.TraceID, "Fabric.Push")
		}

		t1 := time.Now()
		var mres fabric.MigrateReply
		end := func() { mres, err = root.EndLecture(spec.URL) }
		endSpan := 0
		if traced {
			endSpan = rec.root(i, "fabric", "Admin.EndLecture", end)
		} else {
			end()
		}
		d = time.Since(t1)
		if measured {
			res.Attempted++
			if err == nil {
				err = stationErrors(mres.Stations, fabricStations-1)
			}
			if err != nil {
				res.fail(1, "end-lecture %s: %v", spec.URL, err)
			} else {
				migrateLat = append(migrateLat, d)
			}
		}
		if traced && err == nil {
			_, err := rp.station.store.ImportBundle(st.corpus.bundles[course], 9, false)
			rp.note(err)
			rec.replay(endSpan, i, "docdb", "docdb.MigrateToReference", func() {
				rp.note(dropInstance(rp.station.store, spec.URL))
			})
		}
	}

	// Warm-up: one untimed round over the corpus fills connection
	// pools, allocator arenas and every station's scaffolding rows.
	warm := len(st.corpus.specs)
	if cfg.smoke {
		warm = 2
	}
	for i := 0; i < warm; i++ {
		cycle(i, false, false)
	}

	// Measured window. A traced run spends the first half with the
	// recorder off and the second with it on; the throughput difference
	// between the halves is the tracing overhead.
	window := time.Duration(cfg.seconds * float64(time.Second))
	cpu0, t0 := cpuTime(), time.Now()
	i := warm
	var untracedRate float64
	if rec != nil {
		for time.Since(t0) < window/2 {
			cycle(i, true, false)
			i++
		}
		untracedRate = float64(len(pushLat)) / time.Since(t0).Seconds()
		half, n0 := time.Now(), len(pushLat)
		for n := 0; time.Since(t0) < window || n < pushTraceStride; n++ {
			cycle(i, true, sampled(rec, i, pushTraceStride))
			i++
		}
		tracedRate := float64(len(pushLat)-n0) / time.Since(half).Seconds()
		res.layer("bench.trace_overhead_pct", 100*(untracedRate-tracedRate)/untracedRate, "%", len(pushLat))
	} else {
		for time.Since(t0) < window {
			cycle(i, true, false)
			i++
		}
	}
	wall, cpu := time.Since(t0), cpuTime()-cpu0

	pushOracle(st, res)

	n := len(pushLat)
	if n == 0 {
		return setups, fmt.Errorf("no push completed inside the window")
	}
	res.e2e("push_mb_s", float64(pushedBytes)/(1<<20)/wall.Seconds(), "MB/s", n)
	res.percentile(res.EndToEnd, "push_p50_ms", pushLat, 0.5, "ms")
	res.Gate["op_p50_ms"] = res.EndToEnd["push_p50_ms"]
	res.percentile(res.EndToEnd, "push_p95_ms", pushLat, 0.95, "ms")
	res.Gate["sat_ops_s"] = metric{Value: float64(n) / wall.Seconds(), Unit: "1/s", N: n}
	res.Gate["cpu_ms_per_op"] = metric{Value: ms(cpu) / float64(n), Unit: "ms", N: n}

	res.PerLayer["fabric.push_ms_p95"] = res.EndToEnd["push_p95_ms"]
	res.percentile(res.PerLayer, "fabric.migrate_ms_p50", migrateLat, 0.5, "ms")
	res.layer("fabric.coverage_share", float64(covered)/float64(expected), "share", expected)
	hops.report(res)
	rp.report(res)
	return setups, nil
}

// pushOrder draws the course sequence of n pushes: whole rounds, each a
// fresh permutation of the courses.
func pushOrder(rng *rand.Rand, courses, n int) []int {
	var order []int
	for len(order) < n {
		order = append(order, rng.Perm(courses)...)
	}
	return order
}

// replayPush replays one broadcast along its critical path — export at
// the root, then per tree level a marshal, an echo RPC of the frame's
// size, an unmarshal and an import — as children of the op's root
// span. What the root span has left over is the fabric's own time:
// fan-out coordination and waiting for the slowest child.
func replayPush(rp *replayer, parent, op int, st *fabricState, url string) {
	var b *docdb.Bundle
	rp.rec.replay(parent, op, "docdb", "docdb.ExportBundle", func() {
		var err error
		b, err = st.host.root().store.ExportBundle(url)
		rp.note(err)
	})
	if b == nil {
		return
	}
	depth, _ := depthOf(fabricStations)
	for level := 1; level <= depth; level++ {
		var got fabric.PushRequest
		rp.edge(parent, op, fabric.PushRequest{Bundles: []docdb.Bundle{*b}}, &got)
		rp.importBundle(parent, op, b)
	}
}

// hopStats folds the system's own hop trees (fetched through the Trace
// RPC for traced ops) into the fabric's per-hop numbers.
type hopStats struct {
	self      samples
	byDepth   map[int]samples
	straggler samples
	grafts    int
	traces    int
}

// collect fetches one operation's spans from the fabric and records
// the hops of the given method: per-depth durations, the root's self
// time (its span minus its slowest child, the part of a fan-out that
// blocks it) and, per fan-out, the gap between the slowest child and
// the median child.
func (h *hopStats) collect(rec *recorder, parent, op int, admin *fabric.Admin, traceID uint64, method string) {
	if traceID == 0 {
		return
	}
	reply, err := admin.Trace(traceID)
	if err != nil {
		return
	}
	h.traces++
	if h.byDepth == nil {
		h.byDepth = map[int]samples{}
	}
	kids := map[uint64][]obs.Span{}
	for _, sp := range reply.Spans {
		for _, note := range sp.Notes {
			if strings.Contains(note, "grafted") {
				h.grafts++
			}
		}
		if sp.Method != method {
			continue
		}
		kids[sp.Parent] = append(kids[sp.Parent], sp)
		depth, _ := depthOf(sp.Station)
		h.byDepth[depth] = append(h.byDepth[depth], sp.Duration)
		rec.hop(parent, op, fmt.Sprintf("%s at station %d (depth %d)", method, sp.Station, depth), sp.Start, sp.Duration)
	}
	for _, sp := range reply.Spans {
		children := kids[sp.SpanID]
		if len(children) == 0 {
			continue
		}
		ds := make(samples, len(children))
		for i, c := range children {
			ds[i] = c.Duration
		}
		sorted := ds.sorted()
		slowest := sorted[len(sorted)-1]
		if len(children) > 1 {
			h.straggler = append(h.straggler, slowest-nearestRank(sorted, 0.5))
		}
		if sp.Station == 1 {
			h.self = append(h.self, sp.Duration-slowest)
		}
	}
}

func (h *hopStats) report(res *result) {
	if h.traces == 0 {
		return
	}
	res.layerDefault("fabric.push_self_ms_p50", ms(h.self.p50()), "ms", len(h.self))
	for d, s := range h.byDepth {
		res.layerDefault(fmt.Sprintf("fabric.hop_ms_p50.d%d", d), ms(s.p50()), "ms", len(s))
	}
	res.layerDefault("fabric.straggler_gap_ms_p50", ms(h.straggler.p50()), "ms", len(h.straggler))
	res.layerDefault("fabric.grafts", float64(h.grafts), "count", h.traces)
}

// depthOf is a position's level in the fabric's tree (root 0).
func depthOf(pos int) (int, error) { return mtree.Depth(pos, fabricDegree) }

// pushOracle checks delivery: after one more full broadcast of every
// course each station holds the document exactly once, as an instance,
// with the root's page bytes; after the migration each non-root station
// holds it exactly once as a reference with no content left behind.
func pushOracle(st *fabricState, res *result) {
	root := st.host.admins[0]
	rootStore := st.host.root().store
	for _, spec := range st.corpus.specs {
		res.Attempted++
		bres, err := root.Broadcast(spec.URL, false)
		if err == nil {
			err = stationErrors(bres.Stations, fabricStations-1)
		}
		if err != nil {
			res.fail(1, "oracle broadcast %s: %v", spec.URL, err)
			continue
		}
		want, _ := rootStore.HTMLFiles(spec.URL)
		for i, node := range st.host.nodes[1:] {
			if err := holdsOnce(node.store, spec.URL, schema.FormInstance); err != nil {
				res.fail(1, "station %d after push: %v", i+2, err)
				continue
			}
			got, _ := node.store.HTMLFiles(spec.URL)
			if !samePages(want, got) {
				res.fail(1, "station %d holds different page bytes for %s", i+2, spec.URL)
			}
		}
		res.Attempted++
		mres, err := root.EndLecture(spec.URL)
		if err == nil {
			err = stationErrors(mres.Stations, fabricStations-1)
		}
		if err != nil {
			res.fail(1, "oracle end-lecture %s: %v", spec.URL, err)
			continue
		}
		for i, node := range st.host.nodes[1:] {
			if err := holdsOnce(node.store, spec.URL, schema.FormReference); err != nil {
				res.fail(1, "station %d after migrate: %v", i+2, err)
			} else if left, _ := node.store.ResidentBytes(spec.URL); left != 0 {
				res.fail(1, "station %d kept %d content bytes of %s after migrate", i+2, left, spec.URL)
			}
		}
	}
	for i, node := range st.host.nodes[1:] {
		if phys := node.store.Blobs().Stats().PhysicalBytes; phys != 0 {
			res.fail(1, "station %d still holds %d BLOB bytes after every lecture ended", i+2, phys)
		}
	}
}

// holdsOnce checks that a store records exactly one document object
// for the URL, in the wanted form.
func holdsOnce(store *docdb.Store, url, form string) error {
	rows, err := store.Rel().Lookup(schema.TableDocObjects, "starting_url", url)
	if err != nil {
		return err
	}
	if len(rows) != 1 {
		return fmt.Errorf("%d document objects for %s, want exactly 1", len(rows), url)
	}
	if got, _ := rows[0]["form"].(string); got != form {
		return fmt.Errorf("%s is held as %s, want %s", url, got, form)
	}
	return nil
}

func samePages(a, b []docdb.File) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Path != b[i].Path || !bytes.Equal(a[i].Content, b[i].Content) {
			return false
		}
	}
	return true
}
