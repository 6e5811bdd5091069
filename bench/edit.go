package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/docdb"
	"repro/internal/loadgen"
	"repro/internal/minisql"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/workload"
)

// author-edit: authors working against one standalone durable station
// over TCP. A fixed, seeded plan of checkout/check-in pairs, SQL
// inserts, reads and periodic imports of fresh course editions, with
// the benchmark taking a checkpoint at fixed plan positions — so the
// checkpoint's write-quiescent window lands in the latency tail and
// every byte count repeats exactly.
//
// Frozen load, calibrated once on the defining commit (see README).
const (
	editRate         = 800.0  // ops/s offered in the paced phase (≈ half of saturation)
	editSatRate      = 2800.0 // the saturation throughput the fixed saturate op count is sized from
	editPacedShare   = 0.6    // of -seconds
	editWarmupOps    = 600
	editCkptEvery    = 1000 // plan positions between checkpoints
	editImportEvery  = 2000 // every n-th op imports a fresh course edition
	editPairShare    = 0.35
	editInsertShare  = 0.25 // reads are the remaining 0.40
	editContendShare = 0.10 // of pairs: a second author tries the same component and must lose
	editFetchShare   = 0.30 // of reads: FetchBundle; the rest are point SELECTs
	editTraceEach    = 25
	// editCkptGrace is how long after a checkpoint begins the other
	// client may start its next op: long enough that the op always
	// lands behind the checkpoint's table locks, short against any
	// op's latency. It is what makes snapshot contents — and so
	// write_amp — identical from run to run.
	editCkptGrace = 200 * time.Microsecond
)

type editKind byte

const (
	editPair       editKind = 'P' // CheckOut + CheckIn
	editContended  editKind = 'C' // CheckOut, a losing CheckOut, CheckIn
	editInsertTest editKind = 'T'
	editInsertBug  editKind = 'B'
	editInsertAnn  editKind = 'A'
	editSelect     editKind = 'S'
	editFetch      editKind = 'F'
	editImport     editKind = 'I'
	editCheckpoint editKind = 'K'
)

type editOp struct {
	kind      editKind
	course    int
	compKind  string // checkout ops: the component's kind and id
	compID    string
	stmt      string        // SQL ops
	bundle    *docdb.Bundle // imports
	userBytes int64         // bytes of user data the op submits
}

// editPlanner draws phases of one continuous plan: row names and
// edition numbers keep counting across phases so every insert is
// unique, and the position counter keeps checkpoints and imports on
// their global cadence.
type editPlanner struct {
	rng     *rand.Rand
	pos     int // global plan position
	imports int
	tally   map[editKind]int
}

func newEditPlanner(seed int64) *editPlanner {
	return &editPlanner{rng: planRNG(seed, streamEdit), tally: map[editKind]int{}}
}

const editFiller = "the quick brown fox reviews lecture material and records what the traversal found; "

// phase draws the next n ops of the plan.
func (p *editPlanner) phase(n int) ([]editOp, error) {
	ops := make([]editOp, n)
	for i := range ops {
		mine := p.rng.Intn(corpusCourses)
		script := fmt.Sprintf("course-%03d", mine)
		url := fmt.Sprintf("http://mmu/course-%03d/v1", mine)
		p.pos++
		op := editOp{course: mine}
		u := p.rng.Float64()
		switch {
		case p.pos%editCkptEvery == 0:
			op.kind = editCheckpoint
		case p.pos%editImportEvery == editImportEvery-1:
			p.imports++
			b, err := freshEdition(mine, 1+p.imports)
			if err != nil {
				return nil, err
			}
			op.kind, op.bundle, op.userBytes = editImport, b, b.TotalBytes()
		case u < editPairShare:
			op.kind = editPair
			if p.rng.Float64() < editContendShare {
				op.kind = editContended
			}
			// The component: the course's script or one of its pages.
			// Spreading checkouts over all 132 components keeps each
			// one's ledger history short, so an op costs the same at
			// the end of a run as at its start.
			op.compKind, op.compID = schema.KindScript, script
			if c := p.rng.Intn(coursePages + 1); c < coursePages {
				op.compKind, op.compID = schema.KindHTMLFile, url+"#"+workload.PagePath(c)
			}
			op.userBytes = int64(len(op.compKind) + len(op.compID) + len("author-0") + len("edit"))
		case u < editPairShare+editInsertShare:
			text := strings.Repeat(editFiller, 1+p.rng.Intn(3))
			switch p.rng.Intn(3) {
			case 0:
				op.kind = editInsertTest
				op.stmt = fmt.Sprintf("INSERT INTO test_records (test_name, script_name, starting_url, scope, messages) VALUES ('test-%07d', '%s', '%s', 'local', '%s')", p.pos, script, url, text)
			case 1:
				op.kind = editInsertBug
				op.stmt = fmt.Sprintf("INSERT INTO bug_reports (bug_name, test_name, qa_engineer, description) VALUES ('bug-%07d', 'seed-test-%03d', 'qa-%d', '%s')", p.pos, mine, p.pos%4, text)
			default:
				op.kind = editInsertAnn
				op.stmt = fmt.Sprintf("INSERT INTO annotations (ann_name, script_name, starting_url, author, version) VALUES ('ann-%07d', '%s', '%s', 'author-%d', 1)", p.pos, script, url, p.pos%4)
			}
			op.userBytes = int64(len(op.stmt))
		default:
			op.kind = editSelect
			if p.rng.Float64() < editFetchShare {
				op.kind = editFetch
			}
			op.stmt = fmt.Sprintf("SELECT script_name, author, version FROM scripts WHERE script_name = '%s'", script)
		}
		p.tally[op.kind]++
		ops[i] = op
	}
	return ops, nil
}

// plannedCalls is the number of station RPCs a plan's ops make: two per
// checkout pair, a third for a contended one, one for everything else;
// checkpoints are taken in-process.
func plannedCalls(tally map[editKind]int) int64 {
	calls := 0
	for kind, n := range tally {
		switch kind {
		case editPair:
			calls += 2 * n
		case editContended:
			calls += 3 * n
		case editCheckpoint:
		default:
			calls += n
		}
	}
	return int64(calls)
}

func hashEditPlan(h *planHasher, ops []editOp) {
	for _, op := range ops {
		h.addf("%c %d %s %s %d", op.kind, op.course, op.compID, op.stmt, op.userBytes)
		if op.bundle != nil {
			h.addBundle(op.bundle)
		}
	}
}

// ckptGate orders a phase's checkpoints against the ops around them,
// so that each checkpoint captures exactly the ops planned before it.
// A checkpoint starts only once every earlier op has completed, and an
// op planned after it starts only once the checkpoint has begun (plus
// editCkptGrace) — never held until the checkpoint ends, so whatever
// the checkpoint does not block keeps flowing, and a shorter write-
// quiescent window shows up as a shorter tail.
type ckptGate struct {
	at        []int           // phase indices of checkpoint ops, ascending
	begun     []chan struct{} // per checkpoint: closed once it is under way
	completed atomic.Int64    // ops of the phase finished so far
	// components serializes checkouts of one component: two authors
	// never race for a component by accident, so every conflict in a
	// run is one the plan put there and the commit count is exact.
	components sync.Map // component id -> *sync.Mutex
}

func newCkptGate(ops []editOp) *ckptGate {
	g := &ckptGate{}
	for i, op := range ops {
		if op.kind == editCheckpoint {
			g.at = append(g.at, i)
			g.begun = append(g.begun, make(chan struct{}))
		}
	}
	return g
}

// pass is called by a client about to start op i: it waits until the
// last checkpoint planned before i has begun. Checkpoints begin in
// plan order, so that one covers all the earlier ones.
func (g *ckptGate) pass(i int) {
	if k := sort.SearchInts(g.at, i) - 1; k >= 0 {
		<-g.begun[k]
	}
}

// enter is called by the client that drew checkpoint op i: ops are
// handed out in plan order, so once i ops have completed everything
// planned before the checkpoint is done.
func (g *ckptGate) enter(i int) {
	for g.completed.Load() < int64(i) {
		sleepUntil(time.Now().Add(20 * time.Microsecond))
	}
	k := sort.SearchInts(g.at, i)
	time.AfterFunc(editCkptGrace, func() { close(g.begun[k]) })
}

// component returns the mutex guarding one component's checkouts.
func (g *ckptGate) component(id string) *sync.Mutex {
	mu, _ := g.components.LoadOrStore(id, &sync.Mutex{})
	return mu.(*sync.Mutex)
}

type editState struct {
	node  *station
	srv   *cluster.Node
	addr  string
	conns [clientThreads]*cluster.RemoteStation
	corp  *corpus
}

func (s *editState) close() {
	for _, c := range s.conns {
		if c != nil {
			c.Close()
		}
	}
	s.srv.Close()
	s.node.abandon()
}

// setupEdit opens the standalone durable station, authors the corpus,
// seeds the test records bug reports hang off and connects the two
// clients.
func setupEdit(cfg config, dir string) (*editState, error) {
	node, err := openStation(filepath.Join(dir, "author-station"))
	if err != nil {
		return nil, err
	}
	s := &editState{node: node, srv: cluster.NewNode(1, node.store)}
	if s.corp, err = buildCorpus(node.store, corpusCourses); err != nil {
		return nil, err
	}
	for i, spec := range s.corp.specs {
		err := node.store.RecordTest(docdb.TestRecord{
			Name: fmt.Sprintf("seed-test-%03d", i), ScriptName: spec.ScriptName, StartingURL: spec.URL, Scope: "local",
		})
		if err != nil {
			return nil, err
		}
	}
	if s.addr, err = s.srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for c := range s.conns {
		if s.conns[c], err = cluster.DialStation(s.addr); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// editRun is the state shared by the workload's phases.
type editRun struct {
	st  *editState
	res *result
	rec *recorder
	rp  *replayer
	sql *minisql.Session // scratch session for replays

	// Disk accounting, touched only by whichever client holds a
	// checkpoint (checkpoints never overlap).
	written   int64
	ckptMS    samples
	ckptBytes int64
	liveBytes int64

	failed  [clientThreads][]string
	counted [clientThreads]struct{ attempted, conflicts, pairs int64 }
}

func (r *editRun) failf(client int, format string, args ...any) {
	r.failed[client] = append(r.failed[client], fmt.Sprintf(format, args...))
}

// checkpoint is the benchmark's own count-triggered checkpointer:
// Store.CheckpointNow at a fixed plan position, with the bytes it put
// on disk — the rotated WAL tail and the generation's snapshot, BLOB
// and search files — added to the ledger.
func (r *editRun) checkpoint(client int) {
	store := r.st.node.store
	tail := store.Rel().WALTailBytes()
	t0 := time.Now()
	info, err := store.CheckpointNow()
	d := time.Since(t0)
	if err != nil {
		r.failf(client, "checkpoint: %v", err)
		return
	}
	files := checkpointBytes(r.st.node.dir, info)
	r.written += tail + files
	r.ckptBytes += files
	r.liveBytes += store.Blobs().Stats().PhysicalBytes
	r.ckptMS = append(r.ckptMS, d)
}

// exec performs op i of a phase on its client's connection.
func (r *editRun) exec(gate *ckptGate, ops []editOp, client, i int, traced bool) {
	op := &ops[i]
	conn := r.st.conns[client]
	defer gate.completed.Add(1)
	if op.kind == editCheckpoint {
		gate.enter(i)
		r.checkpoint(client)
		return
	}
	gate.pass(i)
	r.counted[client].attempted++
	script := fmt.Sprintf("course-%03d", op.course)
	url := fmt.Sprintf("http://mmu/course-%03d/v1", op.course)
	user := fmt.Sprintf("author-%d", client)
	var err error
	call := func() {
		switch op.kind {
		case editPair, editContended:
			mu := gate.component(op.compID)
			mu.Lock()
			defer mu.Unlock()
			var id string
			if id, err = conn.CheckOut(op.compKind, op.compID, user); err != nil {
				return
			}
			r.counted[client].pairs++
			if op.kind == editContended {
				_, lost := conn.CheckOut(op.compKind, op.compID, "rival-"+user)
				switch {
				case lost == nil:
					r.failf(client, "two authors hold %s checked out at once", op.compID)
				case !loadgen.IsConflict(lost):
					r.failf(client, "contended checkout of %s: %v", op.compID, lost)
				default:
					r.counted[client].conflicts++
				}
			}
			err = conn.CheckIn(id, "edit")
		case editInsertTest, editInsertBug, editInsertAnn:
			var rep cluster.SQLReply
			if rep, err = conn.SQL(op.stmt); err == nil && rep.Affected != 1 {
				err = fmt.Errorf("insert affected %d rows", rep.Affected)
			}
		case editSelect:
			var rep cluster.SQLReply
			if rep, err = conn.SQL(op.stmt); err == nil && (len(rep.Rows) != 1 || rep.Rows[0][0] != script) {
				err = fmt.Errorf("point select of %s returned %v", script, rep.Rows)
			}
		case editFetch:
			var b *docdb.Bundle
			if b, err = conn.FetchBundle(url); err == nil && len(b.HTML) != coursePages {
				err = fmt.Errorf("bundle of %s carries %d pages", url, len(b.HTML))
			}
		case editImport:
			var rep cluster.ImportReply
			if rep, err = conn.Import(op.bundle, true); err == nil && rep.Form != schema.FormInstance {
				err = fmt.Errorf("import of %s installed a %s", op.bundle.Impl.StartingURL, rep.Form)
			}
		}
	}
	if !traced {
		call()
	} else {
		span := r.rec.root(i, "cluster", "RemoteStation "+string(op.kind), call)
		if err == nil {
			r.replay(span, i, op, script, url)
		}
	}
	if err != nil {
		r.failf(client, "%c %s: %v", op.kind, script, err)
	}
}

// replay runs a traced op's direct docdb equivalent on the scratch
// station as the root span's child; what the root has left over is the
// station RPC's own cost (frame, socket, dispatch, reply).
func (r *editRun) replay(parent, i int, op *editOp, script, url string) {
	rp := r.rp
	scratch := rp.station.store
	switch op.kind {
	case editPair, editContended:
		rp.rec.replay(parent, i, "docdb", "docdb.CheckOut+CheckIn", func() {
			id, err := scratch.CheckOut(op.compKind, op.compID, "replay")
			rp.note(err)
			if err == nil {
				rp.note(scratch.CheckIn(id, "edit"))
			}
		})
	case editInsertTest, editInsertBug, editInsertAnn, editSelect:
		rp.rec.replay(parent, i, "minisql", "minisql.Exec", func() {
			_, err := r.sql.Exec(op.stmt)
			rp.note(err)
		})
	case editFetch:
		var b *docdb.Bundle
		rp.rec.replay(parent, i, "docdb", "docdb.ExportBundle", func() {
			var err error
			b, err = r.st.node.store.ExportBundle(url)
			rp.note(err)
		})
		if b != nil {
			var got docdb.Bundle
			rp.edge(parent, i, *b, &got)
		}
	case editImport:
		var got cluster.ImportRequest
		rp.edge(parent, i, cluster.ImportRequest{Bundle: *op.bundle, Persistent: true}, &got)
		rp.importBundle(parent, i, op.bundle)
	}
}

// prepareReplayScratch gives the scratch station the scaffolding the
// replayed ops reference: every script and implementation as a
// reference, and the seed test records.
func (r *editRun) prepareReplayScratch() error {
	scratch := r.rp.station.store
	for i, b := range r.st.corp.bundles {
		if _, err := scratch.ImportReference(b.Script, b.Impl, 9, 1); err != nil {
			return err
		}
		err := scratch.RecordTest(docdb.TestRecord{
			Name: fmt.Sprintf("seed-test-%03d", i), ScriptName: b.Script.Name, StartingURL: b.Impl.StartingURL, Scope: "local",
		})
		if err != nil {
			return err
		}
	}
	r.sql = minisql.NewSession(scratch.Rel())
	return nil
}

func runAuthorEdit(cfg config, dir string, res *result, rec *recorder) ([]time.Duration, error) {
	st, setups, err := timedSetups(cfg, dir,
		func(d string) (*editState, error) { return setupEdit(cfg, d) },
		(*editState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()

	nPaced := int(editRate * cfg.seconds * editPacedShare)
	nSat := int(editSatRate * cfg.seconds * (1 - editPacedShare))
	warm := editWarmupOps
	if cfg.smoke {
		warm = 60
	}
	planner := newEditPlanner(cfg.seed)
	hash := newPlanHasher("author-edit", cfg.seed)
	for _, b := range st.corp.bundles {
		hash.addBundle(b)
	}
	phases := make([][]editOp, 3)
	for k, n := range []int{warm, nPaced, nSat} {
		if phases[k], err = planner.phase(n); err != nil {
			return nil, err
		}
		hashEditPlan(hash, phases[k])
	}
	warmOps, pacedOps, satOps := phases[0], phases[1], phases[2]
	res.PlanHash = hash.sum()

	run := &editRun{st: st, res: res, rec: rec}
	if rec != nil {
		if run.rp, err = newReplayer(rec, dir); err != nil {
			return nil, err
		}
		defer run.rp.close()
		if err := run.prepareReplayScratch(); err != nil {
			return nil, err
		}
	}
	wire0 := nodeWire(st.srv)
	// The disk ledger covers the session, not the set-up: the WAL bytes
	// the corpus left in the tail are taken off again.
	run.written = -st.node.store.Rel().WALTailBytes()

	gate := newCkptGate(warmOps)
	runClosed(len(warmOps), 0, func(c, i int) { run.exec(gate, warmOps, c, i, false) })

	// Paced phase: open loop at the frozen rate, latency from due time.
	gate = newCkptGate(pacedOps)
	interval := intervalFor(editRate)
	paced := runPaced(nPaced, interval, func(c, i int) {
		run.exec(gate, pacedOps, c, i, sampled(rec, i, editTraceEach))
	})
	var lat samples
	stalled := 0
	for i, t := range paced {
		if pacedOps[i].kind == editCheckpoint {
			continue
		}
		lat = append(lat, t.latency())
	}
	p50 := nearestRank(lat.sorted(), 0.5)
	for _, d := range lat {
		if d > 10*p50 {
			stalled++
		}
	}

	// Saturate phase: closed loop over a fixed op count. A traced run
	// splits it into an untraced and a traced half.
	var satRate float64
	cpu0 := cpuTime()
	satClients := func(ops []editOp, traced bool) float64 {
		g := newCkptGate(ops)
		ts, wall := runClosed(len(ops), 0, func(c, i int) {
			run.exec(g, ops, c, i, traced && sampled(rec, i, editTraceEach))
		})
		return float64(countRan(ts)) / wall.Seconds()
	}
	if rec != nil {
		half := len(satOps) / 2
		off := satClients(satOps[:half], false)
		on := satClients(satOps[half:], true)
		satRate = (off + on) / 2
		res.layer("bench.trace_overhead_pct", 100*(off-on)/off, "%", len(satOps))
	} else {
		satRate = satClients(satOps, false)
	}
	satCPU := cpuTime() - cpu0

	// Close the disk ledger with the live tail, then fold the clients'
	// tallies into the result.
	run.written += st.node.store.Rel().WALTailBytes()
	var userBytes, fetchedBytes, conflicts, pairs int64
	for _, ops := range phases {
		for _, op := range ops {
			userBytes += op.userBytes
			if op.kind == editFetch {
				fetchedBytes += st.corp.bundles[op.course].TotalBytes()
			}
		}
	}
	for c := range run.counted {
		res.Attempted += run.counted[c].attempted
		conflicts += run.counted[c].conflicts
		pairs += run.counted[c].pairs
		for _, f := range run.failed[c] {
			res.fail(1, "client %d: %s", c, f)
		}
	}
	editOracle(st, planner, res)

	res.percentile(res.EndToEnd, "edit_p50_ms", lat, 0.5, "ms")
	res.percentile(res.EndToEnd, "edit_p90_ms", lat, 0.90, "ms")
	res.percentile(res.EndToEnd, "edit_p99_ms", lat, 0.99, "ms")
	res.e2e("edit_sat_ops_s", satRate, "1/s", len(satOps))
	res.e2e("write_amp", float64(run.written)/float64(userBytes), "ratio", int(userBytes))
	res.Gate["op_p50_ms"] = res.EndToEnd["edit_p50_ms"]
	res.Gate["sat_ops_s"] = res.EndToEnd["edit_sat_ops_s"]
	res.Gate["cpu_ms_per_op"] = metric{Value: ms(satCPU) / float64(nSat), Unit: "ms", N: nSat}
	res.Notes = append(res.Notes,
		"cpu_ms_per_op is taken over the saturate phase",
		fmt.Sprintf("%d of %d paced ops (%.1f%%) took more than 10x the median: the checkpoint stall mode", stalled, len(lat), 100*float64(stalled)/float64(len(lat))),
		fmt.Sprintf("disk ledger: %d bytes written for %d user bytes over %d checkpoints", run.written, userBytes, len(run.ckptMS)))

	res.layer("docdb.checkout_conflict_share", float64(conflicts)/float64(pairs), "share", int(pairs))
	if len(run.ckptMS) > 0 {
		res.percentile(res.PerLayer, "docdb.checkpoint_ms_p50", run.ckptMS, 0.5, "ms")
		res.layer("docdb.checkpoint_ms_max", ms(run.ckptMS.sorted()[len(run.ckptMS)-1]), "ms", len(run.ckptMS))
		res.layer("docdb.checkpoint_bytes_per_live_byte", float64(run.ckptBytes)/float64(run.liveBytes), "ratio", len(run.ckptMS))
	}
	reportPacing(res, paced)
	res.layer("blob.sharing_factor", st.node.store.Blobs().Stats().SharingFactor(), "ratio", 0)
	wire1 := nodeWire(st.srv)
	wireLedger(res, wire0, wire1, res.Attempted, userBytes+fetchedBytes)
	res.Attempted++
	if got, want := wire1.calls-wire0.calls, plannedCalls(planner.tally); got != want {
		res.fail(1, "oracle: the station served %d RPCs, the plan makes %d", got, want)
	}
	run.rp.report(res)
	return setups, nil
}

// editOracle checks the station's final state against the plan: every
// table holds exactly the rows the plan put there, every checkout was
// closed, and each component's version history is gapless — one winner
// per checkout, no lost or doubled check-in.
func editOracle(st *editState, p *editPlanner, res *result) {
	store := st.node.store
	pairs := p.tally[editPair] + p.tally[editContended]
	want := map[string]int{
		schema.TableTestRecords: corpusCourses + p.tally[editInsertTest],
		schema.TableBugReports:  p.tally[editInsertBug],
		schema.TableAnnotations: p.tally[editInsertAnn],
		schema.TableCheckouts:   pairs,
		schema.TableVersions:    pairs,
		schema.TableImpls:       corpusCourses + p.tally[editImport],
		schema.TableScripts:     corpusCourses,
	}
	for table, n := range want {
		res.Attempted++
		if got, err := store.Rel().Count(table); err != nil || got != n {
			res.fail(1, "oracle: %s holds %d rows (err %v), the plan wrote %d", table, got, err, n)
		}
	}
	// The ledger: every checkout closed, and per component exactly
	// the versions 1..n for its n checkouts.
	res.Attempted++
	checkouts := map[string]int{}
	versions := map[string][]int64{}
	store.Rel().Scan(schema.TableCheckouts, func(r relstore.Row) bool {
		id, _ := r["object_id"].(string)
		checkouts[id]++
		if _, closed := r["in_time"].(time.Time); !closed {
			res.fail(1, "oracle: %s is still checked out by %v", id, r["user"])
		}
		return true
	})
	store.Rel().Scan(schema.TableVersions, func(r relstore.Row) bool {
		id, _ := r["object_id"].(string)
		v, _ := r["version"].(int64)
		versions[id] = append(versions[id], v)
		return true
	})
	for id, n := range checkouts {
		vs := versions[id]
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		ok := len(vs) == n
		for i := 0; ok && i < n; i++ {
			ok = vs[i] == int64(i+1)
		}
		if !ok {
			res.fail(1, "oracle: %s has versions %v for %d checkouts", id, vs, n)
		}
	}
}
