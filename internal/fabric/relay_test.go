package fabric

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/docdb"
	"repro/internal/netsim"
	"repro/internal/schema"
	"repro/internal/transport"
)

// pushRecorder is a stand-in station that speaks just enough of the
// protocol to sit in the tree: it joins the root like any station and
// answers Fabric.Push by keeping the body exactly as it arrived.
type pushRecorder struct {
	pos int

	mu     sync.Mutex
	bodies [][]byte
}

func (r *pushRecorder) received() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]byte(nil), r.bodies...)
}

func joinRecorder(t *testing.T, root *Station) *pushRecorder {
	t.Helper()
	rec := &pushRecorder{}
	srv := transport.NewServer()
	srv.Handle(methodPush, func(decode func(any) error) (any, error) {
		var body transport.Raw
		if err := decode(&body); err != nil {
			return nil, err
		}
		rec.mu.Lock()
		rec.bodies = append(rec.bodies, body)
		rec.mu.Unlock()
		return PushReply{Results: []StationResult{{Pos: rec.pos, Form: "recorded"}}}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	pool := transport.NewPool(root.Addr(), 1, time.Minute)
	defer pool.Close()
	var reply JoinReply
	if err := pool.Call(methodJoin, JoinRequest{Addr: addr}, &reply); err != nil {
		t.Fatal(err)
	}
	rec.pos = reply.Pos
	return rec
}

func joinStation(t *testing.T, root *Station) *Station {
	t.Helper()
	st, err := Join(newTestStore(t), "127.0.0.1:0", root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// broadcastResult is what broadcastAsync delivers.
type broadcastResult struct {
	res *BroadcastResult
	err error
}

// broadcastAsync runs a full broadcast off the test goroutine, for
// tests that must act while it is in flight.
func broadcastAsync(root *Station, url string) <-chan broadcastResult {
	done := make(chan broadcastResult, 1)
	go func() {
		res, err := root.Broadcast(url, false)
		done <- broadcastResult{res, err}
	}()
	return done
}

func holdsInstance(st *Station, url string) bool {
	obj, err := st.Store().ObjectByURL(url)
	return err == nil && obj.Form == schema.FormInstance
}

// TestBroadcastEncodesOnceAndRelaysVerbatim puts recorders at depth 1
// (position 3, fed by the root) and depth 2 (position 5, fed by the
// real station 2) of a 7-station m=3 tree. One broadcast must cost one
// PushRequest encode in the whole process — every station lives in it
// — and the depth-2 recorder must hold, byte for byte, what the root
// put on the wire.
func TestBroadcastEncodesOnceAndRelaysVerbatim(t *testing.T) {
	root, err := NewRoot(newTestStore(t), "127.0.0.1:0", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	relay := joinStation(t, root)   // 2: children 5, 6, 7
	depth1 := joinRecorder(t, root) // 3
	leaf4 := joinStation(t, root)   // 4
	depth2 := joinRecorder(t, root) // 5
	leaf6 := joinStation(t, root)   // 6
	leaf7 := joinStation(t, root)   // 7
	if depth1.pos != 3 || depth2.pos != 5 || leaf7.Pos() != 7 {
		t.Fatalf("positions: recorders at %d and %d, last station at %d", depth1.pos, depth2.pos, leaf7.Pos())
	}
	spec := authorCourse(t, root, 1)

	before := pushEncodes.Load()
	res, err := root.Broadcast(spec.URL, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := pushEncodes.Load() - before; got != 1 {
		t.Errorf("a 7-station broadcast encoded its push %d times, want exactly 1", got)
	}
	for _, sr := range res.Stations {
		if sr.Err != "" {
			t.Errorf("station %d: %s", sr.Pos, sr.Err)
		}
	}
	for _, st := range []*Station{relay, leaf4, leaf6, leaf7} {
		if !holdsInstance(st, spec.URL) {
			t.Errorf("station %d holds no instance after the broadcast", st.Pos())
		}
	}

	sent, relayed := depth1.received(), depth2.received()
	if len(sent) != 1 || len(relayed) != 1 {
		t.Fatalf("recorders saw %d and %d pushes, want one each", len(sent), len(relayed))
	}
	if len(sent[0]) == 0 || !bytes.Equal(relayed[0], sent[0]) {
		t.Fatalf("depth-2 body (%d bytes) differs from what the root sent (%d bytes)", len(relayed[0]), len(sent[0]))
	}
	var req PushRequest
	if err := req.DecodeWire(relayed[0]); err != nil || len(req.Bundles) != 1 || req.Bundles[0].Impl.StartingURL != spec.URL {
		t.Fatalf("relayed body does not decode to the broadcast: %+v, %v", req, err)
	}

	// A relay never needs to understand what it forwards: cut the last
	// byte off the body and hand it to station 2 as its parent would.
	// Its own install fails, the real leaves' installs fail, and the
	// depth-2 recorder still receives exactly the bytes station 2 got.
	torn := transport.Raw(sent[0][:len(sent[0])-1])
	pool := transport.NewPool(relay.Addr(), 1, time.Minute)
	defer pool.Close()
	var reply PushReply
	if err := pool.Call(methodPush, torn, &reply); err != nil {
		t.Fatal(err)
	}
	if relayed = depth2.received(); len(relayed) != 2 || !bytes.Equal(relayed[1], torn) {
		t.Fatalf("undecodable body was not relayed verbatim (%d pushes recorded)", len(relayed))
	}
	byPos := map[int]StationResult{}
	for _, sr := range reply.Results {
		byPos[sr.Pos] = sr
	}
	for _, pos := range []int{2, 6, 7} {
		if !strings.Contains(byPos[pos].Err, ErrBadBody.Error()) {
			t.Errorf("station %d installed an undecodable body: %+v", pos, byPos[pos])
		}
	}
	if byPos[5].Form != "recorded" || len(reply.Results) != 4 {
		t.Errorf("results for the torn push = %+v", reply.Results)
	}
	if got := pushEncodes.Load() - before; got != 1 {
		t.Errorf("relaying re-encoded the push (%d encodes in total)", got)
	}
}

// TestRelayForwardsBeforeItsOwnImportCompletes latches station 2's
// install (the test holds its importMu) during a broadcast: its
// children 5, 6 and 7 must install anyway. A relay that imported
// before forwarding would leave them waiting on the latch.
func TestRelayForwardsBeforeItsOwnImportCompletes(t *testing.T) {
	stations := newFabric(t, 7, 3, 0)
	root, relay := stations[0], stations[1]
	spec := authorCourse(t, root, 1)

	relay.importMu.Lock()
	latched := true
	release := func() {
		if latched {
			latched = false
			relay.importMu.Unlock()
		}
	}
	defer release()

	done := broadcastAsync(root, spec.URL)

	eventually(t, 20*time.Second, "station 2's children to install while its own import is latched", func() bool {
		return holdsInstance(stations[4], spec.URL) && holdsInstance(stations[5], spec.URL) && holdsInstance(stations[6], spec.URL)
	})
	if holdsInstance(relay, spec.URL) {
		t.Fatal("the latched station installed")
	}
	select {
	case <-done:
		t.Fatal("the broadcast returned before station 2 installed: a relay must join its import before replying")
	default:
	}

	release()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if len(out.res.Stations) != 6 {
		t.Fatalf("results = %+v", out.res.Stations)
	}
	for _, sr := range out.res.Stations {
		if sr.Err != "" || sr.Form != schema.FormInstance {
			t.Errorf("station %d: %+v", sr.Pos, sr)
		}
	}
	if !holdsInstance(relay, spec.URL) {
		t.Error("station 2 holds no instance after the latch opened")
	}
}

// TestRelayKilledMidBroadcastGraftsToTheSameEndState kills station 2
// at the worst moment the new ordering allows: after it forwarded the
// push to its children, before it replied. The root grafts and
// delivers to 5, 6 and 7 a second time; the second delivery is a no-op
// on the already-resident instance, so the per-station results are
// what a graft around a station that was dead all along reports, and
// the live stations end where the simulator says a broadcast around a
// dead station 2 ends.
func TestRelayKilledMidBroadcastGraftsToTheSameEndState(t *testing.T) {
	const n, m, watermark = 7, 3, 0
	spec := smallCourse(1)

	sim, err := cluster.New(cluster.Config{
		Stations: n, M: m, UplinkBps: 1.25e6, Latency: 5 * time.Millisecond,
		Watermark: watermark, Mode: netsim.Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.AuthorCourse(spec); err != nil {
		t.Fatal(err)
	}
	if err := sim.MarkDown(2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.PreBroadcast(spec.URL); err != nil {
		t.Fatal(err)
	}

	stations := newFabric(t, n, m, watermark)
	root, relay := stations[0], stations[1]
	authorCourse(t, root, 1)

	// The latch keeps station 2 inside its handler — children served,
	// reply not yet sent — until the test has killed it.
	relay.importMu.Lock()
	defer relay.importMu.Unlock()
	done := broadcastAsync(root, spec.URL)
	eventually(t, 20*time.Second, "station 2 to forward to its children", func() bool {
		return holdsInstance(stations[4], spec.URL) && holdsInstance(stations[5], spec.URL) && holdsInstance(stations[6], spec.URL)
	})
	relay.Close()

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	seen := map[int]int{}
	for _, sr := range out.res.Stations {
		seen[sr.Pos]++
		switch {
		case sr.Pos == 2:
			if sr.Err == "" {
				t.Errorf("killed station 2 reported success: %+v", sr)
			}
		case sr.Err != "" || sr.Form != schema.FormInstance:
			t.Errorf("station %d after the graft: %+v", sr.Pos, sr)
		}
	}
	for pos := 2; pos <= n; pos++ {
		if seen[pos] != 1 {
			t.Errorf("station %d reported %d times, want once", pos, seen[pos])
		}
	}

	simUsage := sim.DiskUsage()
	for pos := 1; pos <= n; pos++ {
		if pos == 2 {
			continue // dead in both runs
		}
		live := stations[pos-1].Store()
		simSt, err := sim.Station(pos)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := live.Blobs().Stats().PhysicalBytes, simUsage[pos-1]; got != want {
			t.Errorf("station %d: physical bytes fabric=%d sim=%d (a double delivery must not double the media)", pos, got, want)
		}
		liveObj, liveErr := live.ObjectByURL(spec.URL)
		simObj, simErr := simSt.Store.ObjectByURL(spec.URL)
		if liveErr != nil || simErr != nil || liveObj.Form != simObj.Form {
			t.Errorf("station %d: fabric=%+v (%v) sim=%+v (%v)", pos, liveObj, liveErr, simObj, simErr)
		}
	}
}

// TestResolveNeverServesHalfMigratedBundle is the regression test for
// the resolve-vs-migrate race: on a 1→2→3 chain the root keeps
// broadcasting a document and ending its lecture while station 3 keeps
// asking its parent for it. Station 2 answers from its own instance
// when it has one and relays to the root when it does not; either way
// every bundle served must be whole.
func TestResolveNeverServesHalfMigratedBundle(t *testing.T) {
	stations := newFabric(t, 3, 1, -1)
	root, asker := stations[0], stations[2]
	spec := authorCourse(t, root, 1)
	whole, err := root.Store().ExportBundle(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole.Media) == 0 || len(whole.HTML) == 0 {
		t.Fatalf("test course has %d media and %d pages", len(whole.Media), len(whole.HTML))
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		defer close(stop)
		for i := 0; i < 40; i++ {
			if _, err := root.Broadcast(spec.URL, false); err != nil {
				t.Errorf("broadcast %d: %v", i, err)
				return
			}
			if _, err := root.EndLecture(spec.URL); err != nil {
				t.Errorf("end-lecture %d: %v", i, err)
				return
			}
		}
	}()

	served := map[int]int{}
	for running := true; running; {
		select {
		case <-stop:
			running = false
		default:
		}
		var reply ResolveReply
		if err := asker.resolveViaAncestors(spec.URL, 4, nil, &reply); err != nil {
			t.Fatalf("resolve during migrate churn: %v", err)
		}
		served[reply.ServedBy]++
		b := &reply.Bundle
		if len(b.Media) != len(whole.Media) || len(b.HTML) != len(whole.HTML) || len(b.Programs) != len(whole.Programs) {
			t.Fatalf("station %d served a half-dropped bundle: %d/%d media, %d/%d pages, %d/%d programs",
				reply.ServedBy, len(b.Media), len(whole.Media), len(b.HTML), len(whole.HTML), len(b.Programs), len(whole.Programs))
		}
		for i, m := range b.Media {
			if !bytes.Equal(m.Data, whole.Media[i].Data) {
				t.Fatalf("station %d served media %s with the wrong bytes", reply.ServedBy, m.Name)
			}
		}
	}
	churn.Wait()
	t.Logf("bundles served by station: %v", served)
}

// TestBroadcastHashesNothing is the exact count behind hashing once, at
// the root: the root hashed every medium when it was authored, a push
// names each medium by that hash, and no station — root, relay or leaf
// — runs SHA-256 over a byte of it during the broadcast.
func TestBroadcastHashesNothing(t *testing.T) {
	stations := newFabric(t, 3, 2, 1)
	spec := authorCourse(t, stations[0], 1)
	before := make([]int64, len(stations))
	for i, st := range stations {
		before[i] = st.Store().Blobs().Stats().HashedBytes
	}
	if before[0] == 0 {
		t.Fatal("authoring the course hashed nothing at the root")
	}
	res, err := stations[0].Broadcast(spec.URL, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.Stations {
		if sr.Err != "" {
			t.Errorf("station %d: %s", sr.Pos, sr.Err)
		}
	}
	for i, st := range stations {
		if !holdsInstance(st, spec.URL) {
			t.Errorf("station %d holds no instance after the broadcast", st.Pos())
		}
		if after := st.Store().Blobs().Stats().HashedBytes; after != before[i] {
			t.Errorf("station %d hashed %d bytes during the broadcast, want 0", st.Pos(), after-before[i])
		}
	}
}

// TestRelayedForgeryIsCaughtAtFirstRead follows a medium whose carried
// hash does not match its bytes down the tree to where the trust rule
// says it is caught. A relay and a durable leaf below it adopt it as
// sent — between stations only the frame's CRC32C is checked. The
// leaf's next restart succeeds without hashing any medium, and the
// first read of the forged one hashes it: the export of its course
// fails with blob.ErrHashMismatch naming its hash.
func TestRelayedForgeryIsCaughtAtFirstRead(t *testing.T) {
	root, err := NewRoot(newTestStore(t), "127.0.0.1:0", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	relay := joinStation(t, root) // 2: children 4, 5
	joinStation(t, root)          // 3
	dir := t.TempDir()
	durable := newTestStore(t)
	if _, err := durable.Recover(dir); err != nil {
		t.Fatal(err)
	}
	leaf, err := Join(durable, "127.0.0.1:0", root.Addr()) // 4
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leaf.Close() })
	if leaf.Pos() != 4 {
		t.Fatalf("durable station joined at %d, want 4", leaf.Pos())
	}

	spec := authorCourse(t, root, 1)
	forged, err := root.Store().ExportBundle(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	m := &forged.Media[0]
	m.Data = bytes.Clone(m.Data)
	m.Data[0] ^= 0xFF
	root.mu.Lock()
	push := PushRequest{Bundles: []docdb.Bundle{*forged}, Topology: root.topologyLocked()}
	root.mu.Unlock()

	// Hand the forged body to the relay as its parent would.
	pool := transport.NewPool(relay.Addr(), 1, time.Minute)
	defer pool.Close()
	var reply PushReply
	if err := pool.Call(methodPush, push, &reply); err != nil {
		t.Fatal(err)
	}
	installed := map[int]bool{}
	for _, sr := range reply.Results {
		if sr.Err != "" {
			t.Fatalf("station %d refused the relayed bundle: %s", sr.Pos, sr.Err)
		}
		installed[sr.Pos] = sr.Form == schema.FormInstance
	}
	if !installed[2] || !installed[4] {
		t.Fatalf("relay results %+v: want instances at 2 and 4", reply.Results)
	}
	if !durable.Blobs().Has(blob.Ref{Hash: m.Hash}) {
		t.Fatalf("the durable station did not adopt the medium under its carried hash %.12s", m.Hash)
	}
	if _, err := durable.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	leaf.Close()
	durable.Rel().CloseWAL()

	restarted := newTestStore(t)
	if _, err := restarted.Recover(dir); err != nil {
		t.Fatalf("restart after adopting a forged medium: %v", err)
	}
	defer restarted.Rel().CloseWAL()
	if st := restarted.Blobs().Stats(); st.HashedBytes != 0 || st.Unverified != st.Objects {
		t.Fatalf("the restart hashed media: %+v", st)
	}
	if _, err := restarted.ExportBundle(spec.URL); !errors.Is(err, blob.ErrHashMismatch) || !strings.Contains(err.Error(), m.Hash) {
		t.Fatalf("export of the forged course after the restart: err = %v, want blob.ErrHashMismatch naming %s", err, m.Hash)
	}
	if st := restarted.Blobs().Stats(); st.VerifyFailures != 1 {
		t.Fatalf("after the export: %+v, want one verify failure", st)
	}
}
