package fabric

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/schema"
	"repro/internal/transport"
)

// probeUntilDown sweeps the root's heartbeat until the given positions
// are declared dead (hbFailThreshold consecutive failures per
// station).
func probeUntilDown(t *testing.T, root *Station, positions ...int) {
	t.Helper()
	eventually(t, 30*time.Second, "root to declare stations dead", func() bool {
		root.ProbeOnce(200 * time.Millisecond)
		for _, pos := range positions {
			if !root.Down(pos) {
				return false
			}
		}
		return true
	})
}

// unresponsiveAddr returns the address of a listening socket whose
// accept queue is full and never drained: a connect to it neither
// succeeds nor fails but hangs until the dialer gives up — a host that
// stopped answering. Linux only: there a listen backlog of 0 queues
// exactly one connection, which the helper makes, and later SYNs are
// dropped.
func unresponsiveAddr(t *testing.T) string {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("needs Linux accept-queue behaviour: a backlog-0 listener with one queued connection drops later SYNs, so a dial hangs")
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	filler, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { filler.Close() })
	return addr
}

// TestProbeTimeoutBoundsTheDial: a joined station whose host stopped
// answering costs a heartbeat sweep the probe timeout, dial included,
// and counts as one failed probe.
func TestProbeTimeoutBoundsTheDial(t *testing.T) {
	stations := newFabric(t, 3, 2, 0)
	root := stations[0]
	addr := unresponsiveAddr(t)
	// Join the address by hand: nothing listens behind it to do so.
	join := transport.NewPool(root.Addr(), 1, 5*time.Second)
	defer join.Close()
	var reply JoinReply
	if err := join.Call(methodJoin, JoinRequest{Addr: addr}, &reply); err != nil || reply.Pos != 4 {
		t.Fatalf("joining %s: %+v, %v", addr, reply, err)
	}
	done := make(chan struct{})
	start := time.Now()
	go func() {
		root.ProbeOnce(200 * time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("a 200ms sweep over an unresponsive station took %v", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a 200ms sweep over an unresponsive station had not returned after 5s")
	}
	root.mu.Lock()
	fails := root.hbFails[4]
	root.mu.Unlock()
	if fails != 1 {
		t.Errorf("failed probes of station 4 = %d, want 1", fails)
	}
}

func TestHeartbeatDeclaresDeadStationAndRevives(t *testing.T) {
	stations := newFabric(t, 5, 2, 1)
	root := stations[0]
	epoch0 := root.Epoch()

	// A healthy sweep changes nothing.
	root.ProbeOnce(time.Second)
	if root.Epoch() != epoch0 {
		t.Fatalf("healthy sweep bumped epoch %d -> %d", epoch0, root.Epoch())
	}

	// Kill station 3; consecutive failed probes declare it dead and
	// bump the epoch.
	stations[2].Close()
	probeUntilDown(t, root, 3)
	if root.Epoch() <= epoch0 {
		t.Errorf("declaring a death did not advance the epoch (%d)", root.Epoch())
	}

	// The topology now reports the down-set.
	admin := DialAdmin(root.Addr())
	defer admin.Close()
	top, err := admin.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if !top.Down[3] {
		t.Errorf("topology down-set = %v, want station 3 dead", top.Down)
	}

	// The station restarts on its old address (in-process stand-in for
	// a daemon restart); probes revive it without an explicit rejoin.
	st, err := Rejoin(newTestStore(t), stations[2].Addr(), root.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if st.Pos() != 3 {
		t.Fatalf("rejoined at position %d, want 3", st.Pos())
	}
	if root.Down(3) {
		t.Error("station still marked down after rejoin")
	}
}

func TestHeartbeatHonorsLivenessCheck(t *testing.T) {
	stations := newFabric(t, 3, 2, 1)
	root := stations[0]
	// Station 2 is reachable but declares itself unhealthy: the root
	// must treat it like a dead station.
	stations[1].Node().SetLivenessCheck(func() error { return errors.New("wal stalled") })
	probeUntilDown(t, root, 2)

	// The check clears; probes revive the station.
	stations[1].Node().SetLivenessCheck(nil)
	eventually(t, 30*time.Second, "root to revive the station", func() bool {
		root.ProbeOnce(time.Second)
		return !root.Down(2)
	})
}

func TestEvictAndHealthVerbs(t *testing.T) {
	stations := newFabric(t, 5, 2, 1)
	admin := DialAdmin(stations[0].Addr())
	defer admin.Close()

	health, err := admin.Health()
	if err != nil {
		t.Fatal(err)
	}
	if !health.IsRoot || health.N != 5 || len(health.Down) != 0 {
		t.Fatalf("healthy fabric health = %+v", health)
	}

	health, err = admin.Evict(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(health.Down) != 1 || health.Down[0] != 4 {
		t.Fatalf("health after evict = %+v", health)
	}
	if !stations[0].Down(4) {
		t.Error("evict did not mark the station down on the root")
	}
	// Evicting the root is refused.
	if _, err := admin.Evict(1); err == nil {
		t.Error("evicting the root succeeded")
	}
}

func TestBroadcastGraftsAroundDeadStation(t *testing.T) {
	stations := newFabric(t, 5, 2, 0)
	spec := authorCourse(t, stations[0], 1)
	// Station 2 dies without the root knowing: the broadcast discovers
	// it in-flight, reports it, and still reaches its children 4 and 5
	// by grafting them onto the root.
	stations[1].Close()
	res, err := stations[0].Broadcast(spec.URL, false)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]StationResult{}
	for _, sr := range res.Stations {
		got[sr.Pos] = sr
	}
	if got[2].Err == "" {
		t.Errorf("dead station 2 not reported: %+v", got[2])
	}
	for _, pos := range []int{3, 4, 5} {
		if got[pos].Err != "" || got[pos].Form != schema.FormInstance {
			t.Errorf("station %d: %+v", pos, got[pos])
		}
	}
	for _, idx := range []int{2, 3, 4} {
		if stations[idx].Store().Blobs().Stats().PhysicalBytes == 0 {
			t.Errorf("station %d holds no bytes after grafted broadcast", idx+1)
		}
	}
	// The in-flight discovery escalates to the root's roster.
	eventually(t, 30*time.Second, "root to confirm the death", func() bool {
		return stations[0].Down(2)
	})
}

func TestRefutedSuspicionClearsOnNextSnapshot(t *testing.T) {
	stations := newFabric(t, 5, 2, 0)
	root := stations[0]
	spec := authorCourse(t, root, 1)
	// First broadcast synchronizes every station onto the root's
	// current epoch.
	if _, err := root.Broadcast(spec.URL, false); err != nil {
		t.Fatal(err)
	}
	// Station 2 wrongly suspects its healthy child 4 (a transient
	// network blip it observed and the root refuted — no epoch bump).
	relay := stations[1]
	relay.mu.Lock()
	relay.suspect[4] = true
	relay.mu.Unlock()
	// The next broadcast rides on the same epoch; the push must clear
	// the stale suspicion so station 4 is delivered to, not shunned.
	spec2 := authorCourse(t, root, 2)
	res, err := root.Broadcast(spec2.URL, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.Stations {
		if sr.Pos == 4 && (sr.Err != "" || sr.Form != schema.FormInstance) {
			t.Errorf("station 4 after refuted suspicion: %+v", sr)
		}
	}
	relay.mu.Lock()
	stillSuspect := relay.suspect[4]
	relay.mu.Unlock()
	if stillSuspect {
		t.Error("refuted suspicion survived a same-epoch snapshot")
	}
	obj, err := stations[3].Store().ObjectByURL(spec2.URL)
	if err != nil || obj.Form != schema.FormInstance {
		t.Errorf("station 4 store after broadcast: %+v (err=%v)", obj, err)
	}
}

func TestResolveSkipsDeadAncestor(t *testing.T) {
	stations := newFabric(t, 5, 2, 0)
	spec := authorCourse(t, stations[0], 1)
	// Station 5's parent route is 5 -> 2 -> 1; with 2 dead the resolve
	// must skip to the root instead of erroring.
	stations[1].Close()
	res, err := stations[4].Resolve(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedBy != 1 || !res.Replicated {
		t.Errorf("resolve across dead parent = %+v", res)
	}
}

func TestRejoinCatchesUpOnMissedBroadcasts(t *testing.T) {
	stations := newFabric(t, 5, 2, 0)
	root := stations[0]
	specA := authorCourse(t, root, 1)
	specB := authorCourse(t, root, 2)

	// Station 3 dies; two broadcasts and a migration happen while it
	// is dark.
	stations[2].Close()
	if _, err := root.Broadcast(specA.URL, false); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Broadcast(specB.URL, false); err != nil {
		t.Fatal(err)
	}
	if _, err := root.EndLecture(specB.URL); err != nil {
		t.Fatal(err)
	}
	probeUntilDown(t, root, 3)

	// The station restarts on a fresh socket, reclaims position 3, and
	// catches up: specA (still a live broadcast) re-materializes from
	// the root's state stream, specB (migrated) comes back as a
	// reference.
	st, err := Rejoin(newTestStore(t), "127.0.0.1:0", root.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if st.Pos() != 3 {
		t.Fatalf("rejoined at position %d, want 3", st.Pos())
	}
	res, err := st.CatchUp()
	if err != nil {
		t.Fatal(err)
	}
	if res.References != 2 {
		t.Errorf("catch-up imported %d references, want 2", res.References)
	}
	if len(res.Resolved) != 1 || !res.Resolved[0].Replicated {
		t.Errorf("catch-up resolved = %+v", res.Resolved)
	}
	objA, err := st.Store().ObjectByURL(specA.URL)
	if err != nil || objA.Form != schema.FormInstance {
		t.Errorf("specA after catch-up: %+v (err=%v)", objA, err)
	}
	objB, err := st.Store().ObjectByURL(specB.URL)
	if err != nil || objB.Form != schema.FormReference {
		t.Errorf("specB after catch-up: %+v (err=%v)", objB, err)
	}
	if st.Store().Blobs().Stats().PhysicalBytes == 0 {
		t.Error("catch-up under watermark 0 materialized no bytes")
	}
}

func TestRejoinBeforeFailureDetectorNotices(t *testing.T) {
	stations := newFabric(t, 5, 2, 0)
	root := stations[0]
	spec := authorCourse(t, root, 1)
	if _, err := root.Broadcast(spec.URL, false); err != nil {
		t.Fatal(err)
	}
	// Station 4 crashes and a supervisor restarts it immediately — the
	// root has not declared it dead yet. The rejoin must still reclaim
	// position 4: the root confirms the old address is gone with a
	// probe of its own.
	stations[3].Close()
	if root.Down(4) {
		t.Fatal("test premise broken: root already declared the crash")
	}
	st, err := Rejoin(newTestStore(t), "127.0.0.1:0", root.Addr(), 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if st.Pos() != 4 {
		t.Fatalf("fast rejoin landed at position %d, want 4", st.Pos())
	}
	if _, err := st.CatchUp(); err != nil {
		t.Fatal(err)
	}
	obj, err := st.Store().ObjectByURL(spec.URL)
	if err != nil || obj.Form != schema.FormInstance {
		t.Errorf("object after fast rejoin catch-up: %+v (err=%v)", obj, err)
	}
}

func TestCatchUpReclaimsInstanceFromMissedMigration(t *testing.T) {
	stations := newFabric(t, 5, 2, 0)
	root := stations[0]
	spec := authorCourse(t, root, 1)
	if _, err := root.Broadcast(spec.URL, false); err != nil {
		t.Fatal(err)
	}
	// Station 3 crashes holding its instance, then the tree migrates
	// the document back to references; station 3 is the dead hop the
	// migration reports but cannot reach.
	durable := stations[2].Store() // stands in for the WAL-restored state
	stations[2].Close()
	probeUntilDown(t, root, 3)
	if _, err := root.EndLecture(spec.URL); err != nil {
		t.Fatal(err)
	}
	if durable.Blobs().Stats().PhysicalBytes == 0 {
		t.Fatal("test premise broken: the dead station lost its bytes without a catch-up")
	}

	// The station rejoins with its durable store intact: catch-up must
	// reclaim the straggler instance the migration missed.
	st, err := Rejoin(durable, "127.0.0.1:0", root.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	res, err := st.CatchUp()
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrated != 1 {
		t.Errorf("catch-up migrated %d stragglers, want 1", res.Migrated)
	}
	obj, err := durable.ObjectByURL(spec.URL)
	if err != nil || obj.Form != schema.FormReference {
		t.Errorf("object after reclaimed migration: %+v (err=%v)", obj, err)
	}
	if phys := durable.Blobs().Stats().PhysicalBytes; phys != 0 {
		t.Errorf("%d physical bytes survive the reclaimed migration", phys)
	}
}

func TestCatchUpDefersBytesAboveWatermark(t *testing.T) {
	stations := newFabric(t, 3, 2, 2)
	root := stations[0]
	spec := authorCourse(t, root, 1)
	stations[2].Close()
	if _, err := root.Broadcast(spec.URL, false); err != nil {
		t.Fatal(err)
	}
	probeUntilDown(t, root, 3)
	st, err := Rejoin(newTestStore(t), "127.0.0.1:0", root.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	res, err := st.CatchUp()
	if err != nil {
		t.Fatal(err)
	}
	// Watermark 2: the catch-up pull stays below it, so the station
	// holds the reference and no media bytes until demand crosses it.
	if len(res.Resolved) != 1 || res.Resolved[0].Replicated {
		t.Errorf("catch-up resolved = %+v", res.Resolved)
	}
	obj, err := st.Store().ObjectByURL(spec.URL)
	if err != nil || obj.Form != schema.FormReference {
		t.Errorf("object after deferred catch-up: %+v (err=%v)", obj, err)
	}
	if phys := st.Store().Blobs().Stats().PhysicalBytes; phys != 0 {
		t.Errorf("deferred catch-up materialized %d bytes", phys)
	}
}

// catchUpInOneStream runs st's catch-up and checks what it cost the
// fabric: exactly one Catalog and one State call served by the root,
// and no Resolve served by any station, read from the per-method
// counters every station's transport keeps.
func catchUpInOneStream(t *testing.T, st *Station, stations []*Station) *CatchUpResult {
	t.Helper()
	all := append([]*Station{st}, stations...)
	before := make([]map[string]int64, len(all))
	for i, s := range all {
		before[i] = s.Node().StatsNow().Ops
	}
	res, err := st.CatchUp()
	if err != nil {
		t.Fatal(err)
	}
	resolves := int64(0)
	for i, s := range all {
		after := s.Node().StatsNow().Ops
		resolves += after[methodResolve] - before[i][methodResolve]
		if s == stations[0] {
			for _, method := range []string{methodCatalog, methodState} {
				if n := after[method] - before[i][method]; n != 1 {
					t.Errorf("catch-up made %d %s calls to the root, want 1", n, method)
				}
			}
		}
	}
	if resolves != 0 {
		t.Errorf("catch-up made stations serve %d resolves, want 0", resolves)
	}
	if res.StreamedBytes == 0 {
		t.Errorf("catch-up streamed no bytes: %+v", res)
	}
	return res
}

// TestCatchUpIsOneStreamWhateverTheCount: however many documents a
// rejoiner missed, catching up costs the root one Catalog and one
// State call, and no station a resolve.
func TestCatchUpIsOneStreamWhateverTheCount(t *testing.T) {
	for _, missed := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("missed=%d", missed), func(t *testing.T) {
			stations := newFabric(t, 3, 2, 0)
			root := stations[0]
			stations[2].Close()
			for i := 1; i <= missed; i++ {
				if _, err := root.Broadcast(authorCourse(t, root, i).URL, false); err != nil {
					t.Fatal(err)
				}
			}
			probeUntilDown(t, root, 3)
			st, err := Rejoin(newTestStore(t), "127.0.0.1:0", root.Addr(), 3)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			res := catchUpInOneStream(t, st, stations)
			if res.References != missed || len(res.Resolved) != missed {
				t.Errorf("catch-up of %d documents = %+v", missed, res)
			}
		})
	}
}

// TestCatchUpRepullsHeldReference: a station whose durable store holds
// a reference from a reference broadcast is dark while the same URL is
// broadcast in full. Catch-up re-pulls it through the state stream
// under the watermark policy, and installs no new scaffold.
func TestCatchUpRepullsHeldReference(t *testing.T) {
	for _, watermark := range []int{0, 1} {
		t.Run(fmt.Sprintf("watermark=%d", watermark), func(t *testing.T) {
			stations := newFabric(t, 3, 2, watermark)
			root := stations[0]
			spec := authorCourse(t, root, 1)
			if _, err := root.Broadcast(spec.URL, true); err != nil {
				t.Fatal(err)
			}
			durable := stations[2].Store() // stands in for the WAL-restored state
			stations[2].Close()
			if _, err := root.Broadcast(spec.URL, false); err != nil {
				t.Fatal(err)
			}
			probeUntilDown(t, root, 3)
			st, err := Rejoin(durable, "127.0.0.1:0", root.Addr(), 3)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			res := catchUpInOneStream(t, st, stations)
			if res.References != 0 {
				t.Errorf("catch-up installed %d scaffolds over a held reference, want 0", res.References)
			}
			if len(res.Resolved) != 1 || res.Resolved[0].Fetches != 1 || res.Resolved[0].Replicated != (watermark == 0) {
				t.Fatalf("catch-up resolved = %+v", res.Resolved)
			}
			obj, err := durable.ObjectByURL(spec.URL)
			if err != nil {
				t.Fatal(err)
			}
			if watermark == 0 {
				if obj.Form != schema.FormInstance || durable.Blobs().Stats().PhysicalBytes == 0 {
					t.Errorf("watermark 0 catch-up left %+v without its bytes", obj)
				}
				return
			}
			if obj.Form != schema.FormReference || st.Fetches(spec.URL) != 1 {
				t.Errorf("watermark 1 catch-up: %+v after %d fetches, want the reference after 1", obj, st.Fetches(spec.URL))
			}
			follow, err := st.Resolve(spec.URL)
			if err != nil {
				t.Fatal(err)
			}
			if follow.Fetches != 2 || !follow.Replicated {
				t.Errorf("resolve after catch-up = %+v, want fetch 2 crossing the watermark", follow)
			}
		})
	}
}

// TestCatchUpStreamsWhenFarBehind: a rejoiner dark through several
// broadcasts pulls them all in the root's one state stream and lands
// on the same end-state a live station reached.
func TestCatchUpStreamsWhenFarBehind(t *testing.T) {
	stations := newFabric(t, 5, 2, 0)
	root := stations[0]
	specs := make([]string, 4)
	for i := range specs {
		specs[i] = authorCourse(t, root, i+1).URL
	}
	stations[2].Close()
	for _, url := range specs {
		if _, err := root.Broadcast(url, false); err != nil {
			t.Fatal(err)
		}
	}
	probeUntilDown(t, root, 3)

	st, err := Rejoin(newTestStore(t), "127.0.0.1:0", root.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	res := catchUpInOneStream(t, st, stations)
	if res.References != len(specs) {
		t.Errorf("catch-up installed %d documents, want %d", res.References, len(specs))
	}
	if len(res.Resolved) != len(specs) {
		t.Fatalf("catch-up resolved %d documents, want %d", len(res.Resolved), len(specs))
	}
	for _, r := range res.Resolved {
		if !r.Replicated || r.Fetches != 1 {
			t.Errorf("streamed resolve under watermark 0 = %+v", r)
		}
	}
	for _, url := range specs {
		obj, err := st.Store().ObjectByURL(url)
		if err != nil || obj.Form != schema.FormInstance {
			t.Errorf("%s after streamed catch-up: %+v (err=%v)", url, obj, err)
		}
	}
	if st.Store().Blobs().Stats().PhysicalBytes == 0 {
		t.Error("streamed catch-up under watermark 0 materialized no bytes")
	}
}

// TestCatchUpStreamDefersBytesAboveWatermark: the stream obeys the
// watermark policy a parent-route pull would — references only, one
// fetch recorded per document, so later demand crosses the watermark
// on the same schedule.
func TestCatchUpStreamDefersBytesAboveWatermark(t *testing.T) {
	stations := newFabric(t, 3, 2, 1)
	root := stations[0]
	specs := make([]string, 3)
	for i := range specs {
		specs[i] = authorCourse(t, root, i+1).URL
	}
	stations[2].Close()
	for _, url := range specs {
		if _, err := root.Broadcast(url, false); err != nil {
			t.Fatal(err)
		}
	}
	probeUntilDown(t, root, 3)
	st, err := Rejoin(newTestStore(t), "127.0.0.1:0", root.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	res := catchUpInOneStream(t, st, stations)
	for _, r := range res.Resolved {
		if r.Replicated || r.Fetches != 1 {
			t.Errorf("streamed resolve above the watermark = %+v", r)
		}
	}
	if phys := st.Store().Blobs().Stats().PhysicalBytes; phys != 0 {
		t.Errorf("streamed catch-up above the watermark materialized %d bytes", phys)
	}
	// The streamed serve counted as fetch 1: the next resolve is fetch
	// 2 and crosses watermark 1, exactly as a parent-route pull would.
	follow, err := st.Resolve(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if follow.Fetches != 2 || !follow.Replicated {
		t.Errorf("resolve after streamed catch-up = %+v, want fetch 2 crossing the watermark", follow)
	}
}

// TestStreamedCatchUpMatchesSimulator extends the fabric parity suite:
// a station dark through four broadcasts rejoins, catches up via the
// checkpoint stream, and the fabric lands on exactly the end-state the
// netsim simulator predicts for the same schedule.
func TestStreamedCatchUpMatchesSimulator(t *testing.T) {
	const (
		n         = 5
		m         = 2
		watermark = 0
		courses   = 4
	)

	// --- Simulated run.
	sim, err := cluster.New(cluster.Config{
		Stations:  n,
		M:         m,
		UplinkBps: 1.25e6,
		Latency:   5 * time.Millisecond,
		Watermark: watermark,
		Mode:      netsim.Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	simSpecs := make([]string, courses)
	for i := 0; i < courses; i++ {
		spec := smallCourse(i + 1)
		simSpecs[i] = spec.URL
		if _, _, err := sim.AuthorCourse(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.MarkDown(3); err != nil {
		t.Fatal(err)
	}
	for _, url := range simSpecs {
		if _, _, err := sim.PreBroadcast(url); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.MarkUp(3); err != nil {
		t.Fatal(err)
	}
	for _, url := range simSpecs {
		if _, err := sim.FetchOnDemand(3, url); err != nil {
			t.Fatal(err)
		}
	}

	// --- Live run, same schedule, catch-up via the stream.
	stations := newFabric(t, n, m, watermark)
	root := stations[0]
	for i := 0; i < courses; i++ {
		authorCourse(t, root, i+1)
	}
	stations[2].Close()
	for _, url := range simSpecs {
		if _, err := root.Broadcast(url, false); err != nil {
			t.Fatal(err)
		}
	}
	probeUntilDown(t, root, 3)
	st, err := Rejoin(newTestStore(t), "127.0.0.1:0", root.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	catchUpInOneStream(t, st, stations)
	stations[2] = st

	// --- Same end-state, station by station.
	simUsage := sim.DiskUsage()
	for pos := 1; pos <= n; pos++ {
		live := stations[pos-1].Store()
		simSt, err := sim.Station(pos)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := live.Blobs().Stats().PhysicalBytes, simUsage[pos-1]; got != want {
			t.Errorf("station %d: physical bytes fabric=%d sim=%d", pos, got, want)
		}
		for _, url := range simSpecs {
			liveObj, liveErr := live.ObjectByURL(url)
			simObj, simErr := simSt.Store.ObjectByURL(url)
			if (liveErr == nil) != (simErr == nil) {
				t.Errorf("station %d %s: presence fabric=%v sim=%v", pos, url, liveErr, simErr)
				continue
			}
			if liveErr == nil && liveObj.Form != simObj.Form {
				t.Errorf("station %d %s: form fabric=%s sim=%s", pos, url, liveObj.Form, simObj.Form)
			}
		}
	}
}

// TestThirteenStationFailureMatchesSimulator is the acceptance run: a
// 13-station m=3 fabric loses two non-root stations mid-broadcast,
// repairs the tree, serves an orphaned descendant, takes the stations
// back on rejoin with catch-up, and lands on exactly the end-state the
// netsim simulator predicts for the same failure schedule.
func TestThirteenStationFailureMatchesSimulator(t *testing.T) {
	const (
		n         = 13
		m         = 3
		watermark = 0
	)
	specA := smallCourse(1)
	specB := smallCourse(2)

	// --- Simulated failure run.
	sim, err := cluster.New(cluster.Config{
		Stations:  n,
		M:         m,
		UplinkBps: 1.25e6,
		Latency:   5 * time.Millisecond,
		Watermark: watermark,
		Mode:      netsim.Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.AuthorCourse(specA); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.AuthorCourse(specB); err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{2, 6} {
		if err := sim.MarkDown(pos); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := sim.PreBroadcast(specA.URL); err != nil {
		t.Fatal(err)
	}
	// The orphaned station 7 (child of dead 2) pulls an un-broadcast
	// course across the dead hop.
	if _, err := sim.FetchOnDemand(7, specB.URL); err != nil {
		t.Fatal(err)
	}
	// Both stations come back and catch up on the missed broadcast.
	for _, pos := range []int{2, 6} {
		if err := sim.MarkUp(pos); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.FetchOnDemand(pos, specA.URL); err != nil {
			t.Fatal(err)
		}
	}

	// --- Live run, same schedule.
	stations := newFabric(t, n, m, watermark)
	root := stations[0]
	authorCourse(t, root, 1)
	authorCourse(t, root, 2)

	// Stations 2 and 6 are SIGKILL stand-ins: their sockets vanish
	// without a word to the root, which discovers them only through
	// the broadcast's own fan-out failures.
	stations[1].Close()
	stations[5].Close()
	res, err := root.Broadcast(specA.URL, false)
	if err != nil {
		t.Fatal(err)
	}
	byPos := map[int]StationResult{}
	for _, sr := range res.Stations {
		byPos[sr.Pos] = sr
	}
	for pos := 2; pos <= n; pos++ {
		if pos == 2 || pos == 6 {
			if byPos[pos].Err == "" {
				t.Errorf("dead station %d not reported in broadcast results", pos)
			}
			continue
		}
		if byPos[pos].Err != "" || byPos[pos].Form != schema.FormInstance {
			t.Errorf("station %d after repaired broadcast: %+v", pos, byPos[pos])
		}
	}

	// The in-flight discovery reaches the root's roster.
	eventually(t, 30*time.Second, "root to confirm both deaths", func() bool {
		return root.Down(2) && root.Down(6)
	})

	// An orphaned descendant (7, child of dead 2) resolves through the
	// grafted route to the root.
	fetch, err := stations[6].Resolve(specB.URL)
	if err != nil {
		t.Fatal(err)
	}
	if fetch.ServedBy != 1 || !fetch.Replicated {
		t.Errorf("orphan resolve = %+v", fetch)
	}

	// Both stations restart (fresh sockets and stores — a SIGKILL lost
	// nothing durable in this in-memory test), reclaim their
	// positions, and catch up.
	for _, pos := range []int{2, 6} {
		st, err := Rejoin(newTestStore(t), "127.0.0.1:0", root.Addr(), pos)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		if st.Pos() != pos {
			t.Fatalf("station rejoined at %d, want %d", st.Pos(), pos)
		}
		if _, err := st.CatchUp(); err != nil {
			t.Fatal(err)
		}
		if root.Down(pos) {
			t.Errorf("station %d still down after rejoin", pos)
		}
		stations[pos-1] = st
	}

	// --- Same end-state, station by station.
	simUsage := sim.DiskUsage()
	for pos := 1; pos <= n; pos++ {
		live := stations[pos-1].Store()
		simSt, err := sim.Station(pos)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := live.Blobs().Stats().PhysicalBytes, simUsage[pos-1]; got != want {
			t.Errorf("station %d: physical bytes fabric=%d sim=%d", pos, got, want)
		}
		for _, url := range []string{specA.URL, specB.URL} {
			liveObj, liveErr := live.ObjectByURL(url)
			simObj, simErr := simSt.Store.ObjectByURL(url)
			if (liveErr == nil) != (simErr == nil) {
				t.Errorf("station %d %s: presence fabric=%v sim=%v", pos, url, liveErr, simErr)
				continue
			}
			if liveErr == nil && liveObj.Form != simObj.Form {
				t.Errorf("station %d %s: form fabric=%s sim=%s", pos, url, liveObj.Form, simObj.Form)
			}
		}
	}
}
