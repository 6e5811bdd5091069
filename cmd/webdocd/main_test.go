package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/webtest"
	"repro/internal/workload"
)

var (
	buildBin string
	buildErr error
)

// TestMain builds the webdocd binary once for every subprocess test.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "webdocd-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	buildBin = filepath.Join(dir, "webdocd")
	if out, err := exec.Command("go", "build", "-o", buildBin, ".").CombinedOutput(); err != nil {
		buildErr = fmt.Errorf("building webdocd: %v\n%s", err, out)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// daemonBinary returns the binary built by TestMain.
func daemonBinary(t *testing.T) string {
	t.Helper()
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

// startDaemon launches webdocd and parses the bound address from its
// "serving on" banner.
func startDaemon(t *testing.T, bin string, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on "); i >= 0 {
				rest := line[i+len("serving on "):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return addr, cmd
	case <-time.After(10 * time.Second):
		t.Fatal("webdocd did not report a listen address")
		return "", nil
	}
}

// stopDaemon delivers SIGTERM and waits for the orderly shutdown that
// flushes the BLOB snapshot and closes the WAL.
func stopDaemon(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("webdocd did not exit on SIGTERM")
	}
}

// countMedia returns the impl_media rows visible over the station RPC.
func countMedia(t *testing.T, rs *cluster.RemoteStation) int {
	t.Helper()
	reply, err := rs.SQL("SELECT res_id FROM impl_media")
	if err != nil {
		t.Fatal(err)
	}
	return len(reply.Rows)
}

// TestKillRestartPreservesMedia seeds a persistent station, SIGTERMs
// it, restarts it on the same directory, and checks that both the
// relational rows and the physical media bytes (BLOB sidecar) survived.
func TestKillRestartPreservesMedia(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := daemonBinary(t)
	dataDir := filepath.Join(t.TempDir(), "station1.d")
	spec := workload.DefaultSpec(1)

	addr, cmd := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-data", dataDir, "-seed-course", "3")
	rs, err := cluster.DialStation(addr)
	if err != nil {
		t.Fatal(err)
	}
	mediaBefore := countMedia(t, rs)
	if mediaBefore == 0 {
		t.Fatal("seeded station has no media")
	}
	bundleBefore, err := rs.FetchBundle(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	rs.Close()
	stopDaemon(t, cmd)

	// Restart on the same directory, without reseeding.
	addr2, cmd2 := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-data", dataDir)
	rs2, err := cluster.DialStation(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer rs2.Close()
	if got := countMedia(t, rs2); got != mediaBefore {
		t.Errorf("media rows after restart = %d, want %d", got, mediaBefore)
	}
	// Exporting the bundle walks the BLOB store: it only succeeds when
	// the sidecar snapshot brought the physical bytes back.
	bundleAfter, err := rs2.FetchBundle(spec.URL)
	if err != nil {
		t.Fatalf("bundle after restart: %v", err)
	}
	if got, want := bundleAfter.TotalBytes(), bundleBefore.TotalBytes(); got != want {
		t.Errorf("bundle bytes after restart = %d, want %d", got, want)
	}
	if len(bundleAfter.Media) != len(bundleBefore.Media) {
		t.Errorf("bundle media after restart = %d, want %d", len(bundleAfter.Media), len(bundleBefore.Media))
	}
	for i, m := range bundleAfter.Media {
		if len(m.Data) == 0 {
			t.Errorf("media %d (%s) came back empty", i, m.Name)
		}
	}
	stopDaemon(t, cmd2)
}

// TestSIGTERMRightAfterBannerPreservesMedia signals the daemon the
// instant its ready banner appears, twenty restarts in a row on one
// directory. Every one of them must shut down in order (exit 0, not
// death by the default SIGTERM disposition): a process killed before
// its handler was installed skips the shutdown checkpoint, the only
// place the seeded BLOB bytes are written here — the rows would come
// back and the media would not.
func TestSIGTERMRightAfterBannerPreservesMedia(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := daemonBinary(t)
	dataDir := filepath.Join(t.TempDir(), "station1.d")
	spec := workload.DefaultSpec(1)

	for i := 0; i < 20; i++ {
		args := []string{"-addr", "127.0.0.1:0", "-data", dataDir}
		if i == 0 {
			args = append(args, "-seed-course", "3")
		}
		_, cmd := startDaemon(t, bin, args...)
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("restart %d: SIGTERM right after the banner did not shut down in order: %v", i, err)
		}
	}

	addr, cmd := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-data", dataDir)
	rs, err := cluster.DialStation(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	bundle, err := rs.FetchBundle(spec.URL)
	if err != nil {
		t.Fatalf("bundle after 20 signalled restarts: %v", err)
	}
	if len(bundle.Media) == 0 || len(bundle.Media) > countMedia(t, rs) {
		t.Fatalf("bundle carries %d media of %d rows", len(bundle.Media), countMedia(t, rs))
	}
	for i, m := range bundle.Media {
		if len(m.Data) == 0 {
			t.Errorf("media %d (%s) came back empty", i, m.Name)
		}
	}
	stopDaemon(t, cmd)
}

// TestSIGKILLAfterCheckpointPreservesState is the no-mercy leg of the
// crash matrix: the daemon is checkpointed over RPC (the webdocctl
// checkpoint verb) and then SIGKILLed — no SIGTERM, no sidecar flush.
// The restart must serve the complete course from the checkpoint
// generation: relational rows AND physical BLOB bytes, which the old
// write-sidecar-only-on-SIGTERM scheme lost on every hard kill.
func TestSIGKILLAfterCheckpointPreservesState(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := daemonBinary(t)
	dataDir := filepath.Join(t.TempDir(), "station1.d")
	spec := workload.DefaultSpec(1)

	addr, cmd := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-data", dataDir, "-seed-course", "3")
	rs, err := cluster.DialStation(addr)
	if err != nil {
		t.Fatal(err)
	}
	mediaBefore := countMedia(t, rs)
	if mediaBefore == 0 {
		t.Fatal("seeded station has no media")
	}
	bundleBefore, err := rs.FetchBundle(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := rs.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint RPC: %v", err)
	}
	if ck.Gen == 0 || ck.Bytes == 0 {
		t.Fatalf("checkpoint reply = %+v", ck)
	}
	rs.Close()
	// SIGKILL: no shutdown path runs at all.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	addr2, cmd2 := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-data", dataDir)
	rs2, err := cluster.DialStation(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer rs2.Close()
	if got := countMedia(t, rs2); got != mediaBefore {
		t.Errorf("media rows after SIGKILL restart = %d, want %d", got, mediaBefore)
	}
	bundleAfter, err := rs2.FetchBundle(spec.URL)
	if err != nil {
		t.Fatalf("bundle after SIGKILL restart: %v", err)
	}
	if got, want := bundleAfter.TotalBytes(), bundleBefore.TotalBytes(); got != want {
		t.Errorf("bundle bytes after SIGKILL restart = %d, want %d", got, want)
	}
	for i, m := range bundleAfter.Media {
		if len(m.Data) == 0 {
			t.Errorf("media %d (%s) lost its bytes across the SIGKILL", i, m.Name)
		}
	}
	stopDaemon(t, cmd2)
}

// TestDaemonRefusesPreBinaryDirectory: pointed at a directory from
// before the binary formats (a JSON-line WAL tail), the daemon exits
// non-zero naming the file, before serving and without touching it.
// The -wal flag that once migrated such data is gone with the reader.
func TestDaemonRefusesPreBinaryDirectory(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := daemonBinary(t)
	dataDir := t.TempDir()
	tail := filepath.Join(dataDir, "wal-0000000000")
	old := []byte(`{"seq":1,"commit":true,"recs":[{"op":"drop","table":"scripts"}]}` + "\n")
	if err := os.WriteFile(tail, old, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dataDir).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "wal-0000000000") || !strings.Contains(string(out), "predates the binary format") {
		t.Fatalf("err = %v, output:\n%s", err, out)
	}
	if got, rerr := os.ReadFile(tail); rerr != nil || string(got) != string(old) {
		t.Errorf("WAL tail changed or vanished (err=%v)", rerr)
	}
	out, err = exec.Command(bin, "-wal", filepath.Join(dataDir, "station1.wal")).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "flag provided but not defined: -wal") {
		t.Fatalf("-wal: err = %v, output:\n%s", err, out)
	}
}

// stationHasPages reports whether the station at addr answers SQL and
// holds at least one html_files row — the readiness probe for
// broadcast delivery, polled via webtest instead of slept on.
func stationHasPages(addr string) bool {
	rs, err := cluster.DialStation(addr)
	if err != nil {
		return false
	}
	defer rs.Close()
	reply, err := rs.SQL("SELECT file_id FROM html_files")
	return err == nil && len(reply.Rows) > 0
}

// stationForm returns the doc_objects form the station records for the
// URL ("" when absent or unreachable).
func stationForm(t *testing.T, addr, url string) string {
	t.Helper()
	rs, err := cluster.DialStation(addr)
	if err != nil {
		return ""
	}
	defer rs.Close()
	reply, err := rs.SQL("SELECT form FROM doc_objects WHERE starting_url = '" + url + "'")
	if err != nil || len(reply.Rows) == 0 || len(reply.Rows[0]) == 0 {
		return ""
	}
	return reply.Rows[0][0]
}

// healthShows polls the root's health view for an exact down-set.
func healthShows(admin *fabric.Admin, want ...int) func() bool {
	return func() bool {
		h, err := admin.Health()
		if err != nil || len(h.Down) != len(want) {
			return false
		}
		for i, pos := range want {
			if h.Down[i] != pos {
				return false
			}
		}
		return true
	}
}

// TestChaosKilledStationsMidBroadcastRejoin is the chaos run: a
// seven-station live fabric loses two non-root daemons to SIGKILL
// while a broadcast is in flight, repairs the tree around them,
// restarts them with -rejoin, and converges on the end-state the
// netsim simulator predicts for the same failure schedule.
func TestChaosKilledStationsMidBroadcastRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := daemonBinary(t)
	spec := workload.DefaultSpec(1)

	rootAddr, _ := startDaemon(t, bin,
		"-addr", "127.0.0.1:0", "-m", "2", "-watermark", "0",
		"-seed-course", "3", "-heartbeat", "100ms")
	// Joins are sequential (the banner appears only after the
	// handshake), so joiner i holds position i+2.
	type joiner struct {
		addr string
		cmd  *exec.Cmd
	}
	joiners := make([]joiner, 6)
	for i := range joiners {
		addr, cmd := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-join", rootAddr)
		joiners[i] = joiner{addr, cmd}
	}
	admin := fabric.DialAdmin(rootAddr)
	defer admin.Close()
	eventually(t, 30*time.Second, "all seven stations in the roster", func() bool {
		top, err := admin.Topology()
		return err == nil && top.N == 7
	})

	// SIGKILL positions 2 and 5 while the broadcast fans out. The
	// exact interleaving is the chaos under test: whichever hop the
	// deaths land on, the broadcast must complete and every surviving
	// station must end up with the course.
	done := make(chan error, 1)
	go func() {
		_, err := admin.Broadcast(spec.URL, false)
		done <- err
	}()
	for _, pos := range []int{2, 5} {
		if err := joiners[pos-2].cmd.Process.Kill(); err != nil {
			t.Error(err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("broadcast during kills: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("broadcast hung across the kills")
	}

	// Repair: every live station holds the pages; the heartbeat
	// declares exactly the killed stations dead.
	for _, pos := range []int{3, 4, 6, 7} {
		addr := joiners[pos-2].addr
		eventually(t, 30*time.Second,
			fmt.Sprintf("station %d to hold the broadcast pages", pos),
			func() bool { return stationHasPages(addr) })
	}
	eventually(t, 30*time.Second, "root health to declare stations 2 and 5 dead",
		healthShows(admin, 2, 5))

	// An orphaned station (4, child of dead 2) keeps serving: its
	// health view answers, and a resolve through the dead parent still
	// succeeds via the grafted route to the root.
	st4 := fabric.DialAdmin(joiners[2].addr)
	h4, err := st4.Health()
	if err != nil {
		st4.Close()
		t.Fatal(err)
	}
	if h4.IsRoot {
		st4.Close()
		t.Fatalf("station 4 health claims root: %+v", h4)
	}
	fetch, err := st4.Fetch(spec.URL)
	st4.Close()
	if err != nil {
		t.Fatalf("orphan resolve across dead parent: %v", err)
	}
	if !fetch.Local && fetch.ServedBy == 2 {
		t.Errorf("orphan resolve served by the dead parent: %+v", fetch)
	}

	// Rejoin: both victims restart on fresh sockets, reclaim their old
	// positions, and catch up before announcing readiness.
	for _, pos := range []int{2, 5} {
		addr, cmd := startDaemon(t, bin,
			"-addr", "127.0.0.1:0", "-join", rootAddr, "-rejoin", "-pos", strconv.Itoa(pos))
		joiners[pos-2] = joiner{addr, cmd}
	}
	eventually(t, 30*time.Second, "root health to show every station up",
		healthShows(admin))
	top, err := admin.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if top.N != 7 {
		t.Fatalf("topology after rejoin = %+v", top)
	}
	for _, pos := range []int{2, 5} {
		if top.Roster[pos] != joiners[pos-2].addr {
			t.Errorf("roster[%d] = %s, want the rejoined address %s", pos, top.Roster[pos], joiners[pos-2].addr)
		}
		eventually(t, 30*time.Second,
			fmt.Sprintf("rejoined station %d to finish catch-up", pos),
			func() bool { return stationHasPages(joiners[pos-2].addr) })
	}

	// End-state parity: the netsim simulator run with the same failure
	// schedule (2 and 5 dark through the broadcast, revived, caught
	// up) predicts the per-station object form; the live fabric must
	// agree for every student station.
	sim, err := cluster.New(cluster.Config{
		Stations:  7,
		M:         2,
		UplinkBps: 1.25e6,
		Latency:   5 * time.Millisecond,
		Watermark: 0,
		Mode:      netsim.Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	simSpec := workload.DefaultSpec(1)
	simSpec.Pages = 3
	simSpec.MediaScaleDown = 4096
	if _, _, err := sim.AuthorCourse(simSpec); err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{2, 5} {
		if err := sim.MarkDown(pos); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := sim.PreBroadcast(simSpec.URL); err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{2, 5} {
		if err := sim.MarkUp(pos); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.FetchOnDemand(pos, simSpec.URL); err != nil {
			t.Fatal(err)
		}
	}
	for pos := 2; pos <= 7; pos++ {
		simSt, err := sim.Station(pos)
		if err != nil {
			t.Fatal(err)
		}
		simObj, err := simSt.Store.ObjectByURL(simSpec.URL)
		if err != nil {
			t.Fatalf("simulator station %d: %v", pos, err)
		}
		if got := stationForm(t, joiners[pos-2].addr, spec.URL); got != simObj.Form {
			t.Errorf("station %d: form fabric=%q sim=%q", pos, got, simObj.Form)
		}
	}
}

// TestChaosEventJournalNarratesKillRejoinCheckpoint kills a real
// daemon with SIGKILL and reads the incident back through the Events
// RPC: the fabric-wide journal must narrate the whole lifecycle —
// suspicion on the hop that discovered the corpse, the graft around
// it, the root's down confirmation, the rejoin grant, and the revived
// station's first checkpoint — in causal order, queryable from a
// station that observed none of it firsthand.
func TestChaosEventJournalNarratesKillRejoinCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := daemonBinary(t)
	spec := workload.DefaultSpec(1)

	// -heartbeat 0: no background sweep, so every journal entry below
	// is attributable to the suspicion path the broadcast triggers —
	// the narrative under test — not to a racing prober.
	rootAddr, _ := startDaemon(t, bin,
		"-addr", "127.0.0.1:0", "-m", "2", "-watermark", "0",
		"-seed-course", "3", "-heartbeat", "0")
	dataDir := filepath.Join(t.TempDir(), "station2.d")
	_, victimCmd := startDaemon(t, bin,
		"-addr", "127.0.0.1:0", "-join", rootAddr, "-data", dataDir)
	// Positions 3..5 (joins are sequential; the victim took 2).
	bystanders := make([]string, 3)
	for i := range bystanders {
		addr, _ := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-join", rootAddr)
		bystanders[i] = addr
	}
	admin := fabric.DialAdmin(rootAddr)
	defer admin.Close()
	eventually(t, 30*time.Second, "all five stations in the roster", func() bool {
		top, err := admin.Topology()
		return err == nil && top.N == 5
	})

	// SIGKILL the interior station (position 2, children 4 and 5), then
	// broadcast: the root's fan-out discovers the corpse live.
	if err := victimCmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victimCmd.Wait()
	if _, err := admin.Broadcast(spec.URL, false); err != nil {
		t.Fatalf("broadcast across the kill: %v", err)
	}
	eventually(t, 30*time.Second, "root health to confirm station 2 dead",
		healthShows(admin, 2))

	// Query through a bystander: the Events entry forwards to the root
	// and scatters tree-wide, so the narrative must be visible from a
	// station that observed none of it firsthand.
	relay := fabric.DialAdmin(bystanders[0])
	defer relay.Close()
	waitForEvent := func(name string) {
		t.Helper()
		eventually(t, 30*time.Second, fmt.Sprintf("journal to record %q", name), func() bool {
			reply, err := relay.Events(obs.EventFilter{})
			if err != nil {
				return false
			}
			for _, e := range reply.Events {
				if e.Name == name {
					return true
				}
			}
			return false
		})
	}
	for _, name := range []string{"suspect", "graft", "down-confirmed"} {
		waitForEvent(name)
	}

	// Rejoin: the victim restarts on a fresh socket, reclaims position
	// 2 and checkpoints on a timer; the grant (root journal) and the
	// install (the rejoined station's own journal) both surface.
	startDaemon(t, bin,
		"-addr", "127.0.0.1:0", "-join", rootAddr, "-rejoin", "-pos", "2",
		"-data", dataDir, "-checkpoint-every", "300ms")
	waitForEvent("rejoin-grant")
	waitForEvent("checkpoint-install")

	// One merged snapshot carries the lifecycle in causal order: the
	// root's entries share one journal, so their sequence numbers are
	// the order things actually happened.
	reply, err := relay.Events(obs.EventFilter{})
	if err != nil {
		t.Fatal(err)
	}
	firstAtRoot := map[string]uint64{}
	checkpointStation := 0
	for _, e := range reply.Events {
		if e.Station == 1 {
			if _, ok := firstAtRoot[e.Name]; !ok {
				firstAtRoot[e.Name] = e.Seq
			}
		}
		if e.Name == "checkpoint-install" {
			checkpointStation = e.Station
		}
	}
	order := []string{"suspect", "graft", "down-confirmed", "rejoin-grant"}
	for i := 1; i < len(order); i++ {
		prev, ok1 := firstAtRoot[order[i-1]]
		next, ok2 := firstAtRoot[order[i]]
		if !ok1 || !ok2 || prev >= next {
			t.Errorf("root journal out of causal order: %s seq %d (present %v) vs %s seq %d (present %v)",
				order[i-1], prev, ok1, order[i], next, ok2)
		}
	}
	if checkpointStation != 2 {
		t.Errorf("checkpoint-install journaled at station %d, want the rejoined station 2", checkpointStation)
	}

	// Netsim parity on the same snapshot: the simulated collection over
	// the healed 5-station tree with the live journals' footprint
	// gathers the same totals.
	perStation := make(map[int]int)
	for _, e := range reply.Events {
		perStation[e.Station]++
	}
	sim, err := cluster.New(cluster.Config{
		Stations: 5, M: 2, UplinkBps: 1.25e6, Latency: 5 * time.Millisecond,
		Watermark: 0, Mode: netsim.Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	simRep, err := sim.CollectEvents(3, func(p int) int { return perStation[p] })
	if err != nil {
		t.Fatal(err)
	}
	if simRep.Events != len(reply.Events) {
		t.Errorf("simulator gathered %d events, live collection %d", simRep.Events, len(reply.Events))
	}
	if simRep.Covered != 5 {
		t.Errorf("simulator covered %d stations, want 5", simRep.Covered)
	}
}

// TestSIGKILLAfterTailFreeCheckpointRebuildsIdenticalIndex extends the
// crash matrix to the content index, which is a cache and never a
// file: a checkpoint with no WAL tail behind it writes no search-*
// file, and the restart after a SIGKILL rebuilds the index from the
// recovered rows and answers full-text queries exactly as the pre-kill
// daemon did.
func TestSIGKILLAfterTailFreeCheckpointRebuildsIdenticalIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := daemonBinary(t)
	dir := filepath.Join(t.TempDir(), "station.d")

	addr, cmd := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-data", dir, "-seed-course", "4")
	rs, err := cluster.DialStation(addr)
	if err != nil {
		t.Fatal(err)
	}
	before, err := rs.SearchLocal([]string{"lecture", "material"}, false, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatal("seeded daemon answers no full-text hits")
	}
	ckpt, err := rs.Checkpoint()
	rs.Close()
	if err != nil {
		t.Fatal(err)
	}

	cmd.Process.Kill()
	cmd.Wait()
	tail, err := os.Stat(filepath.Join(dir, fmt.Sprintf("wal-%010d", ckpt.Gen)))
	if err != nil || tail.Size() != 0 {
		t.Fatalf("checkpoint generation %d has a WAL tail: %v, err=%v", ckpt.Gen, tail, err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "search-*")); len(files) != 0 {
		t.Fatalf("checkpoint wrote index files: %v", files)
	}

	addr2, _ := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-data", dir, "-seed-course", "4")
	rs2, err := cluster.DialStation(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer rs2.Close()
	after, err := rs2.SearchLocal([]string{"lecture", "material"}, false, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("rebuilt index answers %d hits, want %d", len(after), len(before))
	}
	for i := range after {
		if after[i].Key != before[i].Key || after[i].Score != before[i].Score || after[i].Snippet != before[i].Snippet {
			t.Errorf("hit %d differs after rebuild: %+v vs %+v", i, after[i], before[i])
		}
	}
}

// TestDaemonFabricWalkthrough runs the README's three-station
// deployment end to end through real processes: a root, two joiners, a
// broadcast, a resolve and a migration.
func TestDaemonFabricWalkthrough(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := daemonBinary(t)
	spec := workload.DefaultSpec(1)

	rootAddr, _ := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-m", "2", "-watermark", "0", "-seed-course", "3")
	addr2, _ := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-join", rootAddr)
	addr3, _ := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-join", rootAddr)

	admin := fabric.DialAdmin(rootAddr)
	defer admin.Close()
	top, err := admin.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if top.N != 3 || !top.IsRoot {
		t.Fatalf("topology = %+v", top)
	}
	res, err := admin.Broadcast(spec.URL, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stations) != 2 {
		t.Fatalf("broadcast = %+v", res)
	}
	for _, sr := range res.Stations {
		if sr.Err != "" {
			t.Errorf("station %d: %s", sr.Pos, sr.Err)
		}
	}
	// Both joiners hold the pages now.
	for _, a := range []string{addr2, addr3} {
		rs, err := cluster.DialStation(a)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := rs.SQL("SELECT file_id FROM html_files")
		rs.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(reply.Rows) == 0 {
			t.Errorf("station %s holds no pages after broadcast", a)
		}
	}
	// A federation-wide full-text query issued at a leaf daemon answers
	// with the course pages, deduplicated across the three replicas and
	// credited to the lowest-positioned holder.
	leaf := fabric.DialAdmin(addr2)
	defer leaf.Close()
	found, err := leaf.Search([]string{"lecture", "material"}, false, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(found.Hits) != 3 {
		t.Errorf("federated search hits = %+v", found.Hits)
	}
	for _, h := range found.Hits {
		if h.Station != 1 {
			t.Errorf("hit %s credited to station %d, want 1", h.Key, h.Station)
		}
		if h.Snippet == "" {
			t.Errorf("hit %s carries no snippet", h.Key)
		}
	}
	mig, err := admin.EndLecture(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if mig.Freed == 0 || len(mig.Stations) != 2 {
		t.Errorf("migration = %+v", mig)
	}
	// After migration station 3 resolves the course again via its
	// parent route; watermark 0 materializes immediately.
	st3 := fabric.DialAdmin(addr3)
	defer st3.Close()
	fetch, err := st3.Fetch(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !fetch.Replicated {
		t.Errorf("fetch = %+v", fetch)
	}
}

// eventually polls cond until it holds, failing the test when timeout
// passes first.
func eventually(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	if err := webtest.PollErr(timeout, what, func() (bool, error) { return cond(), nil }); err != nil {
		t.Fatal(err)
	}
}
