package cluster

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/docdb"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/workload"
)

// startNode builds a station store with a course and serves it on a
// loopback socket.
func startNode(t *testing.T, pos int, withCourse bool) (*Node, string, workload.CourseSpec) {
	t.Helper()
	store, err := docdb.Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	store.Now = func() time.Time { return time.Date(1999, 4, 21, 0, 0, 0, 0, time.UTC) }
	spec := smallCourse(pos)
	if withCourse {
		if _, err := workload.BuildCourse(store, spec); err != nil {
			t.Fatal(err)
		}
		if _, err := store.NewInstance(spec.URL, pos, true); err != nil {
			t.Fatal(err)
		}
	}
	n := NewNode(pos, store)
	addr, err := n.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, addr, spec
}

func TestTCPPing(t *testing.T) {
	_, addr, _ := startNode(t, 1, true)
	rs, err := DialStation(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	info, err := rs.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if info.Pos != 1 || len(info.Tables) == 0 || info.Objects != 1 {
		t.Errorf("info = %+v", info)
	}
}

// TestRemoteStationSurvivesRestart: a client outlives its station's
// process — after the station restarts on the same address, the next
// call redials instead of failing on the dead connection.
func TestRemoteStationSurvivesRestart(t *testing.T) {
	node, addr, _ := startNode(t, 1, true)
	rs, err := DialStation(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.Ping(); err != nil {
		t.Fatal(err)
	}
	node.Close()
	restarted := NewNode(1, node.Store)
	if _, err := restarted.Start(addr); err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer restarted.Close()
	info, err := rs.Ping()
	if err != nil {
		t.Fatalf("ping after the station restarted: %v", err)
	}
	if info.Pos != 1 || info.Objects != 1 {
		t.Errorf("info = %+v", info)
	}
}

func TestTCPBundleTransferBetweenStations(t *testing.T) {
	_, addr1, spec := startNode(t, 1, true)
	node2, addr2, _ := startNode(t, 2, false)

	// Station 2 pulls the lecture from station 1 over real sockets.
	src, err := DialStation(addr1)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	bundle, err := src.FetchBundle(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundle.HTML) != 6 || len(bundle.Media) == 0 {
		t.Fatalf("bundle = %d html, %d media", len(bundle.HTML), len(bundle.Media))
	}

	dst, err := DialStation(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	reply, err := dst.Import(bundle, false)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Form != schema.FormInstance {
		t.Errorf("form = %s", reply.Form)
	}
	// The content is now resident on station 2.
	resident, err := node2.Store.ResidentBytes(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if resident == 0 {
		t.Error("nothing resident after import")
	}
	// Byte-identical page content across stations.
	got, err := node2.Store.HTML(spec.URL, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Error("empty page after transfer")
	}
}

func TestTCPFetchUnknownBundle(t *testing.T) {
	_, addr, _ := startNode(t, 1, true)
	rs, err := DialStation(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.FetchBundle("http://ghost"); err == nil {
		t.Error("expected error for unknown URL")
	}
}

// TestTCPCheckpointVerb drives the operator checkpoint RPC: a durable
// station writes a generation on request; an in-memory one refuses.
func TestTCPCheckpointVerb(t *testing.T) {
	store, err := docdb.Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Recover(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.BuildCourse(store, smallCourse(1)); err != nil {
		t.Fatal(err)
	}
	n := NewNode(1, store)
	addr, err := n.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	rs, err := DialStation(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	reply, err := rs.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Gen != 1 || reply.Bytes == 0 {
		t.Errorf("checkpoint reply = %+v", reply)
	}
	// Idempotent escalation: a second checkpoint is the next generation.
	reply2, err := rs.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if reply2.Gen != 2 {
		t.Errorf("second checkpoint generation = %d, want 2", reply2.Gen)
	}

	// A station running without persistence answers with an error, not
	// a crash.
	_, memAddr, _ := startNode(t, 2, false)
	mem, err := DialStation(memAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if _, err := mem.Checkpoint(); err == nil {
		t.Error("checkpoint of an in-memory station succeeded")
	}
}

func TestTCPSQL(t *testing.T) {
	_, addr, spec := startNode(t, 1, true)
	rs, err := DialStation(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	reply, err := rs.SQL("SELECT script_name, author FROM scripts")
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Rows) != 1 || reply.Rows[0][0] != spec.ScriptName {
		t.Errorf("reply = %+v", reply)
	}
	reply, err = rs.SQL("SELECT file_id FROM html_files ORDER BY file_id LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Rows) != 2 {
		t.Errorf("rows = %d", len(reply.Rows))
	}
	// Errors travel back as errors.
	if _, err := rs.SQL("SELEKT nonsense"); err == nil || !strings.Contains(err.Error(), "minisql") {
		t.Errorf("err = %v", err)
	}
	// Bytes render as placeholders.
	reply, err = rs.SQL("SELECT content FROM html_files LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply.Rows[0][0], "bytes>") {
		t.Errorf("bytes cell = %q", reply.Rows[0][0])
	}
}

// TestImportRPCRefusesMediaThatAreNotTheirHash: the Import RPC is where
// bytes enter the fabric, so it is where the trust rule checks a
// bundle's carried hashes. A medium whose bytes do not match its hash
// is refused with blob.ErrHashMismatch, naming the hash, and the
// station keeps nothing of the bundle; the same bundle with honest
// bytes imports.
func TestImportRPCRefusesMediaThatAreNotTheirHash(t *testing.T) {
	_, addr1, spec := startNode(t, 1, true)
	node2, addr2, _ := startNode(t, 2, false)
	src, err := DialStation(addr1)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	honest, err := src.FetchBundle(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	forged := *honest
	forged.Media = slices.Clone(honest.Media)
	forged.Media[0].Data = bytes.Clone(forged.Media[0].Data)
	forged.Media[0].Data[0] ^= 0xFF

	dst, err := DialStation(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	_, err = dst.Import(&forged, false)
	if err == nil || !strings.Contains(err.Error(), blob.ErrHashMismatch.Error()) || !strings.Contains(err.Error(), forged.Media[0].Hash[:12]) {
		t.Fatalf("forged medium: err = %v, want %q naming %.12s", err, blob.ErrHashMismatch, forged.Media[0].Hash)
	}
	if _, err := node2.Store.ObjectByURL(spec.URL); err == nil {
		t.Fatal("the refused import left a document object")
	}
	if st := node2.Store.Blobs().Stats(); st.Objects != 0 || st.HashedBytes == 0 {
		t.Fatalf("after the refusal: BLOB stats %+v, want no objects and some bytes hashed", st)
	}
	if _, err := dst.Import(honest, false); err != nil {
		t.Fatalf("honest bundle: %v", err)
	}
}
