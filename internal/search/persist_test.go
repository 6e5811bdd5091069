package search_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/docdb"
	"repro/internal/relstore"
	"repro/internal/search"
)

func newStore(t *testing.T) *docdb.Store {
	t.Helper()
	s, err := docdb.Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	s.Now = func() time.Time { return time.Date(1999, 4, 21, 8, 0, 0, 0, time.UTC) }
	return s
}

// scaffold installs the database/script/implementation rows content
// hangs off.
func scaffold(t *testing.T, s *docdb.Store, script, url string) {
	t.Helper()
	if _, err := s.Database("mmu"); err != nil {
		if err := s.CreateDatabase(docdb.Database{Name: "mmu"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CreateScript(docdb.Script{
		Name: script, DBName: "mmu", Author: "Shih",
		Description: "Lecture notes for " + script,
		Keywords:    []string{"lecture", script},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddImplementation(docdb.Implementation{StartingURL: url, ScriptName: script, Author: "Shih"}); err != nil {
		t.Fatal(err)
	}
}

func keysOf(hits []search.Hit) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.Key
	}
	return out
}

func TestAttachSeedsFromExistingContent(t *testing.T) {
	s := newStore(t)
	scaffold(t, s, "cs101", "http://mmu/cs101/v1")
	if err := s.PutHTML("http://mmu/cs101/v1", "index.html", []byte("<body>preexisting content</body>")); err != nil {
		t.Fatal(err)
	}
	ix, err := search.Attach(s)
	if err != nil {
		t.Fatal(err)
	}
	if hits := ix.Search(search.Query{Terms: []string{"preexisting"}}); len(hits) != 1 {
		t.Errorf("attach did not seed existing content: %v", hits)
	}
	if _, err := search.Attach(s); err == nil {
		t.Error("double attach succeeded")
	}
}

func TestWriteHooksKeepIndexCurrent(t *testing.T) {
	s := newStore(t)
	ix, err := search.Attach(s)
	if err != nil {
		t.Fatal(err)
	}
	scaffold(t, s, "cs101", "http://mmu/cs101/v1")
	url := "http://mmu/cs101/v1"
	if err := s.PutHTML(url, "index.html", []byte("<body>pipelined broadcast</body>")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutProgram(url, "quiz.asp", "asp", []byte("gradebook logic")); err != nil {
		t.Fatal(err)
	}
	for _, term := range []string{"pipelined", "gradebook", "lecture"} {
		if hits := ix.Search(search.Query{Terms: []string{term}}); len(hits) == 0 {
			t.Errorf("no hits for %q after write hooks", term)
		}
	}

	// A bundle import on a second station indexes the carried content.
	inst, err := s.NewInstance(url, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := s.ExportBundle(url)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newStore(t)
	ix2, err := search.Attach(s2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.ImportBundle(bundle, 2, false); err != nil {
		t.Fatal(err)
	}
	if hits := ix2.Search(search.Query{Terms: []string{"pipelined"}}); len(hits) != 1 {
		t.Errorf("import bundle not indexed: %v", hits)
	}

	// A reference import indexes only the catalog metadata.
	s3 := newStore(t)
	ix3, err := search.Attach(s3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.ImportReference(bundle.Script, bundle.Impl, 3, 1); err != nil {
		t.Fatal(err)
	}
	if hits := ix3.Search(search.Query{Terms: []string{"pipelined"}}); len(hits) != 0 {
		t.Errorf("reference import indexed content it does not hold: %v", hits)
	}
	if hits := ix3.Search(search.Query{Terms: []string{"lecture"}}); len(hits) != 1 {
		t.Errorf("reference import lost the catalog metadata: %v", hits)
	}

	// Migration to reference drops the content hits, keeps the script.
	if err := s.MigrateToReference(inst.ID, 1); err != nil {
		t.Fatal(err)
	}
	if hits := ix.Search(search.Query{Terms: []string{"pipelined"}}); len(hits) != 0 {
		t.Errorf("content hits survived migration to reference: %v", hits)
	}
	if hits := ix.Search(search.Query{Terms: []string{"lecture"}}); len(hits) == 0 {
		t.Error("script metadata lost in migration")
	}

	// Deleting the script removes the last trace.
	if err := s.DeleteScript("cs101"); err != nil {
		t.Fatal(err)
	}
	if hits := ix.Search(search.Query{Terms: []string{"lecture"}}); len(hits) != 0 {
		t.Errorf("hits survived script delete: %v", hits)
	}
}

func TestInstantiateIndexesCopiedStructure(t *testing.T) {
	s := newStore(t)
	ix, err := search.Attach(s)
	if err != nil {
		t.Fatal(err)
	}
	scaffold(t, s, "cs101", "http://mmu/cs101/v1")
	if err := s.PutHTML("http://mmu/cs101/v1", "index.html", []byte("<body>prototype reuse text</body>")); err != nil {
		t.Fatal(err)
	}
	inst, err := s.NewInstance("http://mmu/cs101/v1", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	class, err := s.DeclareClass(inst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Instantiate(class.ID, "http://mmu/cs101/v2", 1); err != nil {
		t.Fatal(err)
	}
	hits := ix.Search(search.Query{Terms: []string{"prototype"}, TopK: 10})
	if len(hits) != 2 {
		t.Errorf("instantiated copy not indexed: %v", keysOf(hits))
	}
}

// durableStore opens a store with an attached index over a durability
// directory, in webdocd's order: open, attach, recover.
func durableStore(t *testing.T, dir string) (*docdb.Store, *search.Index, *relstore.RecoverInfo) {
	t.Helper()
	s := newStore(t)
	ix, err := search.Attach(s)
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s, ix, info
}

func seedContent(t *testing.T, s *docdb.Store, docs int) string {
	t.Helper()
	url := "http://mmu/cs101/v1"
	scaffold(t, s, "cs101", url)
	for i := 0; i < docs; i++ {
		page := fmt.Sprintf("<body>shared corpus page%d unique%04d</body>", i, i)
		if err := s.PutHTML(url, fmt.Sprintf("p%04d.html", i), []byte(page)); err != nil {
			t.Fatal(err)
		}
	}
	return url
}

// dump captures the full ranked answer for a distinctive query — the
// equality witness the recovery tests compare.
func dump(ix *search.Index) []search.Hit {
	return ix.Search(search.Query{Terms: []string{"corpus"}, TopK: 1 << 20})
}

// TestCheckpointSidecarRestoresIndex: a checkpoint writes no search
// sidecar at all, yet a restart from it serves exactly the pre-crash
// index, rebuilt from the checkpointed rows with no tail to replay.
func TestCheckpointSidecarRestoresIndex(t *testing.T) {
	dir := t.TempDir()
	s, ix, _ := durableStore(t, dir)
	seedContent(t, s, 8)
	before := dump(ix)
	info, err := s.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "search-*")); len(files) != 0 {
		t.Fatalf("checkpoint wrote search files %v", files)
	}

	_, ix2, rec := durableStore(t, dir)
	if rec.Gen != info.Gen || rec.Applied != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if got := dump(ix2); !reflect.DeepEqual(got, before) {
		t.Errorf("restored index differs:\n got %v\nwant %v", keysOf(got), keysOf(before))
	}
}

// TestRecoveryRebuildsWhenSidecarMissing: with no search-<gen> file
// beside the snapshot — every checkpoint's state now — a SIGKILL
// recovery rebuilds the index from the rows, and a second checkpoint
// still writes no search file.
func TestRecoveryRebuildsWhenSidecarMissing(t *testing.T) {
	checkRecoveryRebuilds(t, false, nil)
}

// TestRecoveryRebuildsIndexFromRows: the index is a cache, never a
// file. Whatever else the checkpoint left behind — a WAL tail on top of
// it, a search-<gen> file an older build wrote, that file overwritten
// with garbage — recovery rebuilds exactly the pre-crash index from the
// rows, and no checkpoint writes or prunes a search-* file.
func TestRecoveryRebuildsIndexFromRows(t *testing.T) {
	parentFile, err := os.ReadFile(filepath.Join("testdata", "parent-dir", "search-0000000001"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		tail     bool   // write after the checkpoint, so recovery replays a tail
		leftover []byte // planted as search-<gen> before the restart
	}{
		{name: "checkpoint plus tail", tail: true},
		{name: "leftover search file", leftover: parentFile},
		{name: "garbage search file", leftover: []byte("torn")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkRecoveryRebuilds(t, tc.tail, tc.leftover)
		})
	}
}

// checkRecoveryRebuilds checkpoints a seeded store, optionally writes a
// WAL tail and plants leftover as search-<gen>, restarts without a
// shutdown checkpoint, and asserts the recovered index equals the
// pre-crash one and that a further checkpoint leaves the search-* files
// exactly as planted.
func checkRecoveryRebuilds(t *testing.T, tail bool, leftover []byte) {
	t.Helper()
	dir := t.TempDir()
	s, ix, _ := durableStore(t, dir)
	url := seedContent(t, s, 8)
	info, err := s.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	if tail {
		if err := s.PutHTML(url, "late.html", []byte("<body>corpus latecomer</body>")); err != nil {
			t.Fatal(err)
		}
	}
	var planted []string
	if leftover != nil {
		path := filepath.Join(dir, fmt.Sprintf("search-%010d", info.Gen))
		if err := os.WriteFile(path, leftover, 0o644); err != nil {
			t.Fatal(err)
		}
		planted = append(planted, path)
	}
	before, stats := dump(ix), ix.Stats()

	// SIGKILL: no shutdown checkpoint.
	s2, ix2, rec := durableStore(t, dir)
	if rec.Gen != info.Gen || (rec.Applied > 0) != tail {
		t.Fatalf("recovery = %+v, want generation %d, tail replayed %v", rec, info.Gen, tail)
	}
	if got := dump(ix2); !reflect.DeepEqual(got, before) {
		t.Errorf("recovered index differs:\n got %v\nwant %v", keysOf(got), keysOf(before))
	}
	if got := ix2.Stats(); got != stats {
		t.Errorf("recovered index stats = %+v, want %+v", got, stats)
	}
	if _, err := s2.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "search-*")); !reflect.DeepEqual(files, planted) {
		t.Errorf("search files after two checkpoints = %v, want %v", files, planted)
	}
}
