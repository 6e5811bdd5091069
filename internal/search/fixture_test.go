package search_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/docdb"
	"repro/internal/relstore"
	"repro/internal/search"
)

// testdata/parent-dir is a station durability directory written by the
// last build that still carried the gob/JSON read fallbacks (PR 17,
// commit 2874f77): one checkpoint generation — snap, blobs and search
// sidecar — and a WAL tail holding a late page, a media row, CREATE
// TABLE, rows of every value type, an update, a delete and a DROP
// TABLE. parent-dir.golden is dumpStation's output after that same
// build recovered the directory (the media attached after the
// checkpoint has its row and not its bytes: BLOBs persist only at
// checkpoints).
//
// That build's snapshot and WAL rows named their columns, a grammar
// no reader understands any more, so parent-dir is now the refusal
// case: recovery must fail, name the snapshot, and touch nothing.
// testdata/positional-dir carries the same history in the positional
// grammar, transcoded once from parent-dir record for record: the
// snapshot and every tail record re-encoded with the same generation,
// sequence numbers and values, the search sidecar copied byte for
// byte. Its BLOB sidecar was transcoded again, object for object, when
// the sidecar came to lead with an index: the same hashes, kinds,
// reference counts, names and bytes. It must recover to the unchanged
// golden file. The index is rebuilt from the rows, so the search
// sidecar is never opened: recovery matches the golden file whether
// it is intact, garbage or absent. parent-dir's BLOB sidecar, in the
// layout before the index, is the refusal case for that change.

// dumpStation renders everything a recovery must bring back: every
// row of every table, every BLOB with its refcount and names, and the
// ranked hits of a few queries.
func dumpStation(t *testing.T, s *docdb.Store, ix *search.Index) string {
	t.Helper()
	var b strings.Builder
	rel := s.Rel()
	tables := rel.Tables()
	sort.Strings(tables)
	for _, table := range tables {
		var rows []string
		if err := rel.Scan(table, func(r relstore.Row) bool {
			cols := make([]string, 0, len(r))
			for c := range r {
				cols = append(cols, c)
			}
			sort.Strings(cols)
			var row strings.Builder
			for _, c := range cols {
				fmt.Fprintf(&row, " %s=%s", c, dumpValue(r[c]))
			}
			rows = append(rows, row.String())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sort.Strings(rows)
		fmt.Fprintf(&b, "table %s (%d rows)\n", table, len(rows))
		for _, row := range rows {
			fmt.Fprintf(&b, " %s\n", row)
		}
	}
	for _, ref := range s.Blobs().List() {
		data, err := s.Blobs().Get(ref)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "blob %s size=%d kind=%v refs=%d names=%v sha256=%x\n",
			ref.Hash, ref.Size, ref.Kind, s.Blobs().RefCount(ref), s.Blobs().Names(ref), sha256.Sum256(data))
	}
	for _, q := range []search.Query{
		{Terms: []string{"paging"}, TopK: 50},
		{Terms: []string{"virtual", "memory"}, Phrase: true, TopK: 50},
		{Terms: []string{"lecture"}, TopK: 50},
		{Terms: []string{"late"}, TopK: 50},
	} {
		fmt.Fprintf(&b, "query %v phrase=%v\n", q.Terms, q.Phrase)
		for _, h := range ix.Search(q) {
			fmt.Fprintf(&b, "  %s score=%d snippet=%q\n", h.Key, h.Score, h.Snippet)
		}
	}
	return b.String()
}

func dumpValue(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case []byte:
		return fmt.Sprintf("bytes[%d]:%x", len(x), sha256.Sum256(x))
	case time.Time:
		return "time:" + x.UTC().Format(time.RFC3339Nano)
	default:
		return fmt.Sprintf("%T:%v", v, v)
	}
}

// copyFixture copies the named checked-in directory to a scratch one,
// since recovery attaches the WAL tail for appends and prunes.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join("testdata", name, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestRecoversParentWrittenDirectory(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent-dir.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		touch func(path string) error // applied to the search sidecar
	}{
		{name: "search file intact"},
		{name: "search file garbage", touch: func(path string) error { return os.WriteFile(path, []byte("torn"), 0o644) }},
		{name: "search file absent", touch: os.Remove},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := copyFixture(t, "positional-dir")
			if tc.touch != nil {
				if err := tc.touch(filepath.Join(dir, "search-0000000001")); err != nil {
					t.Fatal(err)
				}
			}
			s, ix, info := durableStore(t, dir)
			if info.Gen != 1 || info.Applied == 0 {
				t.Fatalf("recovery = %+v, want generation 1 with a replayed tail", info)
			}
			if got := dumpStation(t, s, ix); got != string(want) {
				t.Fatalf("recovered state differs from what the parent build wrote:\n--- got\n%s--- want\n%s", got, want)
			}

			// A checkpoint of the recovered state, recovered again with
			// no tail on top, is the same station.
			if _, err := s.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			if err := s.Rel().CloseWAL(); err != nil {
				t.Fatal(err)
			}
			s2, ix2, info2 := durableStore(t, dir)
			if info2.Gen != 2 || info2.Applied != 0 {
				t.Fatalf("second recovery = %+v, want generation 2 and no tail", info2)
			}
			if got := dumpStation(t, s2, ix2); got != string(want) {
				t.Fatalf("state differs after a checkpoint round trip:\n--- got\n%s--- want\n%s", got, want)
			}
		})
	}
}

// TestRefusesNameKeyedDirectory: the directory the name-keyed build
// wrote fails recovery with an error naming its snapshot, and every
// file in it keeps its bytes: nothing is pruned, cut or renamed.
func TestRefusesNameKeyedDirectory(t *testing.T) {
	dir := copyFixture(t, "parent-dir")
	s := newStore(t)
	_, err := s.Recover(dir)
	if !errors.Is(err, relstore.ErrPrePositional) || !strings.Contains(err.Error(), "snap-0000000001") {
		t.Fatalf("Recover err = %v, want ErrPrePositional naming snap-0000000001", err)
	}
	checkUntouched(t, dir, filepath.Join("testdata", "parent-dir"))
}

// checkUntouched fails t unless dir holds exactly the files of want,
// byte for byte.
func checkUntouched(t *testing.T, dir, want string) {
	t.Helper()
	wantFiles, err := os.ReadDir(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantFiles) {
		t.Errorf("directory holds %d files after the refusal, want %d", len(got), len(wantFiles))
	}
	for _, e := range wantFiles {
		orig, err := os.ReadFile(filepath.Join(want, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if after, err := os.ReadFile(filepath.Join(dir, e.Name())); err != nil || !bytes.Equal(after, orig) {
			t.Errorf("%s changed or vanished (err=%v)", e.Name(), err)
		}
	}
}

// TestRefusesPreIndexBlobSidecar: positional-dir with parent-dir's BLOB
// sidecar, written before the sidecar led with an index, fails
// recovery with blob.ErrOldLayout naming the sidecar, every file keeps
// its bytes, and the store, its content index included, is left empty.
func TestRefusesPreIndexBlobSidecar(t *testing.T) {
	dir := copyFixture(t, "positional-dir")
	old, err := os.ReadFile(filepath.Join("testdata", "parent-dir", "blobs-0000000001"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "blobs-0000000001"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	want := copyFixture(t, "positional-dir")
	if err := os.WriteFile(filepath.Join(want, "blobs-0000000001"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	s := newStore(t)
	ix, err := search.Attach(s)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Recover(dir)
	if !errors.Is(err, blob.ErrOldLayout) || !strings.Contains(err.Error(), "blobs-0000000001") {
		t.Fatalf("Recover err = %v, want blob.ErrOldLayout naming blobs-0000000001", err)
	}
	if n := ix.Docs(); n != 0 {
		t.Errorf("the content index holds %d documents after the failed recovery", n)
	}
	checkUntouched(t, dir, want)
}
