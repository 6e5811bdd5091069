package search_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

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
// checkpoints). Deleting the fallbacks changed no byte on disk, so the
// single-format readers must bring back exactly that state. The index
// is rebuilt from the rows, so the search sidecar that build wrote is
// never opened: recovery matches the golden file whether it is intact,
// garbage or absent.

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

// copyFixture copies the checked-in directory to a scratch one, since
// recovery attaches the WAL tail for appends and prunes.
func copyFixture(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(filepath.Join("testdata", "parent-dir"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join("testdata", "parent-dir", e.Name()))
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
			dir := copyFixture(t)
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

			// The bytes this build writes are the ones the parent wrote: a
			// checkpoint of the recovered state, recovered again with no
			// tail on top, is the same station.
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
