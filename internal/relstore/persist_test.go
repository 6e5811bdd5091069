package relstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	db := newCourseDB(t)
	created := time.Date(1999, 4, 21, 10, 0, 0, 0, time.UTC)
	if err := db.Insert("scripts", Row{"script_name": "s", "created": created, "version": 2}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("impls", Row{"starting_url": "u", "script_name": "s", "payload": []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("scripts", "author"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	db2 := NewDB()
	if err := db2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := db2.Get("scripts", "s")
	if err != nil {
		t.Fatal(err)
	}
	if !got["created"].(time.Time).Equal(created) || got["version"] != int64(2) {
		t.Errorf("restored row = %+v", got)
	}
	impl, err := db2.Get("impls", "u")
	if err != nil {
		t.Fatal(err)
	}
	if b := impl["payload"].([]byte); len(b) != 3 || b[0] != 1 {
		t.Errorf("restored payload = %v", b)
	}
	// FK behaviour must survive the restore.
	if err := db2.Delete("scripts", "s"); err == nil {
		t.Error("restored DB lost FK enforcement")
	}
	// Secondary indexes must survive the restore.
	rows, err := db2.Select(Query{Table: "scripts", Conds: []Cond{{Col: "author", Op: OpEq, Val: nil}}})
	if err != nil {
		t.Fatal(err)
	}
	_ = rows
}

func TestWALReplayRebuildsDatabase(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "db.wal")

	db := NewDB()
	if err := db.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	s, i := courseSchemas()
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(i); err != nil {
		t.Fatal(err)
	}
	created := time.Date(1999, 4, 21, 10, 0, 0, 0, time.UTC)
	if err := db.Insert("scripts", Row{"script_name": "a", "created": created}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("scripts", Row{"script_name": "b", "version": 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("impls", Row{"starting_url": "u", "script_name": "a", "payload": []byte{9, 8}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update("scripts", "b", Row{"version": 5}); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("scripts", "a"); err == nil {
		t.Fatal("expected FK restrict")
	}
	if err := db.Delete("impls", "u"); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db2 := NewDB()
	applied, _, err := db2.ReplayWAL(f)
	if err != nil {
		t.Fatalf("replay failed after %d records: %v", applied, err)
	}
	if applied < 6 { // 2 DDL + 3 inserts + 1 update + 1 delete (failed delete unlogged)
		t.Errorf("applied = %d, want >= 6", applied)
	}
	got, err := db2.Get("scripts", "b")
	if err != nil {
		t.Fatal(err)
	}
	if got["version"] != int64(5) {
		t.Errorf("replayed version = %v, want 5", got["version"])
	}
	a, err := db2.Get("scripts", "a")
	if err != nil {
		t.Fatal(err)
	}
	if !a["created"].(time.Time).Equal(created) {
		t.Errorf("replayed time = %v, want %v", a["created"], created)
	}
	if db2.Exists("impls", "u") {
		t.Error("deleted row resurrected by replay")
	}
}

func TestWALRollbackLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "db.wal")
	db := NewDB()
	if err := db.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	s, _ := courseSchemas()
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	if err := tx.Insert("scripts", Row{"script_name": "ghost"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db2 := NewDB()
	if _, _, err := db2.ReplayWAL(f); err != nil {
		t.Fatal(err)
	}
	if db2.Exists("scripts", "ghost") {
		t.Error("rolled-back insert reached the WAL")
	}
}

func TestWALBytesRoundTripExact(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "db.wal")
	db := NewDB()
	if err := db.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	s, i := courseSchemas()
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(i); err != nil {
		t.Fatal(err)
	}
	// A payload that is itself valid base64 text must not be corrupted.
	tricky := []byte("aGVsbG8=")
	if err := db.Insert("impls", Row{"starting_url": "u", "payload": tricky}); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db2 := NewDB()
	if _, _, err := db2.ReplayWAL(f); err != nil {
		t.Fatal(err)
	}
	got, err := db2.Get("impls", "u")
	if err != nil {
		t.Fatal(err)
	}
	if string(got["payload"].([]byte)) != "aGVsbG8=" {
		t.Errorf("payload corrupted: %q", got["payload"])
	}
}

// TestReplayToleratesTornTail: a crash mid-append truncates the final
// record; everything before it must replay cleanly, without an error.
func TestReplayToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "db.wal")
	db := NewDB()
	if err := db.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	s, _ := courseSchemas()
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("scripts", Row{"script_name": "whole"}); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Append a torn copy of the last record: a prefix cut mid-value.
	last := bytes.TrimRight(raw, "\n")
	last = last[bytes.LastIndexByte(last, '\n')+1:]
	torn := append(append([]byte{}, raw...), last[:len(last)/2]...)

	db2 := NewDB()
	applied, maxSeq, err := db2.ReplayWAL(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail failed the replay: %v", err)
	}
	if applied != 2 { // the DDL record and the complete insert
		t.Errorf("applied = %d, want 2", applied)
	}
	if maxSeq != 2 {
		t.Errorf("maxSeq = %d, want 2", maxSeq)
	}
	if !db2.Exists("scripts", "whole") {
		t.Error("complete record before the torn tail was not replayed")
	}
}

// TestReplayUnboundedRecordSize: a single committed transaction beyond
// the old line scanner's 64 MiB cap (a big ImportBundle batch) must
// replay instead of failing with bufio.ErrTooLong.
func TestReplayUnboundedRecordSize(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a >64 MiB WAL record")
	}
	dir := t.TempDir()
	walPath := filepath.Join(dir, "db.wal")
	db := NewDB()
	if err := db.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	s, _ := courseSchemas()
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", 65<<20)
	if err := db.Insert("scripts", Row{"script_name": "big", "author": big}); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() <= 64<<20 {
		t.Fatalf("test premise broken: WAL is %v bytes, want > 64 MiB", fi.Size())
	}
	f, err := os.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db2 := NewDB()
	if _, _, err := db2.ReplayWAL(f); err != nil {
		t.Fatalf("replay of an oversized record failed: %v", err)
	}
	got, err := db2.Get("scripts", "big")
	if err != nil {
		t.Fatal(err)
	}
	if got["author"].(string) != big {
		t.Error("oversized value corrupted by replay")
	}
}

// TestOpenWALSecondAttachFails: attaching a second log must not
// silently orphan the first one's handle and buffered records.
func TestOpenWALSecondAttachFails(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "first.wal")
	db := NewDB()
	if err := db.OpenWAL(first); err != nil {
		t.Fatal(err)
	}
	s, _ := courseSchemas()
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	if err := db.OpenWAL(filepath.Join(dir, "second.wal")); !errors.Is(err, ErrWALOpen) {
		t.Fatalf("second OpenWAL err = %v, want ErrWALOpen", err)
	}
	// The original log keeps working and keeps every record.
	if err := db.Insert("scripts", Row{"script_name": "after"}); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(first)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db2 := NewDB()
	if _, _, err := db2.ReplayWAL(f); err != nil {
		t.Fatal(err)
	}
	if !db2.Exists("scripts", "after") {
		t.Error("write after the refused re-attach is missing from the first log")
	}
}

// TestReopenedWALResumesSeq: a restarted station replaying its log and
// appending to the same file must continue the sequence numbering, not
// restart it at 1.
func TestReopenedWALResumesSeq(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "db.wal")
	db := NewDB()
	if err := db.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	s, _ := courseSchemas()
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := db.Insert("scripts", Row{"script_name": fmt.Sprintf("a%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// The restart: replay, then append to the same file.
	db2 := NewDB()
	f, err := os.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	_, maxSeq, err := db2.ReplayWAL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if maxSeq != 4 { // 1 DDL + 3 inserts
		t.Fatalf("replay high-water = %d, want 4", maxSeq)
	}
	if err := db2.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := db2.Insert("scripts", Row{"script_name": fmt.Sprintf("b%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db2.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	var prev uint64
	for _, seq := range walSeqs(t, walPath) {
		if seq <= prev {
			t.Fatalf("seq %d after %d: reopened WAL does not continue monotonically", seq, prev)
		}
		prev = seq
	}
	if prev != 6 {
		t.Errorf("final seq = %d, want 6", prev)
	}
}

func TestSnapshotOfEmptyDB(t *testing.T) {
	db := NewDB()
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := NewDB()
	if err := db2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if len(db2.Tables()) != 0 {
		t.Error("empty snapshot produced tables")
	}
}

// Property: for a random op sequence, replaying the WAL into a fresh
// engine reproduces exactly the same table contents as the live engine.
func TestQuickWALReplayEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		dir := t.TempDir()
		walPath := filepath.Join(dir, "q.wal")
		db := NewDB()
		if err := db.OpenWAL(walPath); err != nil {
			return false
		}
		s, i := courseSchemas()
		if err := db.CreateTable(s); err != nil {
			return false
		}
		if err := db.CreateTable(i); err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 120; op++ {
			name := fmt.Sprintf("s%d", rng.Intn(20))
			switch rng.Intn(4) {
			case 0:
				db.Insert("scripts", Row{"script_name": name, "version": int64(rng.Intn(5))})
			case 1:
				db.Update("scripts", name, Row{"version": int64(rng.Intn(9))})
			case 2:
				db.Delete("scripts", name)
			case 3:
				url := fmt.Sprintf("u%d", rng.Intn(10))
				if rng.Intn(2) == 0 {
					db.Insert("impls", Row{"starting_url": url, "script_name": name})
				} else {
					db.Delete("impls", url)
				}
			}
		}
		if err := db.CloseWAL(); err != nil {
			return false
		}
		f, err := os.Open(walPath)
		if err != nil {
			return false
		}
		defer f.Close()
		db2 := NewDB()
		if _, _, err := db2.ReplayWAL(f); err != nil {
			return false
		}
		for _, table := range []string{"scripts", "impls"} {
			a, err1 := db.Select(Query{Table: table})
			b, err2 := db2.Select(Query{Table: table})
			if err1 != nil || err2 != nil || len(a) != len(b) {
				return false
			}
			for r := range a {
				for _, col := range []string{"script_name", "starting_url", "version"} {
					if compareValues(a[r][col], b[r][col]) != 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
