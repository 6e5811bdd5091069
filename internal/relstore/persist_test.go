package relstore

import (
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

	db2 := roundTrip(t, db)
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
	if err := deleteRow(db2, "scripts", "s"); err == nil {
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
	db := newDurableCourseDB(t, dir)
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
	if err := deleteRow(db, "scripts", "a"); err == nil {
		t.Fatal("expected FK restrict")
	}
	if err := deleteRow(db, "impls", "u"); err != nil {
		t.Fatal(err)
	}
	db2, info := reopen(t, db, dir)
	if applied := info.Applied; applied < 6 { // 2 DDL + 3 inserts + 1 update + 1 delete (failed delete unlogged)
		t.Errorf("applied = %d, want >= 6", info.Applied)
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
	db := newDurableCourseDB(t, dir)
	tx, _ := db.Begin()
	if err := tx.Insert("scripts", Row{"script_name": "ghost"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if db2, _ := reopen(t, db, dir); db2.Exists("scripts", "ghost") {
		t.Error("rolled-back insert reached the WAL")
	}
}

func TestWALBytesRoundTripExact(t *testing.T) {
	dir := t.TempDir()
	db := newDurableCourseDB(t, dir)
	// A payload that is itself valid base64 text must not be corrupted.
	tricky := []byte("aGVsbG8=")
	if err := db.Insert("impls", Row{"starting_url": "u", "payload": tricky}); err != nil {
		t.Fatal(err)
	}
	db2, _ := reopen(t, db, dir)
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
	walPath := filepath.Join(dir, walFileName(0))
	db := openDurable(t, dir)
	s, _ := courseSchemas()
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	ddlEnd := fileSize(t, walPath) // appends flush
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
	last := raw[ddlEnd:]
	torn := append(append([]byte{}, raw...), last[:len(last)/2]...)
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := NewDB()
	info, err := db2.OpenDurable(dir)
	if err != nil {
		t.Fatalf("torn tail failed the recovery: %v", err)
	}
	defer db2.CloseWAL()
	if info.Applied != 2 { // the DDL record and the complete insert
		t.Errorf("applied = %d, want 2", info.Applied)
	}
	if info.Seq != 2 {
		t.Errorf("seq = %d, want 2", info.Seq)
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
	db := newDurableCourseDB(t, dir)
	big := strings.Repeat("x", 65<<20)
	if err := db.Insert("scripts", Row{"script_name": "big", "author": big}); err != nil {
		t.Fatal(err)
	}
	if size := fileSize(t, filepath.Join(dir, walFileName(0))); size <= 64<<20 {
		t.Fatalf("test premise broken: WAL is %v bytes, want > 64 MiB", size)
	}
	db2, _ := reopen(t, db, dir)
	got, err := db2.Get("scripts", "big")
	if err != nil {
		t.Fatal(err)
	}
	if got["author"].(string) != big {
		t.Error("oversized value corrupted by replay")
	}
}

// TestOpenWALSecondAttachFails: attaching a second log must not
// silently orphan the first one's handle and buffered records. The
// refused attach leaves the first log working, and it keeps every
// record.
func TestOpenWALSecondAttachFails(t *testing.T) {
	dir := t.TempDir()
	db := newDurableCourseDB(t, dir)
	if _, err := db.OpenDurable(t.TempDir()); !errors.Is(err, ErrWALOpen) {
		t.Fatalf("second OpenDurable err = %v, want ErrWALOpen", err)
	}
	if err := db.Insert("scripts", Row{"script_name": "after"}); err != nil {
		t.Fatal(err)
	}
	db2, _ := reopen(t, db, dir)
	if !db2.Exists("scripts", "after") {
		t.Error("write after the refused re-attach is missing from the first log")
	}
}

// TestReopenedWALResumesSeq: a restarted station appending to the tail
// it recovered must continue the sequence numbering, not restart it
// at 1.
func TestReopenedWALResumesSeq(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	s, _ := courseSchemas()
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := db.Insert("scripts", Row{"script_name": fmt.Sprintf("a%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	db2, info := reopen(t, db, dir)
	if info.Seq != 4 || db2.LastSeq() != 4 { // 1 DDL + 3 inserts
		t.Fatalf("recovered seq = %d, LastSeq = %d, want 4", info.Seq, db2.LastSeq())
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
	for _, seq := range walSeqs(t, filepath.Join(dir, walFileName(0))) {
		if seq <= prev {
			t.Fatalf("seq %d after %d: reopened WAL does not continue monotonically", seq, prev)
		}
		prev = seq
	}
	if prev != 6 || db2.LastSeq() != 6 {
		t.Errorf("final seq = %d, LastSeq after CloseWAL = %d, want 6", prev, db2.LastSeq())
	}
}

func TestSnapshotOfEmptyDB(t *testing.T) {
	if tables := roundTrip(t, NewDB()).Tables(); len(tables) != 0 {
		t.Errorf("empty snapshot produced tables %v", tables)
	}
}

// Property: for a random op sequence, replaying the WAL into a fresh
// engine reproduces exactly the same table contents as the live engine.
func TestQuickWALReplayEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		dir := t.TempDir()
		db := newDurableCourseDB(t, dir)
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 120; op++ {
			name := fmt.Sprintf("s%d", rng.Intn(20))
			switch rng.Intn(4) {
			case 0:
				db.Insert("scripts", Row{"script_name": name, "version": int64(rng.Intn(5))})
			case 1:
				db.Update("scripts", name, Row{"version": int64(rng.Intn(9))})
			case 2:
				deleteRow(db, "scripts", name)
			case 3:
				url := fmt.Sprintf("u%d", rng.Intn(10))
				if rng.Intn(2) == 0 {
					db.Insert("impls", Row{"starting_url": url, "script_name": name})
				} else {
					deleteRow(db, "impls", url)
				}
			}
		}
		db2, _ := reopen(t, db, dir)
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
