package relstore

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// TestSnapshotSlabIsolatesRows: the tuples a snapshot recovery decodes
// into one slab are each capped at their own length, and updating,
// deleting and re-inserting one of them, first through transactions
// and then through the WAL replay of the next restart, leaves its slab
// neighbours as they were.
func TestSnapshotSlabIsolatesRows(t *testing.T) {
	dir := t.TempDir()
	db := newDurableCourseDB(t, dir)
	insertScripts(t, db, 0, 5)
	if _, err := db.Checkpoint(""); err != nil {
		t.Fatal(err)
	}
	db, _ = reopen(t, db, dir)

	rows := db.tables["scripts"].rows
	keys := db.tables["scripts"].sortedKeysLocked()
	for _, pk := range keys {
		if tp := rows[pk]; cap(tp) != len(tp) {
			t.Fatalf("restored tuple %s has capacity %d for %d columns", pk, cap(tp), len(tp))
		}
	}
	prev, target, next := rows[keys[1]], keys[2], rows[keys[3]]
	if !adjacent(prev, rows[target]) || !adjacent(rows[target], next) {
		t.Fatal("the restored tuples do not share one slab; the test would check nothing")
	}
	wantPrev, wantNext := slices.Clone(prev), slices.Clone(next)
	checkNeighbours := func(when string, db *DB) {
		t.Helper()
		rows := db.tables["scripts"].rows
		if got := rows[keys[1]]; !reflect.DeepEqual(got, wantPrev) || cap(got) != len(got) {
			t.Errorf("%s: the row before the rewritten one reads %v (capacity %d), want %v", when, got, cap(got), wantPrev)
		}
		if got := rows[keys[3]]; !reflect.DeepEqual(got, wantNext) || cap(got) != len(got) {
			t.Errorf("%s: the row after the rewritten one reads %v (capacity %d), want %v", when, got, cap(got), wantNext)
		}
		got, err := db.Get("scripts", "s00002")
		if want := (Row{"script_name": "s00002", "author": "again", "version": int64(7)}); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the rewritten row reads %v, %v; want %v", when, got, err, want)
		}
	}

	tx, err := db.Begin("scripts")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("scripts", "s00002", Row{"author": "changed", "version": int64(99), "archived": true}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := deleteRow(db, "scripts", "s00002"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("scripts", Row{"script_name": "s00002", "author": "again", "version": int64(7)}); err != nil {
		t.Fatal(err)
	}
	checkNeighbours("after the transactions", db)

	// The next restart installs the same snapshot and replays the three
	// records over its slab.
	db, info := reopen(t, db, dir)
	if info.Applied != 3 {
		t.Fatalf("the restart replayed %d records, want 3", info.Applied)
	}
	checkNeighbours("after the replay", db)
}

// adjacent reports whether tuple b starts where tuple a ends in memory.
func adjacent(a, b tuple) bool {
	end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(a)), uintptr(len(a))*unsafe.Sizeof(any(nil)))
	return end == unsafe.Pointer(unsafe.SliceData(b))
}
