package relstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

// newDurableCourseDB opens a fresh durable database in dir with the
// course schema installed (the DDL lands in the generation-0 tail).
func newDurableCourseDB(t testing.TB, dir string) *DB {
	t.Helper()
	db := NewDB()
	if _, err := db.OpenDurable(dir); err != nil {
		t.Fatal(err)
	}
	s, i := courseSchemas()
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(i); err != nil {
		t.Fatal(err)
	}
	return db
}

// openDurable opens a fresh durable database in dir.
func openDurable(t testing.TB, dir string) *DB {
	t.Helper()
	db := NewDB()
	if _, err := db.OpenDurable(dir); err != nil {
		t.Fatal(err)
	}
	return db
}

// reopen detaches db's tail and recovers dir into a fresh database,
// the way a restarted station does.
func reopen(t testing.TB, db *DB, dir string) (*DB, *RecoverInfo) {
	t.Helper()
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	db2 := NewDB()
	info, err := db2.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.CloseWAL() })
	return db2, info
}

// roundTrip checkpoints db into a directory of its own and recovers
// that directory into a fresh database.
func roundTrip(t testing.TB, db *DB) *DB {
	t.Helper()
	dir := t.TempDir()
	if _, err := db.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	db2 := NewDB()
	if _, err := db2.OpenDurable(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.CloseWAL() })
	return db2
}

func insertScripts(t testing.TB, db *DB, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := db.Insert("scripts", Row{"script_name": fmt.Sprintf("s%05d", i), "version": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

func countScripts(t testing.TB, db *DB) int {
	t.Helper()
	n, err := db.Count("scripts")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// walSeqs parses the Seq values of every record in a WAL file, in
// order.
func walSeqs(t *testing.T, path string) []uint64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var seqs []uint64
	br := bufio.NewReader(f)
	for {
		payload, err := wire.ReadRecord(br, 0)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, wire.NewReader(payload).Uvarint()) // a record opens with its Seq
	}
	return seqs
}

func TestCheckpointRestartReplaysOnlyTail(t *testing.T) {
	dir := t.TempDir()
	db := newDurableCourseDB(t, dir)
	insertScripts(t, db, 0, 50)
	info, err := db.Checkpoint("")
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != 1 {
		t.Fatalf("first checkpoint generation = %d", info.Gen)
	}
	const tailWrites = 7
	insertScripts(t, db, 50, tailWrites)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	db2 := NewDB()
	rec, err := db2.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The whole point of the checkpoint: restart applies exactly the
	// post-checkpoint tail, not the 50-row history before it.
	if rec.Applied != tailWrites {
		t.Errorf("restart applied %d transactions, want the %d tail writes", rec.Applied, tailWrites)
	}
	if rec.Gen != 1 {
		t.Errorf("restart loaded generation %d, want 1", rec.Gen)
	}
	if got := countScripts(t, db2); got != 57 {
		t.Errorf("restored rows = %d, want 57", got)
	}
	// FK enforcement and further checkpoints work on the recovered DB.
	if err := db2.Insert("impls", Row{"starting_url": "u", "script_name": "s00001"}); err != nil {
		t.Fatal(err)
	}
	info2, err := db2.Checkpoint("")
	if err != nil {
		t.Fatal(err)
	}
	if info2.Gen != 2 {
		t.Errorf("second checkpoint generation = %d, want 2", info2.Gen)
	}
	db2.CloseWAL()
}

// TestOpenDurableCutsTornTail: recovery tolerates a torn final record,
// and it must also cut it before the tail is appended to. Otherwise
// the next commit lands behind the torn bytes, they read back as a
// complete record that fails its CRC, and the station can never
// recover again. On a tail that ends at a record boundary the cut is
// a no-op.
func TestOpenDurableCutsTornTail(t *testing.T) {
	dir := t.TempDir()
	db := newDurableCourseDB(t, dir)
	insertScripts(t, db, 0, 5)
	if err := db.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	tail := filepath.Join(dir, walFileName(0))
	fi, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tail, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	db2 := NewDB()
	if _, err := db2.OpenDurable(dir); err != nil {
		t.Fatalf("recovering the torn tail: %v", err)
	}
	if got := countScripts(t, db2); got != 4 {
		t.Fatalf("recovered %d scripts past a torn fifth insert, want 4", got)
	}
	insertScripts(t, db2, 5, 5)
	if err := db2.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}

	db3 := NewDB()
	if _, err := db3.OpenDurable(dir); err != nil {
		t.Fatalf("recovering after appending past a torn tail: %v", err)
	}
	if got := countScripts(t, db3); got != 9 {
		t.Fatalf("recovered %d scripts, want 9", got)
	}
	if err := db3.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != clean.Size() {
		t.Fatalf("recovering an untorn tail resized it from %d to %d bytes", clean.Size(), after.Size())
	}
}

func TestCheckpointPrunesOldGenerations(t *testing.T) {
	dir := t.TempDir()
	db := newDurableCourseDB(t, dir)
	insertScripts(t, db, 0, 10)
	if _, err := db.Checkpoint(""); err != nil {
		t.Fatal(err)
	}
	insertScripts(t, db, 10, 10)
	if _, err := db.Checkpoint(""); err != nil {
		t.Fatal(err)
	}
	db.CloseWAL()
	snaps, tails, err := scanGenerations(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0] != 2 {
		t.Errorf("snapshots after prune = %v, want [2]", snaps)
	}
	if len(tails) != 1 || tails[0] != 2 {
		t.Errorf("tails after prune = %v, want [2]", tails)
	}
}

// TestKillMidCheckpointKeepsOldGeneration models a crash between the
// WAL rotation and the snapshot rename: the fresh (empty) tail exists,
// the snapshot survives only as a temp file, and the previous
// generation is intact. Recovery must land on the exact pre-kill
// state.
func TestKillMidCheckpointKeepsOldGeneration(t *testing.T) {
	dir := t.TempDir()
	db := newDurableCourseDB(t, dir)
	insertScripts(t, db, 0, 20)
	if _, err := db.Checkpoint(""); err != nil {
		t.Fatal(err)
	}
	insertScripts(t, db, 20, 5)
	db.CloseWAL()

	// The crashed second checkpoint: rotated tail present and empty,
	// snapshot stranded as a temp file, old generation untouched.
	if err := os.WriteFile(filepath.Join(dir, walFileName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapFileName(2)+".tmp-123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := NewDB()
	rec, err := db2.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Gen != 1 || rec.Applied != 5 {
		t.Errorf("recovery = %+v, want gen 1 with the 5 tail writes", rec)
	}
	if got := countScripts(t, db2); got != 25 {
		t.Errorf("restored rows = %d, want 25", got)
	}
	// The stranded temp is cleared, and the next checkpoint skips past
	// the burnt generation number.
	if _, err := os.Stat(filepath.Join(dir, snapFileName(2)+".tmp-123")); !os.IsNotExist(err) {
		t.Error("recovery kept the stranded checkpoint temp file")
	}
	info, err := db2.Checkpoint("")
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != 3 {
		t.Errorf("checkpoint after crashed generation 2 got gen %d, want 3", info.Gen)
	}
	db2.CloseWAL()
}

// TestRecoverFallsBackPastCorruptSnapshot hand-crafts a directory
// whose newest snapshot is garbage while the older generation and the
// full tail chain survive: recovery must fall back and chain-replay
// every tail at or above the loaded generation.
func TestRecoverFallsBackPastCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	db := newDurableCourseDB(t, dir)
	insertScripts(t, db, 0, 10)
	if _, err := db.Checkpoint(""); err != nil { // snap-1, tail wal-1
		t.Fatal(err)
	}
	insertScripts(t, db, 10, 4) // into wal-1
	db.CloseWAL()
	// A corrupt newer snapshot beside an empty newer tail.
	if err := os.WriteFile(filepath.Join(dir, snapFileName(2)), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFileName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := NewDB()
	rec, err := db2.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Gen != 1 {
		t.Errorf("recovery generation = %d, want fallback to 1", rec.Gen)
	}
	if got := countScripts(t, db2); got != 14 {
		t.Errorf("restored rows = %d, want 14", got)
	}
	db2.CloseWAL()
}

func TestRecoverFailsWhenNoSnapshotLoads(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapFileName(1)), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	if _, err := db.OpenDurable(dir); err == nil {
		t.Fatal("recovery over nothing but a corrupt snapshot succeeded")
	}
}

// TestCheckpointSeqContinuity: the WAL sequence runs monotonically
// across rotations and restarts — never restarting at 1, never
// duplicating within a file.
func TestCheckpointSeqContinuity(t *testing.T) {
	dir := t.TempDir()
	db := newDurableCourseDB(t, dir)
	insertScripts(t, db, 0, 3) // seqs 3,4,5 after the two DDL records
	if _, err := db.Checkpoint(""); err != nil {
		t.Fatal(err)
	}
	insertScripts(t, db, 3, 2)
	before := db.LastSeq()
	db.CloseWAL()

	db2 := NewDB()
	if _, err := db2.OpenDurable(dir); err != nil {
		t.Fatal(err)
	}
	insertScripts(t, db2, 5, 2)
	db2.CloseWAL()

	seqs := walSeqs(t, filepath.Join(dir, walFileName(1)))
	if len(seqs) != 4 {
		t.Fatalf("tail holds %d records, want 4 (2 pre-restart + 2 post)", len(seqs))
	}
	last := seqs[0]
	if last <= 3 {
		t.Errorf("first post-checkpoint seq = %d, want continuation past the snapshot's high-water", last)
	}
	for _, s := range seqs[1:] {
		if s <= last {
			t.Fatalf("WAL seqs not strictly increasing across restart: %v", seqs)
		}
		last = s
	}
	if seqs[2] <= before {
		t.Errorf("restarted DB appended seq %d, want > pre-restart high-water %d", seqs[2], before)
	}
}

// TestCheckpointParityWithFullReplay: recovering from checkpoint plus
// tail produces exactly the state a full-history replay of a directory
// that was never checkpointed produces.
func TestCheckpointParityWithFullReplay(t *testing.T) {
	fullDir := t.TempDir()
	ref := newDurableCourseDB(t, fullDir)

	dir := t.TempDir()
	db := newDurableCourseDB(t, dir)
	apply := func(op func(d *DB) error) {
		if err := op(ref); err != nil {
			t.Fatal(err)
		}
		if err := op(db); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		i := i
		apply(func(d *DB) error {
			return d.Insert("scripts", Row{"script_name": fmt.Sprintf("s%03d", i), "version": int64(i)})
		})
		if i%7 == 0 {
			apply(func(d *DB) error {
				return d.Update("scripts", fmt.Sprintf("s%03d", i), Row{"version": int64(i * 10)})
			})
		}
		if i == 15 || i == 30 {
			if _, err := db.Checkpoint(""); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(func(d *DB) error { return d.Delete("scripts", "s002") })
	fromFull, _ := reopen(t, ref, fullDir)
	fromCkpt, _ := reopen(t, db, dir)
	a, err := fromCkpt.Select(Query{Table: "scripts"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := fromFull.Select(Query{Table: "scripts"})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("row counts differ: checkpoint+tail %d, full replay %d", len(a), len(b))
	}
	for r := range a {
		for _, col := range []string{"script_name", "version"} {
			if compareValues(a[r][col], b[r][col]) != 0 {
				t.Fatalf("row %d %s: checkpoint+tail %v, full replay %v", r, col, a[r][col], b[r][col])
			}
		}
	}
}

func TestCheckpointWithoutDirFails(t *testing.T) {
	db := NewDB()
	if _, err := db.Checkpoint(""); err == nil {
		t.Fatal("checkpoint with no attached durability directory succeeded")
	}
}

// TestOpenDurableRefusesAttachedWAL: a second OpenDurable, over the
// same directory or another one, fails with ErrWALOpen and writes
// nothing to the directory it was given.
func TestOpenDurableRefusesAttachedWAL(t *testing.T) {
	dir, other := t.TempDir(), t.TempDir()
	db := newDurableCourseDB(t, dir)
	defer db.CloseWAL()
	for _, d := range []string{dir, other} {
		if _, err := db.OpenDurable(d); !errors.Is(err, ErrWALOpen) {
			t.Fatalf("second OpenDurable(%s) err = %v, want ErrWALOpen", d, err)
		}
	}
	if entries, err := os.ReadDir(other); err != nil || len(entries) != 0 {
		t.Errorf("the refused OpenDurable wrote %d files (err %v)", len(entries), err)
	}
}

// BenchmarkRestart compares the two restart paths over the same ≥10k
// transaction history: recovering a directory that was never
// checkpointed, which replays the full WAL, versus loading the latest
// checkpoint and replaying only the tail. The checkpoint path's cost
// is bounded by the tail, so it must win by a wide margin.
func BenchmarkRestart(b *testing.B) {
	const history = 10000
	const tail = 100

	fullDir := b.TempDir()
	{
		db := newDurableCourseDB(b, fullDir)
		insertScripts(b, db, 0, history)
		if err := db.CloseWAL(); err != nil {
			b.Fatal(err)
		}
	}

	ckptDir := b.TempDir()
	{
		db := newDurableCourseDB(b, ckptDir)
		insertScripts(b, db, 0, history-tail)
		if _, err := db.Checkpoint(""); err != nil {
			b.Fatal(err)
		}
		insertScripts(b, db, history-tail, tail)
		if err := db.CloseWAL(); err != nil {
			b.Fatal(err)
		}
	}

	restart := func(b *testing.B, dir string, want func(applied int) bool) {
		for i := 0; i < b.N; i++ {
			db := NewDB()
			rec, err := db.OpenDurable(dir)
			if err != nil {
				b.Fatal(err)
			}
			if !want(rec.Applied) {
				b.Fatalf("restart applied %d transactions", rec.Applied)
			}
			db.CloseWAL()
		}
	}
	b.Run("wal-only", func(b *testing.B) {
		restart(b, fullDir, func(applied int) bool { return applied >= history })
	})
	b.Run("checkpoint-tail", func(b *testing.B) {
		restart(b, ckptDir, func(applied int) bool { return applied == tail })
	})
}
