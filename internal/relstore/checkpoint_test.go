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
// tail produces exactly the state a full-history replay produces.
func TestCheckpointParityWithFullReplay(t *testing.T) {
	full := filepath.Join(t.TempDir(), "full.wal")
	ref := NewDB()
	if err := ref.OpenWAL(full); err != nil {
		t.Fatal(err)
	}
	s, i := courseSchemas()
	if err := ref.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	if err := ref.CreateTable(i); err != nil {
		t.Fatal(err)
	}

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
	ref.CloseWAL()
	db.CloseWAL()

	fromCkpt := NewDB()
	if _, err := fromCkpt.OpenDurable(dir); err != nil {
		t.Fatal(err)
	}
	fromFull := NewDB()
	f, err := os.Open(full)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, err := fromFull.ReplayWAL(f); err != nil {
		t.Fatal(err)
	}
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
	fromCkpt.CloseWAL()
}

func TestCheckpointWithoutDirFails(t *testing.T) {
	db := NewDB()
	if _, err := db.Checkpoint(""); err == nil {
		t.Fatal("checkpoint with no attached durability directory succeeded")
	}
}

func TestOpenDurableRefusesAttachedWAL(t *testing.T) {
	db := NewDB()
	if err := db.OpenWAL(filepath.Join(t.TempDir(), "w.wal")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.OpenDurable(t.TempDir()); !errors.Is(err, ErrWALOpen) {
		t.Fatalf("err = %v, want ErrWALOpen", err)
	}
	db.CloseWAL()
}

// BenchmarkRestart compares the two restart paths over the same ≥10k
// transaction history: replaying the full WAL versus loading the
// latest checkpoint and replaying only the tail. The checkpoint path's
// cost is bounded by the tail, so it must win by a wide margin.
func BenchmarkRestart(b *testing.B) {
	const history = 10000
	const tail = 100

	fullPath := filepath.Join(b.TempDir(), "full.wal")
	{
		db := NewDB()
		if err := db.OpenWAL(fullPath); err != nil {
			b.Fatal(err)
		}
		s, i := courseSchemas()
		if err := db.CreateTable(s); err != nil {
			b.Fatal(err)
		}
		if err := db.CreateTable(i); err != nil {
			b.Fatal(err)
		}
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

	b.Run("wal-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := NewDB()
			f, err := os.Open(fullPath)
			if err != nil {
				b.Fatal(err)
			}
			applied, _, err := db.ReplayWAL(f)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			if applied < history {
				b.Fatalf("replayed %d transactions, want >= %d", applied, history)
			}
		}
	})

	b.Run("checkpoint-tail", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := NewDB()
			rec, err := db.OpenDurable(ckptDir)
			if err != nil {
				b.Fatal(err)
			}
			if rec.Applied != tail {
				b.Fatalf("restart applied %d transactions, want only the %d tail writes", rec.Applied, tail)
			}
			db.CloseWAL()
		}
	})
}
