package relstore

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// concDB builds three tables for the concurrency tests: an FK pair
// (authors <- docs) plus an unrelated notes table, so the stress mix
// exercises write locks, neighbour read locks and disjoint-table
// parallelism at once.
func concDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	for _, s := range []Schema{
		{
			Name: "authors",
			Columns: []Column{
				{Name: "name", Type: TText, NotNull: true},
				{Name: "rank", Type: TInt},
			},
			Key: "name",
		},
		{
			Name: "docs",
			Columns: []Column{
				{Name: "id", Type: TInt, NotNull: true},
				{Name: "author", Type: TText},
				{Name: "title", Type: TText},
			},
			Key:         "id",
			ForeignKeys: []ForeignKey{{Column: "author", RefTable: "authors"}},
		},
		{
			Name: "notes",
			Columns: []Column{
				{Name: "id", Type: TInt, NotNull: true},
				{Name: "body", Type: TText},
			},
			Key: "id",
		},
	} {
		if err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := db.Insert("authors", Row{"name": fmt.Sprintf("a%d", i), "rank": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestConcurrentMultiTableStress hammers the engine with parallel
// writers (inserts, updates, deletes, rollbacks) and readers across the
// three tables. Run with -race; the assertions then check that every
// committed row is consistent and referential integrity held.
func TestConcurrentMultiTableStress(t *testing.T) {
	db := concDB(t)
	const (
		writers = 4
		readers = 4
		iters   = 300
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := int64(w*iters + i)
				switch i % 5 {
				case 0, 1:
					err := db.Insert("docs", Row{"id": id, "author": fmt.Sprintf("a%d", i%10), "title": "doc"})
					if err != nil {
						errs <- err
						return
					}
				case 2:
					if err := db.Insert("notes", Row{"id": id, "body": "n"}); err != nil {
						errs <- err
						return
					}
				case 3:
					// Rolled-back transactions must leave no trace.
					tx, err := db.Begin("docs")
					if err != nil {
						errs <- err
						return
					}
					if err := tx.Insert("docs", Row{"id": id + 1_000_000, "author": "a0"}); err != nil {
						tx.Rollback()
						errs <- err
						return
					}
					if err := tx.Rollback(); err != nil {
						errs <- err
						return
					}
				case 4:
					// Insert and delete the same row so writers also
					// exercise the referencer read locks.
					if err := db.Insert("docs", Row{"id": id + 2_000_000}); err != nil {
						errs <- err
						return
					}
					if err := deleteRow(db, "docs", id+2_000_000); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0:
					if _, err := db.Get("authors", fmt.Sprintf("a%d", i%10)); err != nil {
						errs <- err
						return
					}
				case 1:
					_, err := db.Select(Query{Table: "docs", Conds: []Cond{{Col: "author", Op: OpEq, Val: fmt.Sprintf("a%d", i%10)}}})
					if err != nil {
						errs <- err
						return
					}
				case 2:
					if err := db.Scan("notes", func(Row) bool { return true }); err != nil {
						errs <- err
						return
					}
				case 3:
					if _, err := db.Count("docs"); err != nil {
						errs <- err
						return
					}
				}
			}
		}(r)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Committed inserts: per writer, iters worth of i%5 in {0,1} docs and
	// i%5==2 notes; the case-3 rollbacks and case-4 insert+delete pairs
	// must have vanished.
	wantDocs, wantNotes := 0, 0
	for i := 0; i < iters; i++ {
		switch i % 5 {
		case 0, 1:
			wantDocs++
		case 2:
			wantNotes++
		}
	}
	if n, _ := db.Count("docs"); n != writers*wantDocs {
		t.Errorf("docs count = %d, want %d", n, writers*wantDocs)
	}
	if n, _ := db.Count("notes"); n != writers*wantNotes {
		t.Errorf("notes count = %d, want %d", n, writers*wantNotes)
	}
	if err := db.verifyAllFKs(); err != nil {
		t.Errorf("referential integrity violated after stress: %v", err)
	}
}

// TestConcurrentTxDisjointTables checks that declared transactions on
// disjoint tables commit in parallel without interference.
func TestConcurrentTxDisjointTables(t *testing.T) {
	db := concDB(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			table := "notes"
			if g%2 == 0 {
				table = "docs"
			}
			tx, err := db.Begin(table)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 50; i++ {
				if err := tx.Insert(table, Row{"id": int64(g*1000 + i)}); err != nil {
					tx.Rollback()
					t.Error(err)
					return
				}
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if n, _ := db.Count("docs"); n != 4*50 {
		t.Errorf("docs = %d, want 200", n)
	}
	if n, _ := db.Count("notes"); n != 4*50 {
		t.Errorf("notes = %d, want 200", n)
	}
}

// TestTxLocksOnlyWhatItDeclares: a transaction reads only the tables
// it holds and writes only the tables it declared. Anything else fails
// with ErrUndeclared and takes no lock, so another writer of that
// table commits while the transaction is still open.
func TestTxLocksOnlyWhatItDeclares(t *testing.T) {
	db := concDB(t)

	tx, err := db.Begin("notes")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get("docs", int64(1)); !errors.Is(err, ErrUndeclared) {
		t.Errorf("Get of an undeclared table: err = %v, want ErrUndeclared", err)
	}
	if _, err := tx.Select(Query{Table: "docs"}); !errors.Is(err, ErrUndeclared) {
		t.Errorf("Select of an undeclared table: err = %v, want ErrUndeclared", err)
	}
	if _, err := tx.Count(Query{Table: "docs"}); !errors.Is(err, ErrUndeclared) {
		t.Errorf("Count of an undeclared table: err = %v, want ErrUndeclared", err)
	}
	if err := tx.Insert("docs", Row{"id": int64(1)}); !errors.Is(err, ErrUndeclared) {
		t.Errorf("Insert into an undeclared table: err = %v, want ErrUndeclared", err)
	}
	if err := tx.Insert("nope", Row{"id": int64(1)}); !errors.Is(err, ErrNoTable) {
		t.Errorf("Insert into a missing table: err = %v, want ErrNoTable", err)
	}
	committed := make(chan error, 1)
	go func() { committed <- db.Insert("docs", Row{"id": int64(2), "author": "a1"}) }()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a write to docs waited on a transaction that never declared it")
	}
	if err := tx.Insert("notes", Row{"id": int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// A foreign-key neighbour is held shared: readable, not writable.
	tx, err = db.Begin("docs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get("authors", "a0"); err != nil {
		t.Errorf("Get of a foreign-key neighbour: %v", err)
	}
	if err := tx.Insert("authors", Row{"name": "new"}); !errors.Is(err, ErrUndeclared) {
		t.Errorf("Insert into a foreign-key neighbour: err = %v, want ErrUndeclared", err)
	}
	if err := tx.Update("authors", "a0", Row{"rank": int64(7)}); !errors.Is(err, ErrUndeclared) {
		t.Errorf("Update of a foreign-key neighbour: err = %v, want ErrUndeclared", err)
	}
	if err := tx.Insert("docs", Row{"id": int64(3), "author": "a0"}); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if db.Exists("authors", "new") || db.Exists("docs", int64(3)) {
		t.Error("rolled-back rows visible after Rollback")
	}

	// Declaring tables at Begin in any order permits any op order.
	tx, err = db.Begin("notes", "docs", "authors")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("notes", Row{"id": int64(4)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("authors", Row{"name": "declared"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("docs", Row{"id": int64(4), "author": "declared"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestBeginPermutationsCommit: six goroutines each declare the same
// three foreign-key-linked tables (courses <- lectures <- slides) in a
// different order and commit 500 transactions over all three. Begin
// sorts what it is given, so no order deadlocks. Run it under -race.
func TestBeginPermutationsCommit(t *testing.T) {
	db := NewDB()
	for _, s := range []Schema{
		{Name: "courses", Columns: []Column{{Name: "id", Type: TInt, NotNull: true}}, Key: "id"},
		{
			Name:        "lectures",
			Columns:     []Column{{Name: "id", Type: TInt, NotNull: true}, {Name: "course", Type: TInt}},
			Key:         "id",
			ForeignKeys: []ForeignKey{{Column: "course", RefTable: "courses"}},
		},
		{
			Name:        "slides",
			Columns:     []Column{{Name: "id", Type: TInt, NotNull: true}, {Name: "lecture", Type: TInt}},
			Key:         "id",
			ForeignKeys: []ForeignKey{{Column: "lecture", RefTable: "lectures"}},
		},
	} {
		if err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	perms := [][]string{
		{"courses", "lectures", "slides"},
		{"courses", "slides", "lectures"},
		{"lectures", "courses", "slides"},
		{"lectures", "slides", "courses"},
		{"slides", "courses", "lectures"},
		{"slides", "lectures", "courses"},
	}
	const commits = 500
	errs := make(chan error, len(perms))
	for g, tables := range perms {
		go func(g int, tables []string) {
			for i := 0; i < commits; i++ {
				id := int64(g*commits + i)
				tx, err := db.Begin(tables...)
				if err == nil {
					err = tx.Insert("courses", Row{"id": id})
				}
				if err == nil {
					err = tx.Insert("lectures", Row{"id": id, "course": id})
				}
				if err == nil {
					err = tx.Insert("slides", Row{"id": id, "lecture": id})
				}
				if err == nil {
					err = tx.Commit()
				}
				if err != nil {
					errs <- fmt.Errorf("order %v, commit %d: %w", tables, i, err)
					return
				}
			}
			errs <- nil
		}(g, tables)
	}
	deadline := time.After(30 * time.Second)
	for range perms {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("transactions declaring the same tables in different orders did not all commit within 30 s")
		}
	}
	for _, table := range []string{"courses", "lectures", "slides"} {
		if n, _ := db.Count(table); n != len(perms)*commits {
			t.Errorf("%s has %d rows, want %d", table, n, len(perms)*commits)
		}
	}
}

func TestBeginUnknownTable(t *testing.T) {
	db := concDB(t)
	if _, err := db.Begin("nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("err = %v, want ErrNoTable", err)
	}
}

func TestTxReadsSeeOwnWrites(t *testing.T) {
	db := concDB(t)
	tx, err := db.Begin("notes")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("notes", Row{"id": int64(7), "body": "draft"}); err != nil {
		t.Fatal(err)
	}
	row, err := tx.Get("notes", int64(7))
	if err != nil {
		t.Fatalf("tx.Get after tx.Insert: %v", err)
	}
	if row["body"] != "draft" {
		t.Errorf("row = %+v", row)
	}
	rows, err := tx.Select(Query{Table: "notes"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Errorf("tx.Select saw %d rows, want 1", len(rows))
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if db.Exists("notes", int64(7)) {
		t.Error("rolled-back insert visible after Rollback")
	}
}

func TestBatchAtomicity(t *testing.T) {
	db := concDB(t)
	var b Batch
	b.Insert("docs", Row{"id": int64(1), "author": "a0"})
	b.Insert("notes", Row{"id": int64(1)})
	b.Insert("docs", Row{"id": int64(2), "author": "ghost"}) // FK violation
	if err := db.Apply(&b); !errors.Is(err, ErrFK) {
		t.Fatalf("err = %v, want ErrFK", err)
	}
	if n, _ := db.Count("docs"); n != 0 {
		t.Errorf("docs = %d after failed batch, want 0", n)
	}
	if n, _ := db.Count("notes"); n != 0 {
		t.Errorf("notes = %d after failed batch, want 0", n)
	}

	b = Batch{}
	b.Insert("docs", Row{"id": int64(1), "author": "a0"})
	b.Update("docs", int64(1), Row{"title": "batched"})
	b.Insert("notes", Row{"id": int64(1)})
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	row, err := db.Get("docs", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if row["title"] != "batched" {
		t.Errorf("row = %+v", row)
	}
	if err := db.Apply(nil); err != nil {
		t.Errorf("nil batch: %v", err)
	}
}

// TestBatchSingleWALAppend verifies the amortization claim: one applied
// batch appends exactly one committed WAL line regardless of size.
func TestBatchSingleWALAppend(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, walFileName(0))
	db := openDurable(t, dir)
	if err := db.CreateTable(Schema{
		Name:    "t",
		Columns: []Column{{Name: "id", Type: TInt, NotNull: true}},
		Key:     "id",
	}); err != nil {
		t.Fatal(err)
	}
	ddl := len(walSeqs(t, walPath))
	var b Batch
	for i := 0; i < 100; i++ {
		b.Insert("t", Row{"id": int64(i)})
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if records := len(walSeqs(t, walPath)) - ddl; records != 1 {
		t.Errorf("WAL records = %d for one batch, want 1", records)
	}

	// And the single line replays back to the full table.
	db2, _ := reopen(t, db, dir)
	if n, _ := db2.Count("t"); n != 100 {
		t.Errorf("replayed rows = %d, want 100", n)
	}
}

// TestConcurrentBatchesAndSnapshots mixes Apply with Checkpoint to
// check that the checkpoint's all-table read lock composes with batch
// commits, and that the last image holds every committed batch.
func TestConcurrentBatchesAndSnapshots(t *testing.T) {
	db := concDB(t)
	dir := t.TempDir()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var b Batch
				for j := 0; j < 10; j++ {
					b.Insert("notes", Row{"id": int64(g*10_000 + i*10 + j)})
				}
				if err := db.Apply(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := db.Checkpoint(dir); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if n, _ := db.Count("notes"); n != 4*20*10 {
		t.Errorf("notes = %d, want 800", n)
	}
	if n, _ := roundTrip(t, db).Count("notes"); n != 4*20*10 {
		t.Errorf("notes after a checkpoint round trip = %d, want 800", n)
	}
}

// TestReplayBesideReaders: recovery replays its tail while readers
// already share the database. Each record inserts two rows, and a
// reader must never see one without the other.
func TestReplayBesideReaders(t *testing.T) {
	schema := Schema{Name: "notes", Columns: []Column{{Name: "id", Type: TInt, NotNull: true}}, Key: "id"}
	dir := t.TempDir()
	src := openDurable(t, dir)
	if err := src.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Checkpoint(""); err != nil { // the table is in snap-1, the records in wal-1
		t.Fatal(err)
	}
	const records = 300
	for i := 0; i < records; i++ {
		var b Batch
		b.Insert("notes", Row{"id": int64(2 * i)})
		b.Insert("notes", Row{"id": int64(2*i + 1)})
		if err := src.Apply(&b); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	db := NewDB()
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if n, err := db.Count("notes"); err != nil || n%2 != 0 {
					t.Errorf("reader saw %d notes (err %v): half a record", n, err)
					return
				}
				rows, err := db.Select(Query{Table: "notes", Conds: []Cond{{Col: "id", Op: OpLt, Val: int64(2 * records)}}})
				if err != nil || len(rows)%2 != 0 {
					t.Errorf("select saw %d notes (err %v): half a record", len(rows), err)
					return
				}
			}
		}()
	}
	info, err := db.OpenDurable(dir)
	close(done)
	wg.Wait()
	if err != nil || info.Applied != records {
		t.Fatalf("recovery replayed %v (err %v), want %d records", info, err, records)
	}
	defer db.CloseWAL()
	if n, _ := db.Count("notes"); n != 2*records {
		t.Errorf("notes = %d, want %d", n, 2*records)
	}
}

// TestReadNotStalledByUnrelatedWrite pins down the engine's headline
// guarantee: a query of one table completes while a transaction holds
// the write lock on an unrelated table. Under the seed's database-wide
// lock the read below would block until Commit.
func TestReadNotStalledByUnrelatedWrite(t *testing.T) {
	db := concDB(t)
	tx, err := db.Begin("docs")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("docs", Row{"id": int64(1), "author": "a0"}); err != nil {
		tx.Rollback()
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := db.Get("notes", int64(404)) // ErrNotFound is fine; completing is the point
		if errors.Is(err, ErrNotFound) {
			err = nil
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read of unrelated table stalled behind an open write transaction")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyThenHookRunsBeforeLocksRelease pins the contract derived
// caches rely on: the ApplyThen hook observes the committed state
// while the transaction's table locks are still held, so no reader —
// and in particular no checkpoint capture, which read-locks every
// table — can slip between a committed batch and its hook.
func TestApplyThenHookRunsBeforeLocksRelease(t *testing.T) {
	db := concDB(t)
	var b Batch
	b.Insert("notes", Row{"id": int64(1), "body": "x"})
	entered := make(chan struct{})
	unblock := make(chan struct{})
	applied := make(chan error, 1)
	go func() {
		applied <- db.ApplyThen(&b, func() {
			close(entered)
			<-unblock
		})
	}()
	<-entered
	// While the hook runs, the touched table is still write-locked.
	read := make(chan struct{})
	go func() {
		db.Get("notes", int64(1))
		close(read)
	}()
	select {
	case <-read:
		t.Fatal("reader got in while the commit hook was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(unblock)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	<-read
	if _, err := db.Get("notes", int64(1)); err != nil {
		t.Errorf("committed row missing after ApplyThen: %v", err)
	}
}

// TestApplyThenHookSkippedOnFailure: a rolled-back batch must never
// reach the hook, and an empty batch runs it directly.
func TestApplyThenHookSkippedOnFailure(t *testing.T) {
	db := concDB(t)
	var b Batch
	b.Insert("docs", Row{"id": int64(1), "author": "ghost"}) // FK violation
	ran := false
	if err := db.ApplyThen(&b, func() { ran = true }); !errors.Is(err, ErrFK) {
		t.Fatalf("err = %v, want ErrFK", err)
	}
	if ran {
		t.Error("hook ran for a rolled-back batch")
	}
	var empty Batch
	if err := db.ApplyThen(&empty, func() { ran = true }); err != nil || !ran {
		t.Errorf("empty batch: err = %v, hook ran = %v", err, ran)
	}
}
