package relstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// Hash indexes are built on their first lookup. These tests check that
// a lookup through an index answers what a full scan with the same
// filter answers, whatever was written before and after the build and
// whatever order the builds come in.

// lazyDB is the model test's items table with its indexes, plus a refs
// table whose item column references it (an index CreateTable adds)
// and whose note column has an index of its own.
func lazyDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if err := db.CreateTable(modelSchema()); err != nil {
		t.Fatal(err)
	}
	modelIndexes(t, db)
	refs := Schema{
		Name: "refs",
		Columns: []Column{
			{Name: "id", Type: TInt, NotNull: true},
			{Name: "item", Type: TInt},
			{Name: "note", Type: TText},
		},
		Key:         "id",
		ForeignKeys: []ForeignKey{{Column: "item", RefTable: "items"}},
	}
	if err := db.CreateTable(refs); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("refs", "note"); err != nil {
		t.Fatal(err)
	}
	return db
}

// lazyLookup is a query served by one hash index, the filter a full
// scan applies for the same answer, and the index it builds.
type lazyLookup struct {
	q     Query
	keep  func(Row) bool
	index string
}

// lazyLookups draws one lookup per hash index of lazyDB.
func lazyLookups(rng *rand.Rand) []lazyLookup {
	g := int64(rng.Intn(5))
	tag := []string{"red", "green", "blue"}[rng.Intn(3)]
	item := int64(rng.Intn(48))
	note := fmt.Sprintf("note%d", rng.Intn(4))
	return []lazyLookup{
		{Query{Table: "items", Conds: []Cond{{Col: "grp", Op: OpEq, Val: g}}},
			func(r Row) bool { return r["grp"] == g }, "items.grp"},
		{Query{Table: "items", Conds: []Cond{{Col: "grp", Op: OpEq, Val: g}, {Col: "tag", Op: OpEq, Val: tag}}},
			func(r Row) bool { return r["grp"] == g && r["tag"] == tag }, "items.grp,tag"},
		{Query{Table: "items", Conds: []Cond{{Col: "grp", Op: OpEq, Val: g}, {Col: "closed", Op: OpIsNull}}},
			func(r Row) bool { return r["grp"] == g && r["closed"] == nil }, "items.grp|closed"},
		{Query{Table: "refs", Conds: []Cond{{Col: "item", Op: OpEq, Val: item}}},
			func(r Row) bool { return r["item"] == item }, "refs.item"},
		{Query{Table: "refs", Conds: []Cond{{Col: "note", Op: OpEq, Val: note}}},
			func(r Row) bool { return r["note"] == note }, "refs.note"},
	}
}

// reader is what a lookup and its check read through: the database,
// or an open transaction, which sees its own uncommitted writes.
type reader interface {
	Select(Query) ([]Row, error)
}

// checkLookup runs l through its index and compares the answer with a
// full scan of the table filtered by l.keep.
func checkLookup(r reader, l lazyLookup) error {
	got, err := r.Select(l.q)
	if err != nil {
		return fmt.Errorf("Select %+v: %w", l.q.Conds, err)
	}
	all, err := r.Select(Query{Table: l.q.Table})
	if err != nil {
		return err
	}
	var want []Row
	for _, row := range all {
		if l.keep(row) {
			want = append(want, row)
		}
	}
	if got, want := byID(got), byID(want); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
		return fmt.Errorf("lookup %s %+v = %v, a full scan finds %v", l.q.Table, l.q.Conds, got, want)
	}
	return nil
}

// lazyWrite performs one random write through w (the database or a
// transaction); a write the engine refuses is part of the workload.
func lazyWrite(rng *rand.Rand, w interface {
	Insert(string, Row) error
	Update(string, any, Row) error
	Delete(string, any) error
}) {
	id := int64(rng.Intn(48))
	switch k := rng.Intn(10); {
	case k < 3:
		r := randRow(rng)
		r["id"] = id
		_ = w.Insert("items", r)
	case k < 5:
		_ = w.Update("items", id, randChanges(rng))
	case k < 6:
		_ = w.Delete("items", id) // refused while refs reference it
	case k < 8:
		_ = w.Insert("refs", Row{"id": int64(rng.Intn(64)), "item": id, "note": fmt.Sprintf("note%d", rng.Intn(4))})
	case k < 9:
		_ = w.Update("refs", int64(rng.Intn(64)), Row{"note": fmt.Sprintf("note%d", rng.Intn(4)), "item": id})
	default:
		_ = w.Delete("refs", int64(rng.Intn(64)))
	}
}

// TestLazyIndexesMatchScan runs random writes, transactions that roll
// back or commit, and lookups that build the indexes in a random order
// (some inside a transaction, over its uncommitted writes). Halfway it
// checkpoints, writes a tail and recovers into a fresh database, which
// must have built no index but the foreign-key ones a replayed delete
// consulted, and the run goes on there. Every lookup must answer what
// a full scan answers.
func TestLazyIndexesMatchScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runLazy(t, seed, 1500) })
	}
}

func runLazy(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	db := lazyDB(t)
	if _, err := db.OpenDurable(dir); err != nil {
		t.Fatal(err)
	}
	defer func() { db.CloseWAL() }()
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			if _, err := db.Checkpoint(""); err != nil {
				t.Fatal(err)
			}
			for n := 0; n < 100; n++ {
				lazyWrite(rng, autoDB{db})
			}
			if err := db.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			db = NewDB()
			if _, err := db.OpenDurable(dir); err != nil {
				t.Fatalf("step %d: recovery: %v", step, err)
			}
			for _, name := range db.BuiltIndexes() {
				if name != "refs.item" {
					t.Fatalf("recovery built %v; only refs.item, which a replayed delete of an item consults, may be built", db.BuiltIndexes())
				}
			}
		}
		switch k := rng.Intn(10); {
		case k < 6:
			lazyWrite(rng, autoDB{db})
		case k < 8:
			tx, err := db.Begin("items", "refs")
			if err != nil {
				t.Fatal(err)
			}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				lazyWrite(rng, tx)
			}
			if rng.Intn(2) == 0 {
				ls := lazyLookups(rng)
				if err := checkLookup(tx, ls[rng.Intn(len(ls))]); err != nil {
					tx.Rollback()
					t.Fatalf("step %d, in a transaction: %v", step, err)
				}
				lazyWrite(rng, tx)
			}
			if rng.Intn(2) == 0 {
				err = tx.Rollback()
			} else {
				err = tx.Commit()
			}
			if err != nil {
				t.Fatal(err)
			}
		default:
			ls := lazyLookups(rng)
			l := ls[rng.Intn(len(ls))]
			if err := checkLookup(db, l); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if !slices.Contains(db.BuiltIndexes(), l.index) {
				t.Fatalf("step %d: after a lookup through %s, built = %v", step, l.index, db.BuiltIndexes())
			}
		}
	}
	for _, l := range lazyLookups(rng) {
		if err := checkLookup(db, l); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFirstLookupBesideWriter: eight readers make their first lookup
// through one unbuilt index at once, while a writer inserts into and
// deletes from the same table. Each reader compares its lookup with a
// full scan inside one transaction, so both see the same rows. A
// transaction holds a table shared only as a foreign-key neighbour, so
// each reader declares a table of its own that references items. Run
// it under -race.
func TestFirstLookupBesideWriter(t *testing.T) {
	for round := 0; round < 10; round++ {
		db := NewDB()
		if err := db.CreateTable(modelSchema()); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 8; r++ {
			err := db.CreateTable(Schema{
				Name:        fmt.Sprintf("reader%d", r),
				Columns:     []Column{{Name: "id", Type: TInt, NotNull: true}, {Name: "item", Type: TInt}},
				Key:         "id",
				ForeignKeys: []ForeignKey{{Column: "item", RefTable: "items"}},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for id := int64(0); id < 200; id++ {
			if err := db.Insert("items", Row{"id": id, "name": "n", "grp": id % 5}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.CreateIndex("items", "grp"); err != nil {
			t.Fatal(err)
		}
		lookup := lazyLookup{Query{Table: "items", Conds: []Cond{{Col: "grp", Op: OpEq, Val: int64(2)}}},
			func(r Row) bool { return r["grp"] == int64(2) }, "items.grp"}
		start, stop := make(chan struct{}), make(chan struct{})
		var writer, readers sync.WaitGroup
		writer.Add(1)
		go func() {
			defer writer.Done()
			for id := int64(200); ; id++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := db.Insert("items", Row{"id": id, "name": "n", "grp": id % 5}); err != nil {
					t.Error(err)
					return
				}
				if err := deleteRow(db, "items", id-100); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		errs := make(chan error, 8)
		for r := 0; r < 8; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				<-start
				tx, err := db.Begin(fmt.Sprintf("reader%d", r))
				if err != nil {
					errs <- err
					return
				}
				defer tx.Rollback()
				if err := checkLookup(tx, lookup); err != nil {
					errs <- err
				}
			}(r)
		}
		close(start)
		readers.Wait()
		close(stop)
		writer.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		// The writer's deletes build each reader table's foreign-key
		// index for their restrict checks; of items' indexes, only the
		// one the readers used is built.
		built := slices.DeleteFunc(db.BuiltIndexes(), func(ix string) bool { return !strings.HasPrefix(ix, "items.") })
		if !slices.Equal(built, []string{"items.grp"}) {
			t.Fatalf("built %v, want the one index the readers used", built)
		}
		if err := checkLookup(db, lookup); err != nil {
			t.Fatal(err)
		}
	}
}
