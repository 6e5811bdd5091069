package relstore

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// The differential model test: a seeded random sequence of writes,
// rollbacks, reads through every access path, and checkpoint-plus-
// recovery into a fresh database, each answer compared with a plain
// map-of-maps model. The model holds what a returned Row must hold:
// the non-NULL columns of each row.

type model map[int64]Row

func modelSchema() Schema {
	return Schema{
		Name: "items",
		Columns: []Column{
			{Name: "id", Type: TInt, NotNull: true},
			{Name: "name", Type: TText, NotNull: true},
			{Name: "grp", Type: TInt},
			{Name: "closed", Type: TTime},
			{Name: "score", Type: TFloat},
			{Name: "tag", Type: TText},
			{Name: "blob", Type: TBytes},
			{Name: "flag", Type: TBool},
		},
		Key: "id",
	}
}

// modelIndexes puts every access path on the table: a hash index, a
// two-column hash index, a partial index over the open rows and an
// ordered index.
func modelIndexes(t *testing.T, db *DB) {
	t.Helper()
	for _, err := range []error{
		db.CreateIndex("items", "grp"),
		db.CreateIndex("items", "grp", "tag"),
		db.CreatePartialIndex("items", "closed", "grp"),
		db.CreateOrderedIndex("items", "score"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// randValue draws a value for a column, NULL one time in four for the
// nullable ones. Times are whole UTC instants, so a value survives the
// WAL and snapshot round trip bit for bit.
func randValue(rng *rand.Rand, col string) any {
	if col != "id" && col != "name" && rng.Intn(4) == 0 {
		return nil
	}
	switch col {
	case "id":
		return int64(rng.Intn(48))
	case "name":
		return fmt.Sprintf("n%d", rng.Intn(1000))
	case "grp":
		return int64(rng.Intn(5))
	case "closed":
		return time.Unix(int64(900000000+rng.Intn(4)), 0).UTC()
	case "score":
		return float64(rng.Intn(20)) / 4
	case "tag":
		return []string{"red", "green", "blue"}[rng.Intn(3)]
	case "blob":
		return []byte{byte(rng.Intn(256)), 1}
	default:
		return rng.Intn(2) == 0
	}
}

// randRow draws a full row; a NULL is sometimes given explicitly,
// sometimes left out.
func randRow(rng *rand.Rand) Row {
	r := Row{}
	for _, c := range modelSchema().Columns {
		if v := randValue(rng, c.Name); v != nil || rng.Intn(2) == 0 {
			r[c.Name] = v
		}
	}
	return r
}

// randChanges draws an update's change set: a few columns, explicit
// NULLs included (which clear a column, or fail on a NOT NULL one).
func randChanges(rng *rand.Rand) Row {
	cols := modelSchema().Columns[1:]
	r := Row{}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		c := cols[rng.Intn(len(cols))].Name
		r[c] = randValue(rng, c)
		if rng.Intn(8) == 0 {
			r[c] = nil
		}
	}
	return r
}

// apply performs one write against the model, reporting the error the
// engine must return (nil when it must succeed).
func (m model) apply(op string, id int64, r Row) error {
	cur, exists := m[id]
	switch op {
	case "insert":
		if exists {
			return ErrDuplicate
		}
		m[id] = nonNull(r)
	case "update":
		if !exists {
			return ErrNotFound
		}
		next := maps.Clone(cur)
		for k, v := range r {
			if v == nil {
				delete(next, k)
			} else {
				next[k] = v
			}
		}
		if next["name"] == nil {
			return ErrNull
		}
		m[id] = next
	case "delete":
		if !exists {
			return ErrNotFound
		}
		delete(m, id)
	}
	return nil
}

func nonNull(r Row) Row {
	out := Row{}
	for k, v := range r {
		if v != nil {
			out[k] = v
		}
	}
	return out
}

func (m model) clone() model {
	c := model{}
	for k, v := range m {
		c[k] = maps.Clone(v)
	}
	return c
}

// where lists the model's rows passing keep, in id order.
func (m model) where(keep func(Row) bool) []Row {
	var ids []int64
	for id, r := range m {
		if keep(r) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]Row, len(ids))
	for i, id := range ids {
		out[i] = m[id]
	}
	return out
}

// byID sorts engine rows by id: hash-index paths return them in
// encoded-key order, which is not numeric.
func byID(rows []Row) []Row {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i]["id"].(int64) < rows[j]["id"].(int64) })
	return rows
}

// checkReads compares every read path of db with the model.
func checkReads(t *testing.T, rng *rand.Rand, db *DB, m model, step int) {
	t.Helper()
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("step %d: %s = %v, want %v", step, what, got, want)
	}
	id := int64(rng.Intn(48))
	got, err := db.Get("items", id)
	if want, ok := m[id]; ok != (err == nil) || ok && !reflect.DeepEqual(got, want) {
		fail(fmt.Sprintf("Get(%d)", id), got, want)
	}
	g := int64(rng.Intn(5))
	tag := []string{"red", "green", "blue"}[rng.Intn(3)]
	bound := float64(rng.Intn(20)) / 4
	queries := []struct {
		q    Query
		keep func(Row) bool
	}{
		{Query{Conds: []Cond{{Col: "id", Op: OpEq, Val: id}}}, func(r Row) bool { return r["id"] == id }},
		{Query{Conds: []Cond{{Col: "grp", Op: OpEq, Val: g}}}, func(r Row) bool { return r["grp"] == g }},
		{Query{Conds: []Cond{{Col: "grp", Op: OpEq, Val: g}, {Col: "tag", Op: OpEq, Val: tag}}},
			func(r Row) bool { return r["grp"] == g && r["tag"] == tag }},
		{Query{Conds: []Cond{{Col: "grp", Op: OpEq, Val: g}, {Col: "closed", Op: OpIsNull}}},
			func(r Row) bool { return r["grp"] == g && r["closed"] == nil }},
		{Query{Conds: []Cond{{Col: "score", Op: OpGt, Val: bound}}},
			func(r Row) bool { s, ok := r["score"].(float64); return ok && s > bound }},
		{Query{Conds: []Cond{{Col: "flag", Op: OpEq, Val: true}, {Col: "blob", Op: OpNotNull}}},
			func(r Row) bool { return r["flag"] == true && r["blob"] != nil }},
	}
	for _, qc := range queries {
		qc.q.Table = "items"
		want := m.where(qc.keep)
		rows, err := db.Select(qc.q)
		if err != nil {
			t.Fatalf("step %d: Select %+v: %v", step, qc.q.Conds, err)
		}
		if got := byID(rows); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			fail(fmt.Sprintf("Select %+v", qc.q.Conds), got, want)
		}
		tx, err := db.Begin("items")
		if err != nil {
			t.Fatal(err)
		}
		n, err := tx.Count(qc.q)
		tx.Rollback()
		if err != nil || n != len(want) {
			fail(fmt.Sprintf("Tx.Count %+v", qc.q.Conds), n, len(want))
		}
	}
	if n, err := db.Count("items"); err != nil || n != len(m) {
		fail("Count(items)", n, len(m))
	}
	// The ordered index serves ORDER BY with a limit.
	rows, err := db.Select(Query{Table: "items", Conds: []Cond{{Col: "score", Op: OpGe, Val: bound}}, OrderBy: "score", Desc: true, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1]["score"].(float64) < rows[i]["score"].(float64) {
			fail("ORDER BY score DESC", rows, "descending scores")
		}
	}
	if n := len(m.where(func(r Row) bool { s, ok := r["score"].(float64); return ok && s >= bound })); len(rows) != min(n, 3) {
		fail("ORDER BY score DESC LIMIT 3 count", len(rows), min(n, 3))
	}
	var scanned []Row
	if err := db.Scan("items", func(r Row) bool { scanned = append(scanned, r); return true }); err != nil {
		t.Fatal(err)
	}
	if want := m.where(func(Row) bool { return true }); len(scanned) != len(want) || len(want) > 0 && !reflect.DeepEqual(byID(scanned), want) {
		fail("Scan", scanned, want)
	}
}

func TestTupleStorageMatchesModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runModel(t, seed, 2000) })
	}
}

func runModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	db := NewDB()
	if _, err := db.OpenDurable(dir); err != nil {
		t.Fatal(err)
	}
	defer db.CloseWAL()
	if err := db.CreateTable(modelSchema()); err != nil {
		t.Fatal(err)
	}
	modelIndexes(t, db)
	m := model{}
	ops := []string{"insert", "insert", "update", "update", "delete"}
	for step := 0; step < steps; step++ {
		switch k := rng.Intn(20); {
		case k < 14: // one auto-committed write
			op := ops[rng.Intn(len(ops))]
			id := int64(rng.Intn(48))
			var r Row
			var err error
			switch op {
			case "insert":
				r = randRow(rng)
				r["id"] = id
				err = db.Insert("items", r)
			case "update":
				r = randChanges(rng)
				err = db.Update("items", id, r)
			default:
				err = deleteRow(db, "items", id)
			}
			if want := m.apply(op, id, r); !errors.Is(err, want) {
				t.Fatalf("step %d: %s %d %v: err = %v, want %v", step, op, id, r, err, want)
			}
		case k < 17: // a transaction of a few writes, rolled back or committed
			tx, err := db.Begin("items")
			if err != nil {
				t.Fatal(err)
			}
			shadow := m.clone()
			for n := 1 + rng.Intn(4); n > 0; n-- {
				id := int64(rng.Intn(48))
				op := ops[rng.Intn(len(ops))]
				var r Row
				switch op {
				case "insert":
					r = randRow(rng)
					r["id"] = id
					err = tx.Insert("items", r)
				case "update":
					r = randChanges(rng)
					err = tx.Update("items", id, r)
				default:
					err = tx.Delete("items", id)
				}
				// Roll back before failing: the open Tx holds metaMu
				// shared, and the deferred CloseWAL waits for it
				// exclusively, so a Fatalf with the Tx open hangs.
				if want := shadow.apply(op, id, r); (want == nil) != (err == nil) {
					tx.Rollback()
					t.Fatalf("step %d: tx %s %d: err = %v, want %v", step, op, id, err, want)
				}
				got, err := tx.Get("items", id)
				if want, ok := shadow[id]; ok != (err == nil) || ok && !reflect.DeepEqual(got, want) {
					tx.Rollback()
					t.Fatalf("step %d: Tx.Get(%d) = %v, want %v", step, id, got, want)
				}
			}
			if rng.Intn(2) == 0 {
				if err := tx.Rollback(); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				m = shadow
			}
		case k < 19:
			checkReads(t, rng, db, m, step)
		default: // recover into a fresh database, sometimes after a checkpoint
			if rng.Intn(2) == 0 {
				if _, err := db.Checkpoint(""); err != nil {
					t.Fatal(err)
				}
			}
			fresh := NewDB()
			if _, err := fresh.OpenDurable(dir); err != nil {
				t.Fatalf("step %d: recovery: %v", step, err)
			}
			if err := fresh.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			checkReads(t, rng, fresh, m, step)
		}
	}
	checkReads(t, rng, db, m, steps)
}
