package relstore

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func orderedFixture(t *testing.T, n int) *DB {
	t.Helper()
	db := NewDB()
	err := db.CreateTable(Schema{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: TInt, NotNull: true},
			{Name: "score", Type: TFloat},
			{Name: "name", Type: TText},
		},
		Key: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateOrderedIndex("t", "score"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := Row{"id": int64(i), "name": fmt.Sprintf("r%d", i)}
		if i%10 != 9 { // every tenth row has a NULL score
			row["score"] = float64(i % 25)
		}
		if err := db.Insert("t", row); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestOrderedIndexRangeOperators(t *testing.T) {
	db := orderedFixture(t, 100)
	cases := []struct {
		op  CmpOp
		val float64
	}{
		{OpLt, 5}, {OpLe, 5}, {OpGt, 20}, {OpGe, 20}, {OpEq, 7},
	}
	for _, c := range cases {
		// The planner result must match a manual filter of all rows.
		got, err := db.Select(Query{Table: "t", Conds: []Cond{{Col: "score", Op: c.op, Val: c.val}}})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		db.Scan("t", func(r Row) bool {
			cond := Cond{Col: "score", Op: c.op, Val: c.val}
			if cond.matches(r["score"], c.val) {
				want++
			}
			return true
		})
		if len(got) != want {
			t.Errorf("op %v %v: got %d rows, want %d", c.op, c.val, len(got), want)
		}
		// NULL scores never appear in range results.
		for _, r := range got {
			if r["score"] == nil {
				t.Errorf("op %v returned a NULL score row", c.op)
			}
		}
	}
}

func TestOrderedIndexBackfill(t *testing.T) {
	db := NewDB()
	err := db.CreateTable(Schema{
		Name:    "t",
		Columns: []Column{{Name: "id", Type: TInt, NotNull: true}, {Name: "v", Type: TInt}},
		Key:     "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Insert("t", Row{"id": int64(i), "v": int64(50 - i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Index created after the rows exist.
	if err := db.CreateOrderedIndex("t", "v"); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Select(Query{Table: "t", Conds: []Cond{{Col: "v", Op: OpLe, Val: 10}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Errorf("rows = %d, want 10", len(rows))
	}
	// Idempotent re-create.
	if err := db.CreateOrderedIndex("t", "v"); err != nil {
		t.Fatal(err)
	}
}

func TestOrderedIndexValidation(t *testing.T) {
	db := orderedFixture(t, 1)
	if err := db.CreateOrderedIndex("nope", "x"); !errors.Is(err, ErrNoTable) {
		t.Errorf("err = %v", err)
	}
	if err := db.CreateOrderedIndex("t", "nope"); !errors.Is(err, ErrNoColumn) {
		t.Errorf("err = %v", err)
	}
}

func TestOrderedIndexSurvivesSnapshot(t *testing.T) {
	db := orderedFixture(t, 30)
	db2 := roundTrip(t, db)
	// The restored engine still has the ordered index (observable only
	// through correct range results; plan equivalence is checked by the
	// property test below).
	rows, err := db2.Select(Query{Table: "t", Conds: []Cond{{Col: "score", Op: OpGe, Val: 20}}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Select(Query{Table: "t", Conds: []Cond{{Col: "score", Op: OpGe, Val: 20}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Errorf("restored rows = %d, want %d", len(rows), len(want))
	}
}

// Property: after arbitrary insert/update/delete interleavings, the
// ordered index plan returns exactly what an unindexed scan returns,
// under transactions including rollbacks.
func TestQuickOrderedIndexMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		indexed := NewDB()
		plain := NewDB()
		schema := Schema{
			Name:    "t",
			Columns: []Column{{Name: "id", Type: TInt, NotNull: true}, {Name: "v", Type: TInt}},
			Key:     "id",
		}
		if err := indexed.CreateTable(schema); err != nil {
			return false
		}
		if err := plain.CreateTable(schema); err != nil {
			return false
		}
		if err := indexed.CreateOrderedIndex("t", "v"); err != nil {
			return false
		}
		for op := 0; op < 200; op++ {
			id := int64(rng.Intn(40))
			v := int64(rng.Intn(20))
			switch rng.Intn(4) {
			case 0:
				indexed.Insert("t", Row{"id": id, "v": v})
				plain.Insert("t", Row{"id": id, "v": v})
			case 1:
				indexed.Update("t", id, Row{"v": v})
				plain.Update("t", id, Row{"v": v})
			case 2:
				deleteRow(indexed, "t", id)
				deleteRow(plain, "t", id)
			case 3:
				// A rolled-back transaction must leave the index intact.
				tx, _ := indexed.Begin("t")
				tx.Insert("t", Row{"id": id + 1000, "v": v})
				tx.Rollback()
			}
		}
		for _, op := range []CmpOp{OpLt, OpLe, OpGt, OpGe, OpEq} {
			val := int64(rng.Intn(20))
			a, err1 := indexed.Select(Query{Table: "t", Conds: []Cond{{Col: "v", Op: op, Val: val}}, OrderBy: "id"})
			b, err2 := plain.Select(Query{Table: "t", Conds: []Cond{{Col: "v", Op: op, Val: val}}, OrderBy: "id"})
			if err1 != nil || err2 != nil || len(a) != len(b) {
				return false
			}
			for i := range a {
				if compareValues(a[i]["id"], b[i]["id"]) != 0 || compareValues(a[i]["v"], b[i]["v"]) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
