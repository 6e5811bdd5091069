package relstore

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func seedScripts(t *testing.T, db *DB, n int) {
	t.Helper()
	tx, _ := db.Begin("scripts")
	for i := 0; i < n; i++ {
		err := tx.Insert("scripts", Row{
			"script_name":  fmt.Sprintf("s%03d", i),
			"author":       fmt.Sprintf("author%d", i%5),
			"version":      int64(i % 7),
			"pct_complete": float64(i),
			"archived":     i%2 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectAllDeterministicOrder(t *testing.T) {
	db := newCourseDB(t)
	seedScripts(t, db, 20)
	rows, err := db.Select(Query{Table: "scripts"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("len = %d", len(rows))
	}
	for i, r := range rows {
		if r["script_name"] != fmt.Sprintf("s%03d", i) {
			t.Fatalf("row %d out of order: %v", i, r["script_name"])
		}
	}
}

func TestSelectEqualityOnPK(t *testing.T) {
	db := newCourseDB(t)
	seedScripts(t, db, 10)
	rows, err := db.Select(Query{Table: "scripts", Conds: []Cond{{Col: "script_name", Op: OpEq, Val: "s004"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["version"] != int64(4) {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestSelectComparisonOperators(t *testing.T) {
	db := newCourseDB(t)
	seedScripts(t, db, 10)
	cases := []struct {
		op   CmpOp
		val  any
		want int
	}{
		{OpLt, 5.0, 5},
		{OpLe, 5.0, 6},
		{OpGt, 5.0, 4},
		{OpGe, 5.0, 5},
		{OpNe, 5.0, 9},
		{OpEq, 5.0, 1},
	}
	for _, c := range cases {
		rows, err := db.Select(Query{Table: "scripts", Conds: []Cond{{Col: "pct_complete", Op: c.op, Val: c.val}}})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != c.want {
			t.Errorf("op %v: got %d rows, want %d", c.op, len(rows), c.want)
		}
	}
}

func TestSelectContainsAndPrefix(t *testing.T) {
	db := newCourseDB(t)
	seedScripts(t, db, 10)
	rows, err := db.Select(Query{Table: "scripts", Conds: []Cond{{Col: "author", Op: OpContains, Val: "thor3"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // author3 appears for i=3 and i=8
		t.Errorf("contains: %d rows, want 2", len(rows))
	}
	rows, err = db.Select(Query{Table: "scripts", Conds: []Cond{{Col: "script_name", Op: OpPrefix, Val: "s00"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Errorf("prefix: %d rows, want 10", len(rows))
	}
}

func TestSelectConjunction(t *testing.T) {
	db := newCourseDB(t)
	seedScripts(t, db, 30)
	rows, err := db.Select(Query{Table: "scripts", Conds: []Cond{
		{Col: "archived", Op: OpEq, Val: true},
		{Col: "version", Op: OpEq, Val: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r["archived"] != true || r["version"] != int64(2) {
			t.Fatalf("conjunction violated: %+v", r)
		}
	}
	// i even and i%7==2 for i<30: 2,16,30(excl) -> 2,16. Also 9? 9 odd. 23 odd.
	if len(rows) != 2 {
		t.Errorf("rows = %d, want 2", len(rows))
	}
}

func TestSelectOrderByAndLimit(t *testing.T) {
	db := newCourseDB(t)
	seedScripts(t, db, 10)
	rows, err := db.Select(Query{Table: "scripts", OrderBy: "pct_complete", Desc: true, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0]["pct_complete"] != 9.0 || rows[2]["pct_complete"] != 7.0 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestSelectUsesSecondaryIndex(t *testing.T) {
	db := newCourseDB(t)
	if err := db.CreateIndex("scripts", "author"); err != nil {
		t.Fatal(err)
	}
	seedScripts(t, db, 50)
	rows, err := db.Select(Query{Table: "scripts", Conds: []Cond{{Col: "author", Op: OpEq, Val: "author2"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("indexed select: %d rows, want 10", len(rows))
	}
}

func TestCreateIndexBackfillsAndStaysConsistent(t *testing.T) {
	db := newCourseDB(t)
	seedScripts(t, db, 50) // rows exist before the index
	if err := db.CreateIndex("scripts", "author"); err != nil {
		t.Fatal(err)
	}
	if err := deleteRow(db, "scripts", "s002"); err != nil {
		t.Fatal(err)
	}
	if err := db.Update("scripts", "s007", Row{"author": "author0"}); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Select(Query{Table: "scripts", Conds: []Cond{{Col: "author", Op: OpEq, Val: "author2"}}})
	if err != nil {
		t.Fatal(err)
	}
	// author2 originally i%5==2: 2,7,12,...,47 (10 rows); s002 deleted, s007 moved away.
	if len(rows) != 8 {
		t.Fatalf("indexed select after mutations: %d rows, want 8", len(rows))
	}
}

func TestSelectErrors(t *testing.T) {
	db := newCourseDB(t)
	if _, err := db.Select(Query{Table: "nope"}); !errors.Is(err, ErrNoTable) {
		t.Errorf("missing table: %v", err)
	}
	if _, err := db.Select(Query{Table: "scripts", Conds: []Cond{{Col: "zz", Op: OpEq, Val: 1}}}); !errors.Is(err, ErrNoColumn) {
		t.Errorf("missing column: %v", err)
	}
	if _, err := db.Select(Query{Table: "scripts", OrderBy: "zz"}); !errors.Is(err, ErrNoColumn) {
		t.Errorf("missing order column: %v", err)
	}
	if _, err := db.Select(Query{Table: "scripts", Conds: []Cond{{Col: "version", Op: OpEq, Val: "NaN"}}}); !errors.Is(err, ErrType) {
		t.Errorf("bad cond value: %v", err)
	}
}

func TestScanEarlyStop(t *testing.T) {
	db := newCourseDB(t)
	seedScripts(t, db, 10)
	var visited int
	err := db.Scan("scripts", func(r Row) bool {
		visited++
		return visited < 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != 4 {
		t.Errorf("visited = %d, want 4", visited)
	}
}

// Property: for a random set of mutations, an indexed equality select
// always agrees with a full-scan filter — the index never drifts from
// the table.
func TestQuickIndexMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		err := db.CreateTable(Schema{
			Name: "t",
			Columns: []Column{
				{Name: "id", Type: TInt, NotNull: true},
				{Name: "grp", Type: TInt},
			},
			Key: "id",
		})
		if err != nil {
			return false
		}
		if err := db.CreateIndex("t", "grp"); err != nil {
			return false
		}
		live := make(map[int64]int64)
		for op := 0; op < 300; op++ {
			id := int64(rng.Intn(40))
			grp := int64(rng.Intn(5))
			switch rng.Intn(3) {
			case 0:
				if err := db.Insert("t", Row{"id": id, "grp": grp}); err == nil {
					live[id] = grp
				}
			case 1:
				if err := db.Update("t", id, Row{"grp": grp}); err == nil {
					live[id] = grp
				}
			case 2:
				if err := deleteRow(db, "t", id); err == nil {
					delete(live, id)
				}
			}
		}
		for g := int64(0); g < 5; g++ {
			rows, err := db.Select(Query{Table: "t", Conds: []Cond{{Col: "grp", Op: OpEq, Val: g}}})
			if err != nil {
				return false
			}
			want := 0
			for _, lg := range live {
				if lg == g {
					want++
				}
			}
			if len(rows) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCompositeAndPartialIndexesMatchScan: a two-column index and a
// partial index over the rows whose closed column is NULL must answer
// exactly what a scan answers — Select and Tx.Count — through inserts,
// updates that move rows between buckets and in and out of the partial
// index, deletes, a rolled-back transaction and a snapshot round trip;
// and the planner must prefer them to the wider single-column bucket.
func TestCompositeAndPartialIndexesMatchScan(t *testing.T) {
	newDB := func() *DB {
		db := NewDB()
		err := db.CreateTable(Schema{
			Name: "ledger",
			Columns: []Column{
				{Name: "id", Type: TInt, NotNull: true},
				{Name: "kind", Type: TText},
				{Name: "obj", Type: TText},
				{Name: "closed", Type: TInt},
			},
			Key: "id",
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := newDB()
	for _, cols := range [][]string{{"obj"}, {"kind", "obj"}} {
		if err := db.CreateIndex("ledger", cols...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreatePartialIndex("ledger", "closed", "kind", "obj"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreatePartialIndex("ledger", "nope", "kind"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("partial index on a missing column: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	type rec struct {
		kind, obj string
		closed    any
	}
	live := map[int64]rec{}
	draw := func() rec {
		r := rec{kind: fmt.Sprintf("k%d", rng.Intn(2)), obj: fmt.Sprintf("o%d", rng.Intn(3))}
		if rng.Intn(2) == 0 {
			r.closed = int64(rng.Intn(2))
		}
		return r
	}
	for op := 0; op < 600; op++ {
		id, r := int64(rng.Intn(60)), draw()
		row := Row{"id": id, "kind": r.kind, "obj": r.obj, "closed": r.closed}
		switch rng.Intn(4) {
		case 0:
			if db.Insert("ledger", row) == nil {
				live[id] = r
			}
		case 1:
			if db.Update("ledger", id, Row{"kind": r.kind, "obj": r.obj, "closed": r.closed}) == nil {
				live[id] = r
			}
		case 2:
			if deleteRow(db, "ledger", id) == nil {
				delete(live, id)
			}
		case 3: // a write that is rolled back must leave the buckets alone
			tx, _ := db.Begin("ledger")
			tx.Insert("ledger", row)
			tx.Update("ledger", id, Row{"closed": int64(9)})
			tx.Rollback()
		}
	}
	check := func(db *DB) {
		t.Helper()
		for k := 0; k < 2; k++ {
			for o := 0; o < 3; o++ {
				kind, obj := fmt.Sprintf("k%d", k), fmt.Sprintf("o%d", o)
				for _, closed := range []Cond{
					{Col: "closed", Op: OpIsNull},
					{Col: "closed", Op: OpEq, Val: int64(1)},
					{Col: "closed", Op: OpNotNull},
				} {
					q := Query{Table: "ledger", Conds: []Cond{
						{Col: "kind", Op: OpEq, Val: kind}, {Col: "obj", Op: OpEq, Val: obj}, closed,
					}}
					want := 0
					for _, r := range live {
						if r.kind == kind && r.obj == obj && closed.matches(r.closed, closed.Val) {
							want++
						}
					}
					rows, err := db.Select(q)
					if err != nil || len(rows) != want {
						t.Fatalf("select %s/%s %v: %d rows (err %v), scan says %d", kind, obj, closed.Op, len(rows), err, want)
					}
					tx, _ := db.Begin("ledger")
					n, err := tx.Count(q)
					tx.Rollback()
					if err != nil || n != want {
						t.Fatalf("count %s/%s %v: %d (err %v), scan says %d", kind, obj, closed.Op, n, err, want)
					}
				}
			}
		}
	}
	check(db)

	// The open rows, or the (kind, obj) bucket — never the whole
	// history of the object — are what gets read, and nothing is left
	// to check per row.
	open := []Cond{{Col: "obj", Op: OpEq, Val: "o1"}, {Col: "kind", Op: OpEq, Val: "k1"}, {Col: "closed", Op: OpIsNull}}
	for _, conds := range [][]Cond{open, open[:2]} {
		p, err := db.tables["ledger"].planLocked(Query{Table: "ledger", Conds: conds})
		if err != nil || !p.hashed || !p.settled() {
			t.Fatalf("plan for %v = %+v, err %v: want every condition covered by an index", conds, p, err)
		}
	}
	closedRows := 0
	for _, r := range live {
		if r.closed != nil {
			closedRows++
		}
	}
	held := 0
	for _, b := range db.tables["ledger"].indexes["kind,obj|closed"].buckets {
		held += len(b)
	}
	if closedRows == 0 || held != len(live)-closedRows {
		t.Fatalf("the partial index holds %d rows; %d of %d live rows are open", held, len(live)-closedRows, len(live))
	}

	// Composite indexes survive a snapshot.
	restored := roundTrip(t, db)
	if restored.tables["ledger"].indexes["kind,obj|closed"] == nil || restored.tables["ledger"].indexes["kind,obj"] == nil {
		t.Fatalf("restored indexes: %v", restored.tables["ledger"].indexes)
	}
	check(restored)
}
