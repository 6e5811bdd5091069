package relstore

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// courseSchema builds the pair of tables used across the tests: a
// script table and an implementation table referencing it, mirroring the
// paper's document layer.
func courseSchemas() (Schema, Schema) {
	scripts := Schema{
		Name: "scripts",
		Columns: []Column{
			{Name: "script_name", Type: TText, NotNull: true},
			{Name: "author", Type: TText},
			{Name: "version", Type: TInt},
			{Name: "created", Type: TTime},
			{Name: "pct_complete", Type: TFloat},
			{Name: "archived", Type: TBool},
		},
		Key: "script_name",
	}
	impls := Schema{
		Name: "impls",
		Columns: []Column{
			{Name: "starting_url", Type: TText, NotNull: true},
			{Name: "script_name", Type: TText},
			{Name: "payload", Type: TBytes},
		},
		Key:         "starting_url",
		ForeignKeys: []ForeignKey{{Column: "script_name", RefTable: "scripts"}},
	}
	return scripts, impls
}

func newCourseDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	s, i := courseSchemas()
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(i); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateTableValidation(t *testing.T) {
	db := NewDB()
	cases := []Schema{
		{},
		{Name: "t"},
		{Name: "t", Columns: []Column{{Name: "a", Type: TInt}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: TInt}}, Key: "b"},
		{Name: "t", Columns: []Column{{Name: "a", Type: TInt}, {Name: "a", Type: TInt}}, Key: "a"},
		{Name: "t", Columns: []Column{{Name: "a", Type: 99}}, Key: "a"},
		{Name: "t", Columns: []Column{{Name: "a", Type: TInt}}, Key: "a",
			ForeignKeys: []ForeignKey{{Column: "zz", RefTable: "x"}}},
	}
	for i, s := range cases {
		if err := db.CreateTable(s); !errors.Is(err, ErrSchema) {
			t.Errorf("case %d: err = %v, want ErrSchema", i, err)
		}
	}
}

func TestCreateTableDuplicate(t *testing.T) {
	db := newCourseDB(t)
	s, _ := courseSchemas()
	if err := db.CreateTable(s); !errors.Is(err, ErrTableExists) {
		t.Fatalf("err = %v, want ErrTableExists", err)
	}
}

func TestInsertGetRoundTrip(t *testing.T) {
	db := newCourseDB(t)
	created := time.Date(1999, 4, 21, 10, 0, 0, 0, time.UTC)
	row := Row{
		"script_name":  "intro-mm",
		"author":       "Shih",
		"version":      int64(3),
		"created":      created,
		"pct_complete": 62.5,
		"archived":     false,
	}
	if err := db.Insert("scripts", row); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get("scripts", "intro-mm")
	if err != nil {
		t.Fatal(err)
	}
	if got["author"] != "Shih" || got["version"] != int64(3) || got["pct_complete"] != 62.5 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if !got["created"].(time.Time).Equal(created) {
		t.Errorf("time mismatch: %v", got["created"])
	}
}

func TestInsertWidensSmallInts(t *testing.T) {
	db := newCourseDB(t)
	if err := db.Insert("scripts", Row{"script_name": "s", "version": 7}); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get("scripts", "s")
	if err != nil {
		t.Fatal(err)
	}
	if got["version"] != int64(7) {
		t.Errorf("version = %#v, want int64(7)", got["version"])
	}
}

func TestInsertTypeMismatch(t *testing.T) {
	db := newCourseDB(t)
	err := db.Insert("scripts", Row{"script_name": "s", "version": "three"})
	if !errors.Is(err, ErrType) {
		t.Fatalf("err = %v, want ErrType", err)
	}
}

func TestInsertUnknownColumn(t *testing.T) {
	db := newCourseDB(t)
	err := db.Insert("scripts", Row{"script_name": "s", "nope": 1})
	if !errors.Is(err, ErrNoColumn) {
		t.Fatalf("err = %v, want ErrNoColumn", err)
	}
}

func TestInsertNullPrimaryKey(t *testing.T) {
	db := newCourseDB(t)
	err := db.Insert("scripts", Row{"author": "x"})
	if !errors.Is(err, ErrNull) {
		t.Fatalf("err = %v, want ErrNull", err)
	}
}

func TestInsertDuplicatePK(t *testing.T) {
	db := newCourseDB(t)
	if err := db.Insert("scripts", Row{"script_name": "s"}); err != nil {
		t.Fatal(err)
	}
	err := db.Insert("scripts", Row{"script_name": "s"})
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}

func TestForeignKeyEnforcedOnInsert(t *testing.T) {
	db := newCourseDB(t)
	err := db.Insert("impls", Row{"starting_url": "http://u", "script_name": "ghost"})
	if !errors.Is(err, ErrFK) {
		t.Fatalf("err = %v, want ErrFK", err)
	}
	if err := db.Insert("scripts", Row{"script_name": "ghost"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("impls", Row{"starting_url": "http://u", "script_name": "ghost"}); err != nil {
		t.Fatalf("insert with satisfied FK: %v", err)
	}
}

func TestForeignKeyNullAllowed(t *testing.T) {
	db := newCourseDB(t)
	if err := db.Insert("impls", Row{"starting_url": "http://u"}); err != nil {
		t.Fatalf("NULL FK should be allowed: %v", err)
	}
}

func TestDeleteRestrictedWhileReferenced(t *testing.T) {
	db := newCourseDB(t)
	if err := db.Insert("scripts", Row{"script_name": "s"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("impls", Row{"starting_url": "u", "script_name": "s"}); err != nil {
		t.Fatal(err)
	}
	if err := deleteRow(db, "scripts", "s"); !errors.Is(err, ErrFK) {
		t.Fatalf("delete referenced row: err = %v, want ErrFK", err)
	}
	if err := deleteRow(db, "impls", "u"); err != nil {
		t.Fatal(err)
	}
	if err := deleteRow(db, "scripts", "s"); err != nil {
		t.Fatalf("delete after dereference: %v", err)
	}
}

func TestUpdateMergesAndValidates(t *testing.T) {
	db := newCourseDB(t)
	if err := db.Insert("scripts", Row{"script_name": "s", "author": "a", "version": 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update("scripts", "s", Row{"version": 2}); err != nil {
		t.Fatal(err)
	}
	got, _ := db.Get("scripts", "s")
	if got["version"] != int64(2) || got["author"] != "a" {
		t.Errorf("merged row = %+v", got)
	}
	if err := db.Update("scripts", "missing", Row{"version": 9}); !errors.Is(err, ErrNotFound) {
		t.Errorf("update missing: err = %v", err)
	}
	if err := db.Update("scripts", "s", Row{"script_name": "renamed"}); !errors.Is(err, ErrKeyChange) {
		t.Errorf("pk change: err = %v", err)
	}
	if err := db.Update("scripts", "s", Row{"script_name": "s"}); err != nil {
		t.Errorf("no-op pk touch should be fine: %v", err)
	}
}

func TestUpdateForeignKeyRecheck(t *testing.T) {
	db := newCourseDB(t)
	if err := db.Insert("scripts", Row{"script_name": "s"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("impls", Row{"starting_url": "u", "script_name": "s"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update("impls", "u", Row{"script_name": "ghost"}); !errors.Is(err, ErrFK) {
		t.Fatalf("err = %v, want ErrFK", err)
	}
}

func TestTransactionRollbackRestoresExactState(t *testing.T) {
	db := newCourseDB(t)
	if err := db.Insert("scripts", Row{"script_name": "keep", "version": 1}); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin("scripts")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("scripts", Row{"script_name": "new"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("scripts", "keep", Row{"version": 99}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("scripts", "new"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("scripts", Row{"script_name": "other"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Count("scripts"); n != 1 {
		t.Fatalf("count after rollback = %d, want 1", n)
	}
	got, err := db.Get("scripts", "keep")
	if err != nil {
		t.Fatal(err)
	}
	if got["version"] != int64(1) {
		t.Errorf("version after rollback = %v, want 1", got["version"])
	}
	if db.Exists("scripts", "new") || db.Exists("scripts", "other") {
		t.Error("rolled-back inserts survived")
	}
}

func TestTransactionCommitKeepsState(t *testing.T) {
	db := newCourseDB(t)
	tx, _ := db.Begin("scripts")
	for n := 0; n < 10; n++ {
		if err := tx.Insert("scripts", Row{"script_name": fmt.Sprintf("s%d", n)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Count("scripts"); n != 10 {
		t.Fatalf("count = %d, want 10", n)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("double commit: err = %v", err)
	}
	if err := tx.Insert("scripts", Row{"script_name": "late"}); !errors.Is(err, ErrTxDone) {
		t.Errorf("insert after commit: err = %v", err)
	}
}

func TestDropTableRestrict(t *testing.T) {
	db := newCourseDB(t)
	if err := db.Insert("scripts", Row{"script_name": "s"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("impls", Row{"starting_url": "u", "script_name": "s"}); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("scripts"); !errors.Is(err, ErrFK) {
		t.Fatalf("drop referenced table: err = %v, want ErrFK", err)
	}
	if err := db.DropTable("impls"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("scripts"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("scripts"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("double drop: err = %v", err)
	}
}

func TestTablesSorted(t *testing.T) {
	db := newCourseDB(t)
	got := db.Tables()
	if len(got) != 2 || got[0] != "impls" || got[1] != "scripts" {
		t.Fatalf("Tables() = %v", got)
	}
}

func TestSchemaOf(t *testing.T) {
	db := newCourseDB(t)
	s, err := db.SchemaOf("scripts")
	if err != nil {
		t.Fatal(err)
	}
	if s.Key != "script_name" || len(s.Columns) != 6 {
		t.Errorf("SchemaOf = %+v", s)
	}
	if _, err := db.SchemaOf("nope"); !errors.Is(err, ErrNoTable) {
		t.Errorf("missing table: err = %v", err)
	}
}

func TestGetClonesRows(t *testing.T) {
	db := newCourseDB(t)
	if err := db.Insert("scripts", Row{"script_name": "s", "author": "a"}); err != nil {
		t.Fatal(err)
	}
	got, _ := db.Get("scripts", "s")
	got["author"] = "mutated"
	again, _ := db.Get("scripts", "s")
	if again["author"] != "a" {
		t.Error("mutating a returned row leaked into the store")
	}
}

func TestBytesColumnsRoundTrip(t *testing.T) {
	db := newCourseDB(t)
	if err := db.Insert("scripts", Row{"script_name": "s"}); err != nil {
		t.Fatal(err)
	}
	payload := []byte{0x00, 0x01, 0xFE, 0xFF}
	if err := db.Insert("impls", Row{"starting_url": "u", "script_name": "s", "payload": payload}); err != nil {
		t.Fatal(err)
	}
	got, _ := db.Get("impls", "u")
	b := got["payload"].([]byte)
	if len(b) != 4 || b[2] != 0xFE {
		t.Errorf("payload = %v", b)
	}
}

func TestTimeCoercionFromString(t *testing.T) {
	db := newCourseDB(t)
	if err := db.Insert("scripts", Row{"script_name": "s", "created": "1999-04-21T10:00:00Z"}); err != nil {
		t.Fatal(err)
	}
	got, _ := db.Get("scripts", "s")
	ts := got["created"].(time.Time)
	if ts.Year() != 1999 || ts.Month() != 4 {
		t.Errorf("created = %v", ts)
	}
}

// deleteRow deletes one row in a batch of its own.
func deleteRow(db *DB, table string, pk any) error {
	var b Batch
	b.Delete(table, pk)
	return db.Apply(&b)
}

// autoDB gives a database the one-row Delete a Tx has, for workloads
// that write through either.
type autoDB struct{ *DB }

func (a autoDB) Delete(table string, pk any) error { return deleteRow(a.DB, table, pk) }
