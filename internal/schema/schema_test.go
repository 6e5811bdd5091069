package schema

import (
	"errors"
	"testing"

	"repro/internal/relstore"
)

func TestCreateInstallsAllTables(t *testing.T) {
	db := relstore.NewDB()
	if err := Create(db); err != nil {
		t.Fatal(err)
	}
	want := []string{
		TableAnnotations, TableBugReports, TableCheckouts, TableDatabases,
		TableDocObjects, TableHTMLFiles, TableImplMedia, TableImpls,
		TableProgFiles, TableScriptMedia, TableScripts, TableTestRecords,
		TableVersions,
	}
	got := db.Tables()
	if len(got) != len(want) {
		t.Fatalf("tables = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("table[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestCreateIsNotIdempotent(t *testing.T) {
	db := relstore.NewDB()
	if err := Create(db); err != nil {
		t.Fatal(err)
	}
	if err := Create(db); !errors.Is(err, relstore.ErrTableExists) {
		t.Fatalf("second Create: err = %v", err)
	}
}

func TestForeignKeyChainEnforced(t *testing.T) {
	db := relstore.NewDB()
	if err := Create(db); err != nil {
		t.Fatal(err)
	}
	// A script cannot exist without its database.
	err := db.Insert(TableScripts, relstore.Row{"script_name": "s", "db_name": "missing"})
	if !errors.Is(err, relstore.ErrFK) {
		t.Fatalf("err = %v", err)
	}
	if err := db.Insert(TableDatabases, relstore.Row{"db_name": "course-db"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(TableScripts, relstore.Row{"script_name": "s", "db_name": "course-db"}); err != nil {
		t.Fatal(err)
	}
	// An implementation cannot exist without its script.
	err = db.Insert(TableImpls, relstore.Row{"starting_url": "u", "script_name": "nope"})
	if !errors.Is(err, relstore.ErrFK) {
		t.Fatalf("err = %v", err)
	}
	if err := db.Insert(TableImpls, relstore.Row{"starting_url": "u", "script_name": "s"}); err != nil {
		t.Fatal(err)
	}
	// Deleting the script while the implementation lives is restricted.
	var b relstore.Batch
	b.Delete(TableScripts, "s")
	if err := db.Apply(&b); !errors.Is(err, relstore.ErrFK) {
		t.Fatalf("restrict err = %v", err)
	}
}

func TestJoinSplitListRoundTrip(t *testing.T) {
	cases := [][]string{
		nil,
		{"one"},
		{"a", "b", "c"},
		{"http://x/y", "http://z"},
	}
	for _, c := range cases {
		got := SplitList(JoinList(c))
		if len(got) != len(c) {
			t.Errorf("round trip of %v = %v", c, got)
			continue
		}
		for i := range c {
			if got[i] != c[i] {
				t.Errorf("round trip of %v = %v", c, got)
			}
		}
	}
}

func TestSplitListEmpty(t *testing.T) {
	if got := SplitList(""); got != nil {
		t.Errorf("SplitList(\"\") = %v, want nil", got)
	}
}

func TestSchemasValidateIndividually(t *testing.T) {
	for _, s := range All() {
		db := relstore.NewDB()
		// Create parent tables first so FK targets resolve; here we just
		// check the schema structure is self-consistent.
		if s.Key == "" {
			t.Errorf("table %s has no key", s.Name)
		}
		found := false
		for _, c := range s.Columns {
			if c.Name == s.Key {
				found = true
				if !c.NotNull {
					t.Errorf("table %s primary key %s should be NOT NULL", s.Name, s.Key)
				}
			}
		}
		if !found {
			t.Errorf("table %s key %s is not a column", s.Name, s.Key)
		}
		_ = db
	}
}
