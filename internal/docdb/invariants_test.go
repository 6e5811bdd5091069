package docdb

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/relstore"
	"repro/internal/schema"
)

// checkInvariants is the invariant oracle: it checks a store against
// the rules every committed state keeps, and returns each breach. The
// rules:
//
//   - every foreign key holds;
//   - at most one checkout of a component is open;
//   - a component's versions are numbered 1..n, one per check-in
//     (CheckIn derives the next number from the count);
//   - a document held as an instance or a class has content rows
//     (pages, programs or media), and one held only by references has
//     none;
//   - each resident BLOB's reference count equals the number of media
//     rows naming it, and no resident BLOB goes unnamed.
//
// Separately it returns, sorted, the hashes that media rows name but
// the BLOB store does not hold: the bytes a crash loses when no
// checkpoint wrote them (README, "Durability & checkpoints"). That is
// the documented loss, not a breach; the caller decides which hashes
// may be in it.
func checkInvariants(t *testing.T, s *Store) (breaches, unresident []string) {
	t.Helper()
	rel := s.Rel()
	rows := func(table string) []relstore.Row {
		t.Helper()
		rs, err := rel.Select(relstore.Query{Table: table})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	breach := func(format string, args ...any) { breaches = append(breaches, fmt.Sprintf(format, args...)) }

	for _, table := range rel.Tables() {
		sch, err := rel.SchemaOf(table)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows(table) {
			for _, fk := range sch.ForeignKeys {
				if v := r[fk.Column]; v != nil && !rel.Exists(fk.RefTable, v) {
					breach("%s[%v].%s = %v names no %s row", table, r[sch.Key], fk.Column, v, fk.RefTable)
				}
			}
		}
	}

	component := func(r relstore.Row) string { return rowString(r, "object_kind") + " " + rowString(r, "object_id") }
	open := map[string]int{}
	for _, r := range rows(schema.TableCheckouts) {
		if r["in_time"] == nil {
			open[component(r)]++
		}
	}
	for c, n := range open {
		if n > 1 {
			breach("%s has %d open checkouts", c, n)
		}
	}
	versions := map[string][]int64{}
	for _, r := range rows(schema.TableVersions) {
		versions[component(r)] = append(versions[component(r)], rowInt(r, "version"))
	}
	for c, vs := range versions {
		slices.Sort(vs)
		for i, v := range vs {
			if v != int64(i+1) {
				breach("%s has versions %v, want 1..%d", c, vs, len(vs))
				break
			}
		}
	}

	content := map[string]int{}
	for _, table := range []string{schema.TableHTMLFiles, schema.TableProgFiles, schema.TableImplMedia} {
		for _, r := range rows(table) {
			content[rowString(r, "starting_url")]++
		}
	}
	held := map[string]bool{} // URL -> held as an instance or class
	for _, r := range rows(schema.TableDocObjects) {
		url := rowString(r, "starting_url")
		held[url] = held[url] || rowString(r, "form") != schema.FormReference
	}
	for url, h := range held {
		switch {
		case h && content[url] == 0:
			breach("%s is held as an instance with no content", url)
		case !h && content[url] > 0:
			breach("%s is held only by references, yet has %d content rows", url, content[url])
		}
	}

	named := map[string]int{}
	for _, table := range []string{schema.TableImplMedia, schema.TableScriptMedia} {
		for _, r := range rows(table) {
			named[rowString(r, "blob_hash")]++
		}
	}
	for h, n := range named {
		ref := blob.Ref{Hash: h}
		if !s.Blobs().Has(ref) {
			unresident = append(unresident, h)
		} else if got := s.Blobs().RefCount(ref); got != n {
			breach("BLOB %.12s has reference count %d, but %d rows name it", h, got, n)
		}
	}
	for _, ref := range s.Blobs().List() {
		if named[ref.Hash] == 0 {
			breach("BLOB %.12s is resident, but no row names it", ref.Hash)
		}
	}
	sort.Strings(breaches)
	sort.Strings(unresident)
	return breaches, unresident
}

// dumpRows renders every row of every table, one sorted line per row,
// for comparing two stores' states.
func dumpRows(t *testing.T, s *Store) []string {
	t.Helper()
	var lines []string
	for _, table := range s.Rel().Tables() {
		err := s.Rel().Scan(table, func(r relstore.Row) bool {
			cols := make([]string, 0, len(r))
			for c, v := range r {
				cols = append(cols, fmt.Sprintf("%s=%v", c, v))
			}
			sort.Strings(cols)
			lines = append(lines, table+": "+strings.Join(cols, " "))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(lines)
	return lines
}

// opFixture names what opStation built, for the operations to act on.
type opFixture struct {
	url      string // the course's implementation
	inst     string // its non-persistent instance
	class    string // a class of it, when a case's setup declares one
	checkout string // the open checkout of the course's script
}

// opStation builds the station every operation case starts from on a
// durable store over dir: a course with pages, a program and media
// (seedCourse), its instance, script media, a test record with a bug
// report on the implementation and one on the script alone, an
// annotation of each kind, and an open checkout.
func opStation(t *testing.T, dir string) (*Store, *opFixture) {
	t.Helper()
	s, _ := newDurableStore(t, dir)
	script, url := seedCourse(t, s)
	inst, err := s.NewInstance(url, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AttachScriptMedia(script, "description.wav", blob.KindAudio, bytes.Repeat([]byte("vd"), 300)); err != nil {
		t.Fatal(err)
	}
	for _, tr := range []TestRecord{
		{Name: "test-impl", ScriptName: script, StartingURL: url, Scope: "local"},
		{Name: "test-script", ScriptName: script, Scope: "global"},
	} {
		if err := s.RecordTest(tr); err != nil {
			t.Fatal(err)
		}
		if err := s.FileBugReport(BugReport{Name: "bug-" + tr.Name, TestName: tr.Name, QAEngineer: "qa"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []Annotation{
		{Name: "ann-impl", ScriptName: script, StartingURL: url, Author: "Shih", File: []byte("circle")},
		{Name: "ann-script", ScriptName: script, Author: "Ma", File: []byte("note")},
	} {
		if err := s.SaveAnnotation(a); err != nil {
			t.Fatal(err)
		}
	}
	co, err := s.CheckOut(schema.KindScript, script, "alice")
	if err != nil {
		t.Fatal(err)
	}
	return s, &opFixture{url: url, inst: inst.ID, checkout: co}
}

// TestEveryOperationCommitsAsOne runs each mutating document operation
// on a checkpointed durable station, pins the WAL records it writes,
// and recovers a copy cut at every record boundary, as a SIGKILL there
// leaves the directory. Every cut must recover the rows of the state
// before the operation or of the state after it, never a mix, and must
// pass the invariant oracle. The media rows whose bytes are lost are
// exactly those naming bytes the operation brought, and only in the
// after-state: its BLOBs reach disk at the next checkpoint.
func TestEveryOperationCommitsAsOne(t *testing.T) {
	attached, described := bytes.Repeat([]byte("fresh"), 200), bytes.Repeat([]byte("spoken"), 150)
	lecture := lectureBundle()
	var lectureMedia [][]byte
	for _, m := range lecture.Media {
		lectureMedia = append(lectureMedia, m.Data)
	}
	importLecture := func(s *Store, dbName string) error {
		b := lectureBundle()
		b.Script.DBName = dbName
		_, err := s.ImportBundle(&b, 2, false)
		return err
	}
	importLectureRef := func(s *Store) error {
		b := lectureBundle()
		_, err := s.ImportReference(b.Script, b.Impl, 2, 1)
		return err
	}
	for _, tc := range []struct {
		name    string
		setup   func(s *Store, f *opFixture) error // before the checkpoint
		op      func(s *Store, f *opFixture) error
		records int      // WAL records op writes
		brings  [][]byte // media bytes op brings to the station
	}{
		{name: "CreateScript", records: 1, op: func(s *Store, f *opFixture) error {
			return s.CreateScript(Script{Name: "os-course", DBName: "mmu", Author: "Shih"})
		}},
		{name: "SetProgress", records: 1, op: func(s *Store, f *opFixture) error { return s.SetProgress("intro-cs", 75) }},
		{name: "AttachImplMedia", records: 1, brings: [][]byte{attached}, op: func(s *Store, f *opFixture) error {
			_, err := s.AttachImplMedia(f.url, "fresh.gif", blob.KindImage, attached)
			return err
		}},
		{name: "AttachScriptMedia", records: 1, brings: [][]byte{described}, op: func(s *Store, f *opFixture) error {
			_, err := s.AttachScriptMedia("intro-cs", "spoken.wav", blob.KindAudio, described)
			return err
		}},
		{name: "RecordTest", records: 1, op: func(s *Store, f *opFixture) error {
			return s.RecordTest(TestRecord{Name: "test-late", ScriptName: "intro-cs", StartingURL: f.url, Scope: "local"})
		}},
		{name: "SaveAnnotation", records: 1, op: func(s *Store, f *opFixture) error {
			return s.SaveAnnotation(Annotation{Name: "ann-late", ScriptName: "intro-cs", StartingURL: f.url, File: []byte("arrow")})
		}},
		{name: "ReplaceAnnotation", records: 1, op: func(s *Store, f *opFixture) error {
			return s.ReplaceAnnotation("ann-impl", []byte("square"))
		}},
		{name: "CheckOut", records: 1, op: func(s *Store, f *opFixture) error {
			_, err := s.CheckOut(schema.KindImplementation, f.url, "bob")
			return err
		}},
		{name: "CheckIn", records: 1, op: func(s *Store, f *opFixture) error { return s.CheckIn(f.checkout, "revised") }},
		{name: "DeclareClass", records: 1, op: func(s *Store, f *opFixture) error {
			_, err := s.DeclareClass(f.inst)
			return err
		}},
		{name: "Instantiate", records: 1,
			setup: func(s *Store, f *opFixture) error {
				class, err := s.DeclareClass(f.inst)
				f.class = class.ID
				return err
			},
			op: func(s *Store, f *opFixture) error {
				_, err := s.Instantiate(f.class, "http://mmu/intro-cs/v2", 3)
				return err
			}},
		{name: "DuplicateComponent", records: 1, op: func(s *Store, f *opFixture) error {
			return s.DuplicateComponent(f.url, "http://mmu/intro-cs/copy", "Ma")
		}},
		{name: "MigrateToReference", records: 1, op: func(s *Store, f *opFixture) error { return s.MigrateToReference(f.inst, 1) }},
		{name: "DeleteImplementation", records: 1, op: func(s *Store, f *opFixture) error { return s.DeleteImplementation(f.url) }},
		{name: "DeleteScript", records: 1, op: func(s *Store, f *opFixture) error { return s.DeleteScript("intro-cs") }},
		// A course of a database the station lacks: all three scaffold
		// rows join the import's batch.
		{name: "ImportBundle/first", records: 1, brings: lectureMedia, op: func(s *Store, f *opFixture) error {
			return importLecture(s, "mmu-east")
		}},
		{name: "ImportBundle/again", records: 0,
			setup: func(s *Store, f *opFixture) error { return importLecture(s, "mmu") },
			op:    func(s *Store, f *opFixture) error { return importLecture(s, "mmu") }},
		{name: "ImportBundle/over-reference", records: 1, brings: lectureMedia,
			setup: func(s *Store, f *opFixture) error { return importLectureRef(s) },
			op:    func(s *Store, f *opFixture) error { return importLecture(s, "mmu") }},
		{name: "ImportReference/first", records: 1, op: func(s *Store, f *opFixture) error { return importLectureRef(s) }},
		{name: "ImportReference/again", records: 0,
			setup: func(s *Store, f *opFixture) error { return importLectureRef(s) },
			op:    func(s *Store, f *opFixture) error { return importLectureRef(s) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, f := opStation(t, dir)
			if tc.setup != nil {
				if err := tc.setup(s, f); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			if breaches, lost := checkInvariants(t, s); len(breaches)+len(lost) > 0 {
				t.Fatalf("the checkpointed station breaks the oracle: %v, unresident %v", breaches, lost)
			}
			before := dumpRows(t, s)
			tail, cuts := walCuts(t, dir, func() {
				if err := tc.op(s, f); err != nil {
					t.Fatal(err)
				}
			})
			after := dumpRows(t, s)
			if got := len(cuts) - 1; got != tc.records {
				t.Errorf("the operation wrote %d WAL records, want %d", got, tc.records)
			}
			var brought []string
			for _, data := range tc.brings {
				brought = append(brought, blob.HashOf(data))
			}
			sort.Strings(brought)

			for i, cut := range cuts {
				r := recoverCut(t, dir, tail, cut)
				got := dumpRows(t, r)
				var wantLost []string
				switch {
				case i == 0 && !slices.Equal(got, before):
					t.Errorf("cut 0: the tail without the operation recovers the before-state with %s", rowDelta(got, before))
				case i == len(cuts)-1 && !slices.Equal(got, after):
					t.Errorf("cut %d: the whole tail recovers the after-state with %s", i, rowDelta(got, after))
				case !slices.Equal(got, before) && !slices.Equal(got, after):
					t.Errorf("cut %d of %d recovers a torn operation: the after-state with %s", i, len(cuts)-1, rowDelta(got, after))
				}
				if slices.Equal(got, after) {
					wantLost = brought
				}
				breaches, lost := checkInvariants(t, r)
				if len(breaches) > 0 {
					t.Errorf("cut %d of %d breaks the oracle: %s", i, len(cuts)-1, strings.Join(breaches, "; "))
				}
				if !slices.Equal(lost, wantLost) {
					t.Errorf("cut %d of %d: unresident BLOBs %.12q, want the %d the operation brought", i, len(cuts)-1, lost, len(wantLost))
				}
				if err := r.Rel().CloseWAL(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// rowDelta describes how the rows got differ from want: how many rows
// each has that the other lacks, and the first of them.
func rowDelta(got, want []string) string {
	var extra, missing []string
	for _, l := range got {
		if !slices.Contains(want, l) {
			extra = append(extra, l)
		}
	}
	for _, l := range want {
		if !slices.Contains(got, l) {
			missing = append(missing, l)
		}
	}
	first := func(ls []string) string {
		if len(ls) == 0 {
			return ""
		}
		return fmt.Sprintf(" (first: %.120s)", ls[0])
	}
	return fmt.Sprintf("%d rows more%s and %d rows fewer%s", len(extra), first(extra), len(missing), first(missing))
}
