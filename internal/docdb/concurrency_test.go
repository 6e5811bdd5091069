package docdb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/relstore"
	"repro/internal/schema"
)

// newConcStore builds a store whose clock is safe for concurrent use
// (the newStore helper's counting clock is not).
func newConcStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	fixed := time.Date(1999, 4, 21, 9, 0, 0, 0, time.UTC)
	s.Now = func() time.Time { return fixed }
	return s
}

// TestConcurrentCheckOutSingleWinner races many users for one component:
// the transactional CheckOut must admit exactly one of them.
func TestConcurrentCheckOutSingleWinner(t *testing.T) {
	s := newConcStore(t)
	const racers = 8
	var wg sync.WaitGroup
	var won, lost sync.Map
	for r := 0; r < racers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			user := fmt.Sprintf("u%d", r)
			id, err := s.CheckOut("script", "intro-cs", user)
			switch {
			case err == nil:
				won.Store(user, id)
			case errors.Is(err, ErrCheckedOut):
				lost.Store(user, true)
			default:
				t.Errorf("%s: unexpected error %v", user, err)
			}
		}(r)
	}
	wg.Wait()
	winners := 0
	won.Range(func(_, _ any) bool { winners++; return true })
	if winners != 1 {
		t.Fatalf("winners = %d, want exactly 1", winners)
	}
}

// TestConcurrentCheckInVersions closes many checkouts of distinct
// components in parallel; every history must end up with version 1..n
// with no duplicates, proving the version bump is race-free.
func TestConcurrentCheckInVersions(t *testing.T) {
	s := newConcStore(t)
	const rounds = 5
	const objects = 4
	for round := 0; round < rounds; round++ {
		ids := make([]string, objects)
		for o := 0; o < objects; o++ {
			id, err := s.CheckOut("script", fmt.Sprintf("obj%d", o), fmt.Sprintf("u%d", o))
			if err != nil {
				t.Fatal(err)
			}
			ids[o] = id
		}
		var wg sync.WaitGroup
		for o := 0; o < objects; o++ {
			wg.Add(1)
			go func(o int) {
				defer wg.Done()
				if err := s.CheckIn(ids[o], "done"); err != nil {
					t.Error(err)
				}
			}(o)
		}
		wg.Wait()
	}
	for o := 0; o < objects; o++ {
		hist, err := s.History("script", fmt.Sprintf("obj%d", o))
		if err != nil {
			t.Fatal(err)
		}
		if len(hist) != rounds {
			t.Fatalf("obj%d history = %d entries, want %d", o, len(hist), rounds)
		}
		for i, v := range hist {
			if v.Version != int64(i+1) {
				t.Errorf("obj%d version[%d] = %d, want %d", o, i, v.Version, i+1)
			}
		}
	}
}

// TestConcurrentReplaceAnnotationVersions races instructors revising
// one overlay: every replacement must bump the version exactly once,
// so none is lost to a read another replacement overtook.
func TestConcurrentReplaceAnnotationVersions(t *testing.T) {
	s := newConcStore(t)
	if err := s.CreateDatabase(Database{Name: "mmu"}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateScript(Script{Name: "intro-cs", DBName: "mmu"}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveAnnotation(Annotation{Name: "overlay", ScriptName: "intro-cs", File: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	const writers, replaces = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < replaces; i++ {
				if err := s.ReplaceAnnotation("overlay", []byte{byte(w), byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	row, err := s.Rel().Get(schema.TableAnnotations, "overlay")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := row["version"], int64(1+writers*replaces); got != want {
		t.Errorf("version after %d replacements = %v, want %d", writers*replaces, got, want)
	}
}

// TestSyncIDsAfterRestore simulates a process restart over restored
// state: a second Store opened over the same engine starts its ID
// counter at zero, and without SyncIDs its first checkout would collide
// with the restored co-000001 row.
func TestSyncIDsAfterRestore(t *testing.T) {
	first := newConcStore(t)
	if _, err := first.CheckOut("script", "obj-a", "alice"); err != nil {
		t.Fatal(err)
	}
	restarted, err := Open(first.Rel(), first.Blobs())
	if err != nil {
		t.Fatal(err)
	}
	restarted.Now = first.Now
	if err := restarted.SyncIDs(); err != nil {
		t.Fatal(err)
	}
	id, err := restarted.CheckOut("script", "obj-b", "bob")
	if err != nil {
		t.Fatalf("checkout after restore: %v", err)
	}
	if id != "co-000002" {
		t.Errorf("id = %s, want co-000002", id)
	}
}

// TestSyncIDsPerTable: whichever of the five ID-bearing tables holds
// the largest generated ID, alone, a recovered store's next ID is past
// it.
func TestSyncIDsPerTable(t *testing.T) {
	const script, url = "os-course", "http://mmu/os-course/v1"
	for _, tc := range []struct {
		table string
		row   relstore.Row
	}{
		{schema.TableCheckouts, relstore.Row{"co_id": "co-000950", "object_kind": "script", "object_id": script, "user": "alice"}},
		{schema.TableVersions, relstore.Row{"ver_id": "ver-000950", "object_kind": "script", "object_id": script, "version": int64(1)}},
		{schema.TableImplMedia, relstore.Row{"res_id": "res-000950", "starting_url": url, "blob_hash": "00"}},
		{schema.TableScriptMedia, relstore.Row{"res_id": "res-000950", "script_name": script, "blob_hash": "00"}},
		{schema.TableDocObjects, relstore.Row{"obj_id": "obj-000950", "form": "class", "starting_url": url}},
	} {
		t.Run(tc.table, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := newDurableStore(t, dir)
			if err := s.CreateDatabase(Database{Name: "mmu"}); err != nil {
				t.Fatal(err)
			}
			if err := s.CreateScript(Script{Name: script, DBName: "mmu"}); err != nil {
				t.Fatal(err)
			}
			if err := s.AddImplementation(Implementation{StartingURL: url, ScriptName: script}); err != nil {
				t.Fatal(err)
			}
			if err := s.Rel().Insert(tc.table, tc.row); err != nil {
				t.Fatal(err)
			}
			if err := s.Rel().CloseWAL(); err != nil {
				t.Fatal(err)
			}
			recovered, _ := newDurableStore(t, dir)
			if id := recovered.NewID("x"); id != "x-000951" {
				t.Errorf("first ID after recovery = %s, want x-000951", id)
			}
		})
	}
}

// TestConcurrentBundleImportAndReaders imports many documents of one
// database in parallel into an empty station while readers walk the
// catalog, and checks every import arrived whole. Each import races
// the others for the database's scaffold row. The documents come as
// full bundles, and as the bare references the fabric broadcasts. Run
// with -race.
func TestConcurrentBundleImportAndReaders(t *testing.T) {
	src := newConcStore(t)
	if err := src.CreateDatabase(Database{Name: "mmu"}); err != nil {
		t.Fatal(err)
	}
	const courses = 8
	bundles := make([]*Bundle, courses)
	for i := 0; i < courses; i++ {
		name := fmt.Sprintf("course%d", i)
		url := fmt.Sprintf("http://mmu/%s/v1", name)
		if err := src.CreateScript(Script{Name: name, DBName: "mmu", Author: "Shih"}); err != nil {
			t.Fatal(err)
		}
		if err := src.AddImplementation(Implementation{StartingURL: url, ScriptName: name, Author: "Shih"}); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 4; p++ {
			page := fmt.Sprintf("page%d.html", p)
			if err := src.PutHTML(url, page, []byte(fmt.Sprintf("<html>%s/%s</html>", name, page))); err != nil {
				t.Fatal(err)
			}
		}
		if err := src.PutProgram(url, "quiz.java", "java", []byte("class Quiz {}")); err != nil {
			t.Fatal(err)
		}
		b, err := src.ExportBundle(url)
		if err != nil {
			t.Fatal(err)
		}
		bundles[i] = b
	}

	for _, tc := range []struct {
		form         string
		imp          func(dst *Store, b *Bundle) (DocObject, error)
		pages, progs int
	}{
		{schema.FormInstance, func(dst *Store, b *Bundle) (DocObject, error) { return dst.ImportBundle(b, 2, false) }, 4, 1},
		{schema.FormReference, func(dst *Store, b *Bundle) (DocObject, error) { return dst.ImportReference(b.Script, b.Impl, 2, 1) }, 0, 0},
	} {
		t.Run(tc.form, func(t *testing.T) {
			dst := newConcStore(t)
			var wg sync.WaitGroup
			for i := 0; i < courses; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if _, err := tc.imp(dst, bundles[i]); err != nil {
						t.Errorf("import %d: %v", i, err)
					}
				}(i)
			}
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						if _, err := dst.Scripts("mmu"); err != nil && !errors.Is(err, relstore.ErrNoTable) {
							t.Errorf("reader: %v", err)
							return
						}
						url := fmt.Sprintf("http://mmu/course%d/v1", (r+i)%courses)
						if _, err := dst.HTMLFiles(url); err != nil {
							t.Errorf("reader: %v", err)
							return
						}
					}
				}(r)
			}
			wg.Wait()

			for i := 0; i < courses; i++ {
				url := fmt.Sprintf("http://mmu/course%d/v1", i)
				if obj, err := dst.ObjectByURL(url); err != nil || obj.Form != tc.form {
					t.Errorf("course%d: object %+v (err %v), want a %s", i, obj, err, tc.form)
				}
				html, err := dst.HTMLFiles(url)
				if err != nil {
					t.Fatal(err)
				}
				if len(html) != tc.pages {
					t.Errorf("course%d: %d HTML files, want %d", i, len(html), tc.pages)
				}
				progs, err := dst.ProgramFiles(url)
				if err != nil {
					t.Fatal(err)
				}
				if len(progs) != tc.progs {
					t.Errorf("course%d: %d program files, want %d", i, len(progs), tc.progs)
				}
			}
		})
	}
}
