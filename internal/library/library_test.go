package library

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/docdb"
	"repro/internal/relstore"
)

// newLibrary builds a library with three catalogued courses and a
// ticking deterministic clock (one minute per Now call).
func newLibrary(t *testing.T) (*Library, *docdb.Store) {
	t.Helper()
	s, err := docdb.Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(1999, 4, 21, 8, 0, 0, 0, time.UTC)
	tick := 0
	s.Now = func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * time.Minute)
	}
	if err := s.CreateDatabase(docdb.Database{Name: "mmu"}); err != nil {
		t.Fatal(err)
	}
	courses := []docdb.Script{
		{Name: "cs101", DBName: "mmu", Author: "Shih", Keywords: []string{"computer", "engineering"},
			Description: "Introduction to Computer Engineering"},
		{Name: "mm201", DBName: "mmu", Author: "Ma", Keywords: []string{"multimedia", "computing"},
			Description: "Introduction to Multimedia Computing"},
		{Name: "ed110", DBName: "mmu", Author: "Huang", Keywords: []string{"engineering", "drawing"},
			Description: "Introduction to Engineering Drawing"},
	}
	for _, c := range courses {
		if err := s.CreateScript(c); err != nil {
			t.Fatal(err)
		}
	}
	l := New(s)
	l.RegisterInstructor("Shih")
	for i, c := range courses {
		num := []string{"CS-101", "MM-201", "ED-110"}[i]
		if err := l.Add(c.Name, num, "Shih"); err != nil {
			t.Fatal(err)
		}
	}
	return l, s
}

func TestAddRequiresInstructor(t *testing.T) {
	l, s := newLibrary(t)
	if err := s.CreateScript(docdb.Script{Name: "x1", DBName: "mmu"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Add("x1", "X-1", "student-bob"); !errors.Is(err, ErrNotInstructor) {
		t.Fatalf("err = %v", err)
	}
	if err := l.Add("x1", "X-1", "Shih"); err != nil {
		t.Fatal(err)
	}
}

func TestAddUnknownScript(t *testing.T) {
	l, _ := newLibrary(t)
	if err := l.Add("ghost", "G-1", "Shih"); !errors.Is(err, relstore.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestAddDuplicate(t *testing.T) {
	l, _ := newLibrary(t)
	if err := l.Add("cs101", "CS-101", "Shih"); !errors.Is(err, ErrAlreadyAdded) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemove(t *testing.T) {
	l, _ := newLibrary(t)
	if err := l.Remove("cs101", "student"); !errors.Is(err, ErrNotInstructor) {
		t.Fatalf("err = %v", err)
	}
	if err := l.Remove("cs101", "Shih"); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove("cs101", "Shih"); !errors.Is(err, ErrNotInLibrary) {
		t.Fatalf("double remove: %v", err)
	}
	// Removed document no longer searchable.
	if hits := l.Search(Query{Keywords: []string{"computer"}}); len(hits) != 0 {
		t.Errorf("hits after remove = %+v", hits)
	}
}

func TestSearchByKeyword(t *testing.T) {
	l, _ := newLibrary(t)
	hits := l.Search(Query{Keywords: []string{"engineering"}})
	if len(hits) != 2 {
		t.Fatalf("hits = %d", len(hits))
	}
	// Both courses mention engineering once in keywords; order by name.
	if hits[0].Entry.ScriptName != "cs101" || hits[1].Entry.ScriptName != "ed110" {
		t.Errorf("order = %s, %s", hits[0].Entry.ScriptName, hits[1].Entry.ScriptName)
	}
}

func TestSearchRankingByMatchedTerms(t *testing.T) {
	l, _ := newLibrary(t)
	hits := l.Search(Query{Keywords: []string{"engineering", "drawing"}})
	if len(hits) != 2 {
		t.Fatalf("hits = %d", len(hits))
	}
	if hits[0].Entry.ScriptName != "ed110" || hits[0].Score != 2 {
		t.Errorf("top hit = %+v", hits[0])
	}
}

func TestSearchByInstructor(t *testing.T) {
	l, _ := newLibrary(t)
	hits := l.Search(Query{Instructor: "ma"})
	if len(hits) != 1 || hits[0].Entry.ScriptName != "mm201" {
		t.Errorf("hits = %+v", hits)
	}
}

func TestSearchByCourseNumberAndTitle(t *testing.T) {
	l, _ := newLibrary(t)
	hits := l.Search(Query{Course: "cs-101"})
	if len(hits) != 1 || hits[0].Entry.ScriptName != "cs101" {
		t.Errorf("by number: %+v", hits)
	}
	hits = l.Search(Query{Course: "multimedia"})
	if len(hits) != 1 || hits[0].Entry.ScriptName != "mm201" {
		t.Errorf("by title: %+v", hits)
	}
}

func TestSearchConjunction(t *testing.T) {
	l, _ := newLibrary(t)
	hits := l.Search(Query{Keywords: []string{"engineering"}, Instructor: "Huang"})
	if len(hits) != 1 || hits[0].Entry.ScriptName != "ed110" {
		t.Errorf("hits = %+v", hits)
	}
	if hits := l.Search(Query{Keywords: []string{"engineering"}, Instructor: "Ma"}); len(hits) != 0 {
		t.Errorf("contradictory query hits = %+v", hits)
	}
}

func TestSearchEmptyQueryReturnsAll(t *testing.T) {
	l, _ := newLibrary(t)
	hits := l.Search(Query{})
	if len(hits) != 3 {
		t.Errorf("hits = %d", len(hits))
	}
}

func TestScanSearchAgreesWithIndexed(t *testing.T) {
	l, _ := newLibrary(t)
	queries := []Query{
		{},
		{Keywords: []string{"engineering"}},
		{Keywords: []string{"engineering", "drawing"}},
		{Instructor: "Shih"},
		{Course: "intro"},
		{Keywords: []string{"multimedia"}, Instructor: "Ma", Course: "MM"},
	}
	for _, q := range queries {
		a := l.Search(q)
		b := l.ScanSearch(q)
		if len(a) != len(b) {
			t.Errorf("query %+v: indexed %d vs scan %d", q, len(a), len(b))
			continue
		}
		for i := range a {
			if a[i].Entry.ScriptName != b[i].Entry.ScriptName || a[i].Score != b[i].Score {
				t.Errorf("query %+v: row %d differs: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
}

func TestCatalogSorted(t *testing.T) {
	l, _ := newLibrary(t)
	cat := l.Catalog()
	if len(cat) != 3 || cat[0].ScriptName != "cs101" || cat[2].ScriptName != "mm201" {
		t.Errorf("catalog = %+v", cat)
	}
}

func TestCheckOutInFlow(t *testing.T) {
	l, _ := newLibrary(t)
	co1, err := l.CheckOut("cs101", "alice")
	if err != nil {
		t.Fatal(err)
	}
	// Another student may hold the same document concurrently.
	co2, err := l.CheckOut("cs101", "bob")
	if err != nil {
		t.Fatalf("concurrent library checkout refused: %v", err)
	}
	// A student may hold many documents.
	if _, err := l.CheckOut("mm201", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := l.CheckIn(co1); err != nil {
		t.Fatal(err)
	}
	if err := l.CheckIn(co1); !errors.Is(err, ErrNotOut) {
		t.Fatalf("double checkin: %v", err)
	}
	if err := l.CheckIn(co2); err != nil {
		t.Fatal(err)
	}
}

func TestCheckOutUnknownDoc(t *testing.T) {
	l, _ := newLibrary(t)
	if _, err := l.CheckOut("ghost", "alice"); !errors.Is(err, ErrNotInLibrary) {
		t.Fatalf("err = %v", err)
	}
}

func TestAssessment(t *testing.T) {
	l, _ := newLibrary(t)
	co1, _ := l.CheckOut("cs101", "alice") // out at t, in at t+1min
	if err := l.CheckIn(co1); err != nil {
		t.Fatal(err)
	}
	co2, _ := l.CheckOut("mm201", "alice")
	if err := l.CheckIn(co2); err != nil {
		t.Fatal(err)
	}
	if _, err := l.CheckOut("cs101", "alice"); err != nil { // left open
		t.Fatal(err)
	}
	a, err := l.Assess("alice")
	if err != nil {
		t.Fatal(err)
	}
	if a.Checkouts != 3 || a.DistinctDocs != 2 || a.Open != 1 {
		t.Errorf("assessment = %+v", a)
	}
	if a.TotalDuration != 2*time.Minute {
		t.Errorf("duration = %v", a.TotalDuration)
	}
	if a.Score <= 0 {
		t.Errorf("score = %v", a.Score)
	}
	// A student with no activity assesses to zero.
	zero, err := l.Assess("nobody")
	if err != nil {
		t.Fatal(err)
	}
	if zero.Checkouts != 0 || zero.Score != 0 {
		t.Errorf("zero = %+v", zero)
	}
}

func TestLibraryLedgerSeparateFromSCM(t *testing.T) {
	l, s := newLibrary(t)
	// An SCM checkout of the same script does not interfere with
	// library circulation.
	if _, err := s.CheckOut("script", "cs101", "Shih"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.CheckOut("cs101", "alice"); err != nil {
		t.Fatalf("library checkout blocked by SCM checkout: %v", err)
	}
	a, err := l.Assess("Shih")
	if err != nil {
		t.Fatal(err)
	}
	if a.Checkouts != 0 {
		t.Errorf("SCM rows leaked into library assessment: %+v", a)
	}
}

// TestSearchScanSearchDifferentialProperty is the randomized parity
// harness: over randomized catalogs and queries, the indexed Search
// and the linear ScanSearch must agree on the exact hit set AND the
// exact ranking. The content index (internal/search) reuses the same
// harness shape for its own differential test.
func TestSearchScanSearchDifferentialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1999))
	vocab := []string{"web", "document", "database", "multimedia", "engineering",
		"drawing", "computer", "virtual", "university", "network"}
	instructors := []string{"Shih", "Ma", "Huang", "Wang"}
	pick := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = vocab[rng.Intn(len(vocab))]
		}
		return out
	}
	for trial := 0; trial < 40; trial++ {
		s, err := docdb.Open(relstore.NewDB(), blob.NewStore())
		if err != nil {
			t.Fatal(err)
		}
		s.Now = func() time.Time { return time.Date(1999, 4, 21, 8, 0, 0, 0, time.UTC) }
		if err := s.CreateDatabase(docdb.Database{Name: "mmu"}); err != nil {
			t.Fatal(err)
		}
		l := New(s)
		l.RegisterInstructor("admin")
		nCourses := 1 + rng.Intn(20)
		for c := 0; c < nCourses; c++ {
			name := fmt.Sprintf("course%03d", c)
			err := s.CreateScript(docdb.Script{
				Name: name, DBName: "mmu",
				Author:      instructors[rng.Intn(len(instructors))],
				Keywords:    pick(1 + rng.Intn(4)),
				Description: strings.Join(pick(1+rng.Intn(5)), " "),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Add(name, fmt.Sprintf("N-%d", rng.Intn(5)), "admin"); err != nil {
				t.Fatal(err)
			}
		}
		for q := 0; q < 25; q++ {
			query := Query{}
			if rng.Intn(4) > 0 {
				query.Keywords = pick(1 + rng.Intn(3))
			}
			if rng.Intn(3) == 0 {
				query.Instructor = instructors[rng.Intn(len(instructors))]
			}
			if rng.Intn(3) == 0 {
				query.Course = []string{"N-1", "N-2", "web", "cour"}[rng.Intn(4)]
			}
			fast := l.Search(query)
			slow := l.ScanSearch(query)
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("trial %d query %+v:\nSearch     = %+v\nScanSearch = %+v",
					trial, query, fast, slow)
			}
		}
	}
}

// Remove deletes a document from the catalog (instructor privilege).
func (l *Library) Remove(scriptName, instructor string) error {
	if !l.IsInstructor(instructor) {
		return fmt.Errorf("%w: %s", ErrNotInstructor, instructor)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[scriptName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotInLibrary, scriptName)
	}
	delete(l.entries, scriptName)
	for _, tok := range entryTokens(e) {
		if set := l.index[tok]; set != nil {
			delete(set, scriptName)
			if len(set) == 0 {
				delete(l.index, tok)
			}
		}
	}
	return nil
}
