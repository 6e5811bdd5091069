// Package library implements the Web document virtual library of
// section 5: instructors add or delete document instances (lecture
// notes as Web pages); students browse and retrieve course materials by
// matching keywords, instructor names and course numbers/titles, and
// check pages out and in. The check-in/check-out ledger feeds the
// assessment of student study performance.
package library

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/docdb"
	"repro/internal/relstore"
	"repro/internal/schema"
)

// Library errors.
var (
	ErrNotInstructor = errors.New("library: operation requires instructor privilege")
	ErrNotInLibrary  = errors.New("library: document is not in the library")
	ErrAlreadyAdded  = errors.New("library: document is already in the library")
	ErrNotOut        = errors.New("library: checkout not open")
)

// kindLibrary tags library checkout rows in the shared ledger table.
const kindLibrary = "library_checkout"

// Entry is one catalog record.
type Entry struct {
	ScriptName   string
	Title        string
	CourseNumber string
	Instructor   string
	Keywords     []string
	AddedBy      string
	Added        time.Time
}

// Library is the Web-savvy virtual library over one document store.
type Library struct {
	store *docdb.Store

	mu          sync.RWMutex
	instructors map[string]bool
	entries     map[string]Entry           // script name -> entry
	index       map[string]map[string]bool // token -> script names
}

// New returns an empty library over the store.
func New(store *docdb.Store) *Library {
	return &Library{
		store:       store,
		instructors: make(map[string]bool),
		entries:     make(map[string]Entry),
		index:       make(map[string]map[string]bool),
	}
}

// RegisterInstructor grants instructor privilege (add/delete documents).
func (l *Library) RegisterInstructor(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.instructors[name] = true
}

// IsInstructor reports whether the user holds instructor privilege.
func (l *Library) IsInstructor(name string) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.instructors[name]
}

// Add places a script's document instance into the library catalog.
func (l *Library) Add(scriptName, courseNumber, instructor string) error {
	if !l.IsInstructor(instructor) {
		return fmt.Errorf("%w: %s", ErrNotInstructor, instructor)
	}
	sc, err := l.store.Script(scriptName)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.entries[scriptName]; ok {
		return fmt.Errorf("%w: %s", ErrAlreadyAdded, scriptName)
	}
	e := Entry{
		ScriptName:   scriptName,
		Title:        sc.Description,
		CourseNumber: courseNumber,
		Instructor:   sc.Author,
		Keywords:     sc.Keywords,
		AddedBy:      instructor,
		Added:        l.store.Now(),
	}
	l.entries[scriptName] = e
	for _, tok := range entryTokens(e) {
		set := l.index[tok]
		if set == nil {
			set = make(map[string]bool)
			l.index[tok] = set
		}
		set[scriptName] = true
	}
	return nil
}

// Catalog lists the library contents sorted by script name.
func (l *Library) Catalog() []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]Entry, 0, len(l.entries))
	for _, e := range l.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ScriptName < out[j].ScriptName })
	return out
}

// Query is a browsing request: any combination of keywords, an
// instructor name, and a course number or title fragment.
type Query struct {
	Keywords   []string
	Instructor string
	Course     string // matches course number or title substring
}

// Result is one ranked hit.
type Result struct {
	Entry Entry
	Score int // number of matched query terms
}

// Search returns catalog entries matching every given criterion, ranked
// by the number of matching keywords. Keyword lookup runs on the
// inverted index; instructor and course filters then narrow the
// candidates.
func (l *Library) Search(q Query) []Result {
	l.mu.RLock()
	defer l.mu.RUnlock()

	// Candidate set from the keyword index (nil = all entries when no
	// keywords were given).
	var scores map[string]int
	if len(q.Keywords) > 0 {
		scores = make(map[string]int)
		for _, kw := range q.Keywords {
			for name := range l.index[normalizeToken(kw)] {
				scores[name]++
			}
		}
	} else {
		scores = make(map[string]int, len(l.entries))
		for name := range l.entries {
			scores[name] = 0
		}
	}

	var out []Result
	for name, score := range scores {
		if len(q.Keywords) > 0 && score == 0 {
			continue
		}
		e := l.entries[name]
		if q.Instructor != "" && !strings.EqualFold(e.Instructor, q.Instructor) {
			continue
		}
		if q.Course != "" {
			c := strings.ToLower(q.Course)
			if !strings.Contains(strings.ToLower(e.CourseNumber), c) &&
				!strings.Contains(strings.ToLower(e.Title), c) {
				continue
			}
		}
		out = append(out, Result{Entry: e, Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Entry.ScriptName < out[j].Entry.ScriptName
	})
	return out
}

// ScanSearch is the unindexed baseline used by the search benchmarks:
// it filters the catalog by substring scanning every entry.
func (l *Library) ScanSearch(q Query) []Result {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []Result
	for _, e := range l.entries {
		score := 0
		for _, kw := range q.Keywords {
			want := normalizeToken(kw)
			for _, have := range entryTokens(e) {
				if have == want {
					score++
					break
				}
			}
		}
		if len(q.Keywords) > 0 && score == 0 {
			continue
		}
		if q.Instructor != "" && !strings.EqualFold(e.Instructor, q.Instructor) {
			continue
		}
		if q.Course != "" {
			c := strings.ToLower(q.Course)
			if !strings.Contains(strings.ToLower(e.CourseNumber), c) &&
				!strings.Contains(strings.ToLower(e.Title), c) {
				continue
			}
		}
		out = append(out, Result{Entry: e, Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Entry.ScriptName < out[j].Entry.ScriptName
	})
	return out
}

// CheckOut opens a library checkout of a document for a student. Any
// number of students may hold the same document, and a student may hold
// any number of documents ("there is no limitation of the number of Web
// pages to be checked out").
func (l *Library) CheckOut(scriptName, student string) (string, error) {
	l.mu.RLock()
	_, ok := l.entries[scriptName]
	l.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotInLibrary, scriptName)
	}
	id := l.store.NewID("lco")
	err := l.store.Rel().Insert(schema.TableCheckouts, relstore.Row{
		"co_id":       id,
		"object_kind": kindLibrary,
		"object_id":   scriptName,
		"user":        student,
		"out_time":    l.store.Now(),
	})
	if err != nil {
		return "", err
	}
	return id, nil
}

// CheckIn closes a library checkout. The validity check and the close
// run in one relstore transaction on the ledger table, so a checkout
// can be closed exactly once even when students race.
func (l *Library) CheckIn(checkoutID string) error {
	tx, err := l.store.Rel().Begin(schema.TableCheckouts)
	if err != nil {
		return err
	}
	row, err := tx.Get(schema.TableCheckouts, checkoutID)
	if err != nil {
		tx.Rollback()
		return err
	}
	if kind, _ := row["object_kind"].(string); kind != kindLibrary {
		tx.Rollback()
		return fmt.Errorf("%w: %s", ErrNotOut, checkoutID)
	}
	if _, closed := row["in_time"].(time.Time); closed {
		tx.Rollback()
		return fmt.Errorf("%w: %s", ErrNotOut, checkoutID)
	}
	if err := tx.Update(schema.TableCheckouts, checkoutID, relstore.Row{"in_time": l.store.Now()}); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// Assessment summarizes one student's library activity as the paper's
// study-performance criterion.
type Assessment struct {
	Student       string
	Checkouts     int
	DistinctDocs  int
	Open          int
	TotalDuration time.Duration
	Score         float64
}

// Assess computes a student's assessment from the ledger. The score
// rewards breadth (distinct documents) over raw volume, plus study time
// in hours.
func (l *Library) Assess(student string) (Assessment, error) {
	rows, err := l.store.Rel().Lookup(schema.TableCheckouts, "user", student)
	if err != nil {
		return Assessment{}, err
	}
	a := Assessment{Student: student}
	docs := make(map[string]bool)
	for _, r := range rows {
		if kind, _ := r["object_kind"].(string); kind != kindLibrary {
			continue
		}
		a.Checkouts++
		if doc, ok := r["object_id"].(string); ok {
			docs[doc] = true
		}
		out, _ := r["out_time"].(time.Time)
		if in, closed := r["in_time"].(time.Time); closed {
			a.TotalDuration += in.Sub(out)
		} else {
			a.Open++
		}
	}
	a.DistinctDocs = len(docs)
	a.Score = float64(a.DistinctDocs)*10 + float64(a.Checkouts) + a.TotalDuration.Hours()
	return a, nil
}

// entryTokens derives the index tokens of an entry from its keywords,
// title words, course number, instructor and script name.
func entryTokens(e Entry) []string {
	var toks []string
	add := func(s string) {
		if t := normalizeToken(s); t != "" {
			toks = append(toks, t)
		}
	}
	for _, k := range e.Keywords {
		add(k)
	}
	for _, w := range strings.FieldsFunc(e.Title, isSeparator) {
		add(w)
	}
	add(e.CourseNumber)
	add(e.Instructor)
	add(e.ScriptName)
	return toks
}

func normalizeToken(s string) string {
	return strings.ToLower(strings.TrimSpace(s))
}

func isSeparator(r rune) bool {
	return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9')
}
