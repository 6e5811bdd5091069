package workload

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/docdb"
	"repro/internal/relstore"
	"repro/internal/schema"
)

func newStore(t *testing.T) *docdb.Store {
	t.Helper()
	s, err := docdb.Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	s.Now = func() time.Time { return time.Date(1999, 4, 21, 0, 0, 0, 0, time.UTC) }
	return s
}

func smallSpec(n int) CourseSpec {
	spec := DefaultSpec(n)
	spec.Pages = 8
	spec.ExtraLinks = 4
	spec.ImagesPerPage = 1
	spec.VideoEvery = 4
	spec.AudioEvery = 0
	spec.MediaScaleDown = 65536
	return spec
}

func TestBuildCourseShape(t *testing.T) {
	s := newStore(t)
	c, err := BuildCourse(s, smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.PageCount != 8 {
		t.Errorf("pages = %d", c.PageCount)
	}
	// 8 images + 2 videos (pages 0 and 4).
	if c.MediaCount != 10 {
		t.Errorf("media = %d", c.MediaCount)
	}
	files, err := s.HTMLFiles(c.Spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 8 {
		t.Errorf("html files = %d", len(files))
	}
	media, err := s.ImplMedia(c.Spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(media) != 10 {
		t.Errorf("media rows = %d", len(media))
	}
	if _, err := s.HTML(c.Spec.URL, "index.html"); err != nil {
		t.Errorf("index.html missing: %v", err)
	}
}

func TestBuildCourseDeterministic(t *testing.T) {
	s1 := newStore(t)
	s2 := newStore(t)
	spec := smallSpec(2)
	c1, err := BuildCourse(s1, spec)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := BuildCourse(s2, spec)
	if err != nil {
		t.Fatal(err)
	}
	if c1.MediaBytes != c2.MediaBytes || c1.MediaCount != c2.MediaCount {
		t.Errorf("non-deterministic generation: %+v vs %+v", c1, c2)
	}
	h1, _ := s1.HTML(spec.URL, "page-0003.html")
	h2, _ := s2.HTML(spec.URL, "page-0003.html")
	if string(h1) != string(h2) {
		t.Error("page content differs across runs")
	}
}

func TestBuildCourseSharedDatabase(t *testing.T) {
	s := newStore(t)
	if _, err := BuildCourse(s, smallSpec(1)); err != nil {
		t.Fatal(err)
	}
	// A second course in the same database must not recreate it.
	if _, err := BuildCourse(s, smallSpec(2)); err != nil {
		t.Fatal(err)
	}
	scripts, err := s.Rel().Lookup(schema.TableScripts, "db_name", "mmu")
	if err != nil {
		t.Fatal(err)
	}
	if len(scripts) != 2 {
		t.Errorf("scripts = %d", len(scripts))
	}
}

func TestPagePath(t *testing.T) {
	if PagePath(0) != "index.html" {
		t.Errorf("page 0 = %s", PagePath(0))
	}
	if PagePath(12) != "page-0012.html" {
		t.Errorf("page 12 = %s", PagePath(12))
	}
}

func TestAccessPatternZipfSkew(t *testing.T) {
	accesses := AccessPattern(50, 20, 40, 10000, 7)
	if len(accesses) != 10000 {
		t.Fatalf("len = %d", len(accesses))
	}
	counts := make([]int, 20)
	for _, a := range accesses {
		if a.Doc < 0 || a.Doc >= 20 || a.Student < 0 || a.Student >= 50 || a.Page < 0 || a.Page >= 40 {
			t.Fatalf("out of range access %+v", a)
		}
		counts[a.Doc]++
	}
	// Zipf: the most popular course dominates the tail.
	if counts[0] <= counts[10]*2 {
		t.Errorf("no skew: counts[0]=%d counts[10]=%d", counts[0], counts[10])
	}
}

func TestAccessPatternDeterministic(t *testing.T) {
	a := AccessPattern(10, 5, 10, 100, 3)
	b := AccessPattern(10, 5, 10, 100, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("access %d differs", i)
		}
	}
}

func TestVocabularyAndPickKeywords(t *testing.T) {
	vocab := Vocabulary(100)
	if len(vocab) != 100 || vocab[5] != "kw0005" {
		t.Fatalf("vocab = %v...", vocab[:6])
	}
	rng := rand.New(rand.NewSource(1))
	kws := PickKeywords(rng, vocab, 5)
	if len(kws) != 5 {
		t.Fatalf("kws = %v", kws)
	}
	seen := map[string]bool{}
	for _, k := range kws {
		if seen[k] {
			t.Fatalf("duplicate keyword %s", k)
		}
		seen[k] = true
	}
	// Asking for more than the vocabulary clips.
	kws = PickKeywords(rng, Vocabulary(3), 10)
	if len(kws) != 3 {
		t.Errorf("clipped kws = %v", kws)
	}
}

// Access is one student page-view event.
type Access struct {
	Student int
	Doc     int // course index
	Page    int
}

// AccessPattern draws a Zipf-distributed trace: course popularity is
// Zipfian (a few hot lectures), students uniform, pages uniform.
func AccessPattern(students, docs, pages, steps int, seed int64) []Access {
	rng := rand.New(rand.NewSource(seed))
	if docs < 1 {
		docs = 1
	}
	if pages < 1 {
		pages = 1
	}
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(docs-1))
	out := make([]Access, steps)
	for i := range out {
		out[i] = Access{
			Student: rng.Intn(max(students, 1)),
			Doc:     int(zipf.Uint64()),
			Page:    rng.Intn(pages),
		}
	}
	return out
}
