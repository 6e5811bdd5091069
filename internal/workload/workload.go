// Package workload generates deterministic synthetic courses, student
// populations and access patterns for the experiments. It plays the
// role of the three Web courses the paper's group was authoring
// (introduction to computer engineering, multimedia computing, and
// engineering drawing): structured HTML page graphs with per-page
// multimedia, plus Zipf-distributed student access traces.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/blob"
	"repro/internal/docdb"
	"repro/internal/htmlmini"
	"repro/internal/media"
)

// CourseSpec parameterizes one generated course.
type CourseSpec struct {
	DBName     string
	ScriptName string
	URL        string // starting URL of the implementation
	Author     string
	Keywords   []string
	Pages      int
	// ExtraLinks adds this many random cross-links besides the
	// next-page chain, creating a realistic traversal graph.
	ExtraLinks int
	// ImagesPerPage attaches this many still images to each page.
	ImagesPerPage int
	// VideoEvery attaches one video clip to every n-th page (0 = none).
	VideoEvery int
	// AudioEvery attaches one audio narration to every n-th page (0 =
	// none).
	AudioEvery int
	// MediaScaleDown shrinks generated media sizes for fast tests while
	// keeping the distribution shape (0 = full size).
	MediaScaleDown int64
	Seed           int64
}

// Course reports what was generated.
type Course struct {
	Spec       CourseSpec
	PageCount  int
	MediaCount int
	MediaBytes int64
}

// DefaultSpec returns a small deterministic course shaped like a
// 40-page lecture.
func DefaultSpec(n int) CourseSpec {
	return CourseSpec{
		DBName:         "mmu",
		ScriptName:     fmt.Sprintf("course-%03d", n),
		URL:            fmt.Sprintf("http://mmu/course-%03d/v1", n),
		Author:         "instructor",
		Keywords:       []string{"virtual", "university", fmt.Sprintf("topic%d", n%7)},
		Pages:          40,
		ExtraLinks:     20,
		ImagesPerPage:  2,
		VideoEvery:     8,
		AudioEvery:     4,
		MediaScaleDown: 4096,
		Seed:           int64(1000 + n),
	}
}

// PagePath returns the path of the i-th page; page 0 is index.html.
func PagePath(i int) string {
	if i == 0 {
		return "index.html"
	}
	return fmt.Sprintf("page-%04d.html", i)
}

// BuildCourse materializes the course into a document store: database
// and script rows when missing, the implementation, a linked page
// graph, and the per-page multimedia attached through the BLOB layer.
func BuildCourse(store *docdb.Store, spec CourseSpec) (Course, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	gen := media.NewGenerator(spec.Seed + 1)
	gen.ScaleDown = spec.MediaScaleDown

	if _, err := store.Database(spec.DBName); err != nil {
		if err := store.CreateDatabase(docdb.Database{Name: spec.DBName, Author: spec.Author}); err != nil {
			return Course{}, err
		}
	}
	if err := store.CreateScript(docdb.Script{
		Name:        spec.ScriptName,
		DBName:      spec.DBName,
		Keywords:    spec.Keywords,
		Author:      spec.Author,
		Description: "synthetic course " + spec.ScriptName,
		PctComplete: 100,
	}); err != nil {
		return Course{}, err
	}
	if err := store.AddImplementation(docdb.Implementation{
		StartingURL: spec.URL,
		ScriptName:  spec.ScriptName,
		Author:      spec.Author,
	}); err != nil {
		return Course{}, err
	}

	course := Course{Spec: spec, PageCount: spec.Pages}
	// Attach media page by page, collecting asset names per page.
	assets := make([][]string, spec.Pages)
	attach := func(page int, kind blob.Kind) error {
		r := gen.Generate(kind)
		if _, err := store.AttachImplMedia(spec.URL, r.Name, r.Kind, r.Data); err != nil {
			return err
		}
		assets[page] = append(assets[page], r.Name)
		course.MediaCount++
		course.MediaBytes += int64(len(r.Data))
		return nil
	}
	for p := 0; p < spec.Pages; p++ {
		for i := 0; i < spec.ImagesPerPage; i++ {
			if err := attach(p, blob.KindImage); err != nil {
				return Course{}, err
			}
		}
		if spec.VideoEvery > 0 && p%spec.VideoEvery == 0 {
			if err := attach(p, blob.KindVideo); err != nil {
				return Course{}, err
			}
		}
		if spec.AudioEvery > 0 && p%spec.AudioEvery == 0 {
			if err := attach(p, blob.KindAudio); err != nil {
				return Course{}, err
			}
		}
	}
	// Build the page graph: a next-page chain plus random cross links.
	links := make([][]string, spec.Pages)
	for p := 0; p+1 < spec.Pages; p++ {
		links[p] = append(links[p], PagePath(p+1))
	}
	for i := 0; i < spec.ExtraLinks && spec.Pages > 1; i++ {
		from := rng.Intn(spec.Pages)
		to := rng.Intn(spec.Pages)
		if to == from {
			to = (to + 1) % spec.Pages
		}
		links[from] = append(links[from], PagePath(to))
	}
	for p := 0; p < spec.Pages; p++ {
		title := fmt.Sprintf("%s — page %d", spec.ScriptName, p)
		body := fmt.Sprintf("Lecture material for %s, page %d of %d.", spec.ScriptName, p, spec.Pages)
		page := htmlmini.Page(title, links[p], assets[p], body)
		if err := store.PutHTML(spec.URL, PagePath(p), page); err != nil {
			return Course{}, err
		}
	}
	return course, nil
}

// Vocabulary returns a deterministic keyword vocabulary of the given
// size.
func Vocabulary(size int) []string {
	out := make([]string, size)
	for i := range out {
		out[i] = fmt.Sprintf("kw%04d", i)
	}
	return out
}

// PickKeywords draws k distinct Zipf-weighted keywords from a
// vocabulary, modeling the skewed keyword usage of real course
// catalogs.
func PickKeywords(rng *rand.Rand, vocab []string, k int) []string {
	if k > len(vocab) {
		k = len(vocab)
	}
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(vocab)-1))
	seen := make(map[int]bool, k)
	out := make([]string, 0, k)
	for len(out) < k {
		idx := int(zipf.Uint64())
		if seen[idx] {
			idx = rng.Intn(len(vocab)) // fall back to uniform to finish
			if seen[idx] {
				continue
			}
		}
		seen[idx] = true
		out = append(out, vocab[idx])
	}
	return out
}
