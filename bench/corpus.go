package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/docdb"
	"repro/internal/workload"
)

// Frozen corpus, shared by every workload: 12 courses of 10 pages, 4
// extra links and one still image per page, media shrunk 4x from the
// generator's late-90s profile (≈0.4–0.5 MiB per course — multimedia-
// sized, unlike the 4096x shrink the load profiles use). The corpus is
// drawn from corpusSeed, not from -seed: media sizes are log-normal, and
// letting them move with the seed moves every size-dependent metric by
// a tenth from one seed to the next. -seed drives the op plans.
const (
	corpusSeed     = 1999
	corpusCourses  = 12
	coursePages    = 10
	courseLinks    = 4
	courseImages   = 1
	mediaScaleDown = 4
)

// courseSpec is the i-th course of the corpus; version distinguishes
// re-authored editions of the same script.
func courseSpec(i, version int) workload.CourseSpec {
	return workload.CourseSpec{
		DBName:         "mmu",
		ScriptName:     fmt.Sprintf("course-%03d", i),
		URL:            fmt.Sprintf("http://mmu/course-%03d/v%d", i, version),
		Author:         fmt.Sprintf("instructor-%d", i%8),
		Keywords:       []string{"virtual", "university", fmt.Sprintf("topic%d", i%7)},
		Pages:          coursePages,
		ExtraLinks:     courseLinks,
		ImagesPerPage:  courseImages,
		MediaScaleDown: mediaScaleDown,
		Seed:           corpusSeed + int64(i) + 1000*int64(version-1),
	}
}

// corpus is the authored course set: the specs and, per course, the
// exported bundle (the exact bytes a push or an import moves).
type corpus struct {
	specs   []workload.CourseSpec
	bundles []*docdb.Bundle
}

// pinClock fixes a store's timestamps to the experiment clock, so the
// rows — and therefore WAL and snapshot byte counts — are identical
// across runs of the same seed.
func pinClock(store *docdb.Store) {
	store.Now = func() time.Time { return workload.BaseTime }
}

// buildCorpus authors the first n courses on the store (persistent
// instances, as the instructor station records them) and exports each
// bundle.
func buildCorpus(store *docdb.Store, n int) (*corpus, error) {
	c := &corpus{}
	for i := 0; i < n; i++ {
		spec := courseSpec(i, 1)
		if _, _, err := workload.AuthorCourse(store, spec); err != nil {
			return nil, fmt.Errorf("authoring %s: %w", spec.ScriptName, err)
		}
		b, err := store.ExportBundle(spec.URL)
		if err != nil {
			return nil, fmt.Errorf("exporting %s: %w", spec.URL, err)
		}
		c.specs = append(c.specs, spec)
		c.bundles = append(c.bundles, b)
	}
	return c, nil
}

// freshEdition builds a new edition (a new implementation URL with
// fresh media under an existing script) on a scratch store and returns
// its bundle — the payload of author-edit's Import ops.
func freshEdition(course, version int) (*docdb.Bundle, error) {
	scratch, err := workload.NewStore()
	if err != nil {
		return nil, err
	}
	spec := courseSpec(course, version)
	if _, err := workload.BuildCourse(scratch, spec); err != nil {
		return nil, err
	}
	return scratch.ExportBundle(spec.URL)
}

// query is one full-text request of the storm's search mix.
type query struct {
	Terms  []string
	Phrase bool
}

// drawQuery picks a query from the corpus vocabulary: course numbers,
// page numbers, catalog keywords and the body text every page shares;
// one in five is a two-term phrase over consecutive tokens.
func drawQuery(rng *rand.Rand, courses int) query {
	course := fmt.Sprintf("%03d", rng.Intn(courses))
	page := fmt.Sprint(rng.Intn(coursePages))
	if rng.Intn(5) == 0 {
		switch rng.Intn(3) {
		case 0:
			return query{Terms: []string{"course", course}, Phrase: true}
		case 1:
			return query{Terms: []string{"page", page}, Phrase: true}
		default:
			return query{Terms: []string{"lecture", "material"}, Phrase: true}
		}
	}
	switch rng.Intn(5) {
	case 0:
		return query{Terms: []string{course}}
	case 1:
		return query{Terms: []string{fmt.Sprintf("topic%d", rng.Intn(7))}}
	case 2:
		return query{Terms: []string{course, page}}
	case 3:
		return query{Terms: []string{"synthetic", course}}
	default:
		return query{Terms: []string{"lecture"}}
	}
}
