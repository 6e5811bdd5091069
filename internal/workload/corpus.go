package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blob"
	"repro/internal/docdb"
	"repro/internal/library"
	"repro/internal/relstore"
)

// Shared corpus builders: every bench entry point (mmubench's
// experiment tables, the webdocload harness, the unit benchmarks)
// builds its synthetic stores through these, so "10k-script catalog"
// or "20-script QA corpus" means the same bytes everywhere and cross-
// tool numbers stay comparable.

// BaseTime is the canonical experiment clock: generated rows carry it
// instead of wall time, so corpora are bit-identical across runs.
var BaseTime = time.Date(1999, 4, 21, 0, 0, 0, 0, time.UTC)

// NewStore opens a fresh in-memory document store pinned to BaseTime,
// the starting point of every synthetic corpus.
func NewStore() (*docdb.Store, error) {
	store, err := docdb.Open(relstore.NewDB(), blob.NewStore())
	if err != nil {
		return nil, err
	}
	store.Now = func() time.Time { return BaseTime }
	return store, nil
}

// AuthorCourse builds a course and records it the way the instructor
// station does: the content via BuildCourse, a persistent instance
// object, and the reusable class declaration.
func AuthorCourse(store *docdb.Store, spec CourseSpec) (Course, docdb.DocObject, error) {
	course, err := BuildCourse(store, spec)
	if err != nil {
		return Course{}, docdb.DocObject{}, err
	}
	inst, err := store.NewInstance(spec.URL, 1, true)
	if err != nil {
		return Course{}, docdb.DocObject{}, err
	}
	if _, err := store.DeclareClass(inst.ID); err != nil {
		return Course{}, docdb.DocObject{}, err
	}
	return course, inst, nil
}

// CatalogSpec parameterizes a virtual-library catalog: Size scripts
// with Zipf-weighted keywords drawn from a VocabSize-word vocabulary,
// authored by a rotating AuthorPool and shelved under the librarian's
// name.
type CatalogSpec struct {
	DBName      string
	Size        int
	VocabSize   int
	KeywordsPer int
	AuthorPool  int
	Librarian   string
	Seed        int64
}

// DefaultCatalogSpec is the catalog shape the experiments report.
func DefaultCatalogSpec(size int) CatalogSpec {
	return CatalogSpec{
		DBName:      "mmu",
		Size:        size,
		VocabSize:   5000,
		KeywordsPer: 4,
		AuthorPool:  50,
		Librarian:   "Shih",
		Seed:        5,
	}
}

// BuildCatalog fills a store (and, when lib is non-nil, its virtual
// library) with the catalog. The returned rand source has consumed
// exactly the catalog's draws, so callers can keep drawing queries
// from the same deterministic stream.
func BuildCatalog(store *docdb.Store, lib *library.Library, spec CatalogSpec) (*rand.Rand, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	vocab := Vocabulary(spec.VocabSize)
	if _, err := store.Database(spec.DBName); err != nil {
		if err := store.CreateDatabase(docdb.Database{Name: spec.DBName}); err != nil {
			return nil, err
		}
	}
	if lib != nil {
		lib.RegisterInstructor(spec.Librarian)
	}
	for d := 0; d < spec.Size; d++ {
		script := fmt.Sprintf("course-%05d", d)
		err := store.CreateScript(docdb.Script{
			Name:     script,
			DBName:   spec.DBName,
			Author:   fmt.Sprintf("instructor-%d", d%spec.AuthorPool),
			Keywords: PickKeywords(rng, vocab, spec.KeywordsPer),
		})
		if err != nil {
			return nil, err
		}
		if lib != nil {
			if err := lib.Add(script, fmt.Sprintf("C-%05d", d), spec.Librarian); err != nil {
				return nil, err
			}
		}
	}
	return rng, nil
}

// CatalogQueries draws n keyword queries from the catalog's
// vocabulary, continuing the given deterministic stream.
func CatalogQueries(rng *rand.Rand, spec CatalogSpec, n, keywordsPer int) []library.Query {
	vocab := Vocabulary(spec.VocabSize)
	qs := make([]library.Query, n)
	for i := range qs {
		qs[i] = library.Query{Keywords: PickKeywords(rng, vocab, keywordsPer)}
	}
	return qs
}

// QACorpusSpec parameterizes a quality-assurance corpus: scripts with
// several implementations each, every implementation carrying pages,
// one program, one media resource, a test record, a bug report and an
// annotation — the full referential web the integrity subsystem
// propagates alerts through.
type QACorpusSpec struct {
	DBName   string
	Scripts  int
	ImplsPer int
	PagesPer int
}

// DefaultQACorpusSpec is the QA corpus shape the experiments report.
func DefaultQACorpusSpec(scripts, implsPer int) QACorpusSpec {
	return QACorpusSpec{DBName: "mmu", Scripts: scripts, ImplsPer: implsPer, PagesPer: 4}
}

// BuildQACorpus fills a store with the QA corpus. Identifiers are
// deterministic (script-%03d and friends), so alert fan-outs and row
// counts are reproducible across entry points.
func BuildQACorpus(store *docdb.Store, spec QACorpusSpec) error {
	if _, err := store.Database(spec.DBName); err != nil {
		if err := store.CreateDatabase(docdb.Database{Name: spec.DBName}); err != nil {
			return err
		}
	}
	for s := 0; s < spec.Scripts; s++ {
		script := fmt.Sprintf("script-%03d", s)
		if err := store.CreateScript(docdb.Script{Name: script, DBName: spec.DBName}); err != nil {
			return err
		}
		for i := 0; i < spec.ImplsPer; i++ {
			url := fmt.Sprintf("http://mmu/%s/v%d", script, i)
			if err := store.AddImplementation(docdb.Implementation{StartingURL: url, ScriptName: script}); err != nil {
				return err
			}
			for p := 0; p < spec.PagesPer; p++ {
				if err := store.PutHTML(url, PagePath(p), []byte("<html><title>p</title></html>")); err != nil {
					return err
				}
			}
			if err := store.PutProgram(url, "quiz.java", "java", []byte("x")); err != nil {
				return err
			}
			if _, err := store.AttachImplMedia(url, fmt.Sprintf("m-%s-%d.gif", script, i), blob.KindImage, []byte(url)); err != nil {
				return err
			}
			test := fmt.Sprintf("test-%s-%d", script, i)
			if err := store.RecordTest(docdb.TestRecord{Name: test, ScriptName: script, StartingURL: url, Scope: "local"}); err != nil {
				return err
			}
			if err := store.FileBugReport(docdb.BugReport{Name: "bug-" + test, TestName: test}); err != nil {
				return err
			}
			if err := store.SaveAnnotation(docdb.Annotation{Name: "ann-" + test, ScriptName: script, StartingURL: url}); err != nil {
				return err
			}
		}
	}
	return nil
}
