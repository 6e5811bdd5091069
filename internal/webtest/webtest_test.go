package webtest

import (
	"strings"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/docdb"
	"repro/internal/htmlmini"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/workload"
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

// buildFixture creates a small course with deliberate defects:
//   - index -> a -> b, and index references img ok.gif (stored)
//   - a links to ghost.html (bad URL)
//   - b references missing.gif (missing object)
//   - orphan.html is stored but unreachable (redundant)
//   - unused.gif is stored media never referenced (redundant)
//   - b has no title (inconsistency)
func buildFixture(t *testing.T, s *docdb.Store) string {
	t.Helper()
	const url = "http://mmu/fixture/v1"
	if err := s.CreateDatabase(docdb.Database{Name: "mmu"}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateScript(docdb.Script{Name: "fixture", DBName: "mmu"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddImplementation(docdb.Implementation{StartingURL: url, ScriptName: "fixture"}); err != nil {
		t.Fatal(err)
	}
	put := func(path string, content []byte) {
		if err := s.PutHTML(url, path, content); err != nil {
			t.Fatal(err)
		}
	}
	put("index.html", htmlmini.Page("Index", []string{"a.html"}, []string{"ok.gif"}, "start"))
	put("a.html", htmlmini.Page("A", []string{"b.html", "ghost.html"}, nil, "a"))
	put("b.html", []byte(`<html><body><img src="missing.gif"><a href="index.html">home</a></body></html>`))
	put("orphan.html", htmlmini.Page("Orphan", nil, nil, "unreachable"))
	if _, err := s.AttachImplMedia(url, "ok.gif", blob.KindImage, []byte("GIF89a-ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AttachImplMedia(url, "unused.gif", blob.KindImage, []byte("GIF89a-unused")); err != nil {
		t.Fatal(err)
	}
	return url
}

func TestWhiteBoxFindsAllDefectClasses(t *testing.T) {
	s := newStore(t)
	url := buildFixture(t, s)
	suite := &Suite{Store: s}
	f, err := suite.WhiteBox(url)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.VisitedPages) != 3 {
		t.Errorf("visited = %v", f.VisitedPages)
	}
	if len(f.BadURLs) != 1 || f.BadURLs[0] != "ghost.html" {
		t.Errorf("bad urls = %v", f.BadURLs)
	}
	if len(f.MissingObjects) != 1 || f.MissingObjects[0] != "missing.gif" {
		t.Errorf("missing = %v", f.MissingObjects)
	}
	wantRedundant := map[string]bool{"orphan.html": true, "unused.gif": true}
	if len(f.RedundantObjects) != 2 || !wantRedundant[f.RedundantObjects[0]] || !wantRedundant[f.RedundantObjects[1]] {
		t.Errorf("redundant = %v", f.RedundantObjects)
	}
	foundTitle := false
	for _, inc := range f.Inconsistencies {
		if strings.Contains(inc, "b.html has no title") {
			foundTitle = true
		}
	}
	if !foundTitle {
		t.Errorf("inconsistencies = %v", f.Inconsistencies)
	}
	if f.Clean() {
		t.Error("defective course reported clean")
	}
}

func TestWhiteBoxCleanCourse(t *testing.T) {
	s := newStore(t)
	spec := workload.DefaultSpec(1)
	spec.Pages = 10
	spec.ExtraLinks = 5
	spec.MediaScaleDown = 65536
	// The chain structure guarantees reachability; generated assets are
	// all attached, so no defects are expected.
	c, err := workload.BuildCourse(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	suite := &Suite{Store: s}
	f, err := suite.WhiteBox(c.Spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Clean() {
		t.Errorf("generated course reported defects: bad=%v missing=%v redundant=%v inc=%v",
			f.BadURLs, f.MissingObjects, f.RedundantObjects, f.Inconsistencies)
	}
	cov, err := suite.Coverage(c.Spec.URL, f)
	if err != nil {
		t.Fatal(err)
	}
	if cov != 1.0 {
		t.Errorf("white-box coverage = %v, want 1.0", cov)
	}
}

func TestWhiteBoxMissingEntry(t *testing.T) {
	s := newStore(t)
	url := buildFixture(t, s)
	suite := &Suite{Store: s, Entry: "nonexistent.html"}
	f, err := suite.WhiteBox(url)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Inconsistencies) != 1 || !strings.Contains(f.Inconsistencies[0], "absent") {
		t.Errorf("inconsistencies = %v", f.Inconsistencies)
	}
}

func TestBlackBoxWalk(t *testing.T) {
	s := newStore(t)
	url := buildFixture(t, s)
	suite := &Suite{Store: s}
	f, err := suite.BlackBox(url, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.VisitedPages) == 0 {
		t.Fatal("no pages visited")
	}
	if len(f.Messages) == 0 {
		t.Fatal("no traversal messages recorded")
	}
	// With 200 steps the walk almost surely trips over ghost.html.
	if len(f.BadURLs) != 1 || f.BadURLs[0] != "ghost.html" {
		t.Errorf("bad urls = %v", f.BadURLs)
	}
}

func TestBlackBoxDeterministicBySeed(t *testing.T) {
	s := newStore(t)
	url := buildFixture(t, s)
	suite := &Suite{Store: s}
	f1, err := suite.BlackBox(url, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := suite.BlackBox(url, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(f1.Messages, "|") != strings.Join(f2.Messages, "|") {
		t.Error("same seed produced different walks")
	}
}

func TestBlackBoxCoverageBelowWhiteBox(t *testing.T) {
	s := newStore(t)
	spec := workload.DefaultSpec(3)
	spec.Pages = 30
	spec.ExtraLinks = 10
	spec.MediaScaleDown = 65536
	c, err := workload.BuildCourse(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	suite := &Suite{Store: s}
	white, err := suite.WhiteBox(c.Spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	black, err := suite.BlackBox(c.Spec.URL, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	wcov, _ := suite.Coverage(c.Spec.URL, white)
	bcov, _ := suite.Coverage(c.Spec.URL, black)
	if wcov != 1.0 {
		t.Errorf("white coverage = %v", wcov)
	}
	if bcov >= wcov {
		t.Errorf("10-step black-box coverage %v should be below white-box %v", bcov, wcov)
	}
}

func TestComplexityMetrics(t *testing.T) {
	s := newStore(t)
	url := buildFixture(t, s)
	suite := &Suite{Store: s}
	c, err := suite.Complexity(url)
	if err != nil {
		t.Fatal(err)
	}
	if c.Pages != 4 {
		t.Errorf("pages = %d", c.Pages)
	}
	// Internal links among stored pages: index->a, a->b, b->index.
	if c.Links != 3 {
		t.Errorf("links = %d", c.Links)
	}
	// ok.gif on index + missing.gif on b.
	if c.AssetRefs != 2 {
		t.Errorf("assets = %d", c.AssetRefs)
	}
	if c.MaxDepth != 2 {
		t.Errorf("depth = %d", c.MaxDepth)
	}
	// Two components: the index/a/b cycle and the orphan page.
	if c.Components != 2 {
		t.Errorf("components = %d", c.Components)
	}
	// Cyclomatic: E - N + 2P = 3 - 4 + 4 = 3.
	if c.Cyclomatic != 3 {
		t.Errorf("cyclomatic = %d", c.Cyclomatic)
	}
	if c.MediaBytes != int64(len("GIF89a-ok")+len("GIF89a-unused")) {
		t.Errorf("media bytes = %d", c.MediaBytes)
	}
}

func TestReportPersistsRecordAndBug(t *testing.T) {
	s := newStore(t)
	url := buildFixture(t, s)
	suite := &Suite{Store: s}
	testName, bugName, err := suite.Report(url, "Huang", 1)
	if err != nil {
		t.Fatal(err)
	}
	if testName == "" || bugName == "" {
		t.Fatalf("names = %q %q", testName, bugName)
	}
	list := func(r relstore.Row, col string) []string { v, _ := r[col].(string); return schema.SplitList(v) }
	recs, err := s.Rel().Lookup(schema.TableTestRecords, "script_name", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0]["scope"] != "global" || len(list(recs[0], "messages")) == 0 {
		t.Errorf("records = %+v", recs)
	}
	bugs, err := s.Rel().Lookup(schema.TableBugReports, "test_name", testName)
	if err != nil {
		t.Fatal(err)
	}
	if len(bugs) != 1 {
		t.Fatalf("bugs = %+v", bugs)
	}
	if len(list(bugs[0], "bad_urls")) != 1 || len(list(bugs[0], "missing_objects")) != 1 || len(list(bugs[0], "redundant_objects")) != 2 {
		t.Errorf("bug = %+v", bugs[0])
	}
}

func TestReportCleanCourseFilesNoBug(t *testing.T) {
	s := newStore(t)
	spec := workload.DefaultSpec(5)
	spec.Pages = 6
	spec.ExtraLinks = 2
	spec.MediaScaleDown = 65536
	c, err := workload.BuildCourse(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	suite := &Suite{Store: s}
	testName, bugName, err := suite.Report(c.Spec.URL, "Huang", 1)
	if err != nil {
		t.Fatal(err)
	}
	if testName == "" {
		t.Error("no test record")
	}
	if bugName != "" {
		t.Errorf("clean course produced bug %s", bugName)
	}
}

func TestLocalScopeSinglePage(t *testing.T) {
	s := newStore(t)
	url := buildFixture(t, s)
	suite := &Suite{Store: s}

	// index.html is clean locally: its link resolves, its asset exists.
	f, err := suite.Local(url, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Clean() {
		t.Errorf("index.html local findings: %+v", f)
	}
	if len(f.VisitedPages) != 1 || f.VisitedPages[0] != "index.html" {
		t.Errorf("visited = %v", f.VisitedPages)
	}

	// a.html has the dead link.
	f, err = suite.Local(url, "a.html")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.BadURLs) != 1 || f.BadURLs[0] != "ghost.html" {
		t.Errorf("bad urls = %v", f.BadURLs)
	}

	// b.html has the missing asset and no title; the orphan page is NOT
	// reported at local scope (that is a global property).
	f, err = suite.Local(url, "b.html")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.MissingObjects) != 1 || f.MissingObjects[0] != "missing.gif" {
		t.Errorf("missing = %v", f.MissingObjects)
	}
	if len(f.RedundantObjects) != 0 {
		t.Errorf("local scope reported redundant objects: %v", f.RedundantObjects)
	}
	if len(f.Inconsistencies) != 1 {
		t.Errorf("inconsistencies = %v", f.Inconsistencies)
	}

	// An absent page is an inconsistency, not an error.
	f, err = suite.Local(url, "nope.html")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Inconsistencies) != 1 {
		t.Errorf("absent page findings = %+v", f)
	}
}
