package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The expectation harness: fixture packages under testdata/src carry
// trailing comments of the form
//
//	// want `regexp` `another regexp`
//
// and the test requires the analyzer diagnostics on that line to
// match those regexps one-to-one — no missing findings, no extras
// anywhere in the fixture.

var wantRx = regexp.MustCompile("`([^`]+)`")

type wantKey struct {
	file string
	line int
}

// loadFixtureLoader builds one loader rooted at the repo for all
// fixture tests (type-checked stdlib and module packages are cached
// across cases, so the harness pays the source-importer cost once).
var fixtureLoader *Loader

func loaderFor(t *testing.T) *Loader {
	t.Helper()
	if fixtureLoader == nil {
		l, err := NewLoader(".")
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		fixtureLoader = l
	}
	return fixtureLoader
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := loaderFor(t).LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// collectWants scans the fixture sources for want comments.
func collectWants(t *testing.T, pkg *Package) map[wantKey][]string {
	t.Helper()
	wants := make(map[wantKey][]string)
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRx.FindAllStringSubmatch(c.Text[idx:], -1) {
					key := wantKey{file: pos.Filename, line: pos.Line}
					wants[key] = append(wants[key], m[1])
				}
			}
		}
	}
	return wants
}

func checkFixture(t *testing.T, fixture string, analyzers []*Analyzer) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	diags := Run([]*Package{pkg}, analyzers)
	wants := collectWants(t, pkg)

	for _, d := range diags {
		key := wantKey{file: d.File, line: d.Line}
		rxs := wants[key]
		matched := -1
		for i, rx := range rxs {
			ok, err := regexp.MatchString(rx, d.Message)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", d.File, d.Line, rx, err)
			}
			if ok {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic %s", d)
			continue
		}
		wants[key] = append(rxs[:matched], rxs[matched+1:]...)
		if len(wants[key]) == 0 {
			delete(wants, key)
		}
	}
	for key, rxs := range wants {
		for _, rx := range rxs {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, rx)
		}
	}
}

func TestAtomicWriteFixture(t *testing.T)  { checkFixture(t, "atomicwrite", []*Analyzer{AtomicWrite}) }
func TestAtomicioExemption(t *testing.T)   { checkFixture(t, "atomicio", []*Analyzer{AtomicWrite}) }
func TestSentinelErrFixture(t *testing.T)  { checkFixture(t, "sentinelerr", []*Analyzer{SentinelErr}) }
func TestTraceCallFixture(t *testing.T)    { checkFixture(t, "tracecall", []*Analyzer{TraceCall}) }
func TestSuppressionsFixture(t *testing.T) { checkFixture(t, "suppress", []*Analyzer{AtomicWrite}) }
func TestUnreachedFixture(t *testing.T)    { checkFixture(t, "unreached", []*Analyzer{Unreached}) }

// TestMalformedSuppressions pins the suppression system's own
// diagnostics: missing analyzer, missing reason, unknown analyzer.
func TestMalformedSuppressions(t *testing.T) {
	pkg := loadFixture(t, "suppressbad")
	diags := Run([]*Package{pkg}, All())
	var got []string
	for _, d := range diags {
		if d.Analyzer != "suppression" {
			t.Errorf("unexpected non-suppression diagnostic: %s", d)
			continue
		}
		got = append(got, d.Message)
	}
	want := []string{
		"malformed suppression: want //lint:ignore <analyzer> <reason>",
		"malformed suppression: want //lint:ignore <analyzer> <reason>",
		`suppression names unknown analyzer "nosuchanalyzer"`,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d suppression diagnostics %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestDiagnosticRendering pins the one-line and JSON-facing shapes.
func TestDiagnosticRendering(t *testing.T) {
	d := Diagnostic{File: "a/b.go", Line: 7, Col: 3, Analyzer: "atomicwrite", Message: "boom"}
	if got, want := d.String(), "a/b.go:7:3: boom (atomicwrite)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestPackageDirsSkipsFixtures ensures the ./... expansion never
// descends into testdata — fixture packages violate invariants on
// purpose and must not turn make lint red.
func TestPackageDirsSkipsFixtures(t *testing.T) {
	loader := loaderFor(t)
	dirs, err := PackageDirs(loader.ModRoot)
	if err != nil {
		t.Fatalf("PackageDirs: %v", err)
	}
	var sawAnalysis bool
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("PackageDirs descended into %s", d)
		}
		if strings.HasSuffix(d, filepath.Join("internal", "analysis")) {
			sawAnalysis = true
		}
	}
	if !sawAnalysis {
		t.Error("PackageDirs missed internal/analysis itself")
	}
}

// TestRepoSelfClean runs every analyzer over every package of the
// module — the linter's own acceptance gate, as a tier-1 test: the
// codebase must stay self-clean, with every deliberate exception
// carrying a reasoned //lint:ignore.
func TestRepoSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	diags, err := Lint(loaderFor(t), nil, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestSubsetRunReportsNoFalseUnreached: a run over one package still
// counts references from the rest of the module, so it reports none of
// the names only other packages use, and nothing outside the package.
func TestSubsetRunReportsNoFalseUnreached(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader := loaderFor(t)
	dir := filepath.Join(loader.ModRoot, "internal", "wire")
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(Run([]*Package{pkg}, []*Analyzer{Unreached})) == 0 {
		t.Fatal("wire alone references none of its exported names; this test needs a package other packages call")
	}
	diags, err := Lint(loader, []string{dir}, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("subset run reported %s", d)
	}
}

// TestLoaderErrors pins the loader's failure modes.
func TestLoaderErrors(t *testing.T) {
	loader := loaderFor(t)
	if _, err := loader.LoadDir(os.TempDir()); err == nil {
		t.Error("LoadDir outside the module should fail")
	}
	empty := t.TempDir() // inside /tmp, also outside the module
	if _, err := loader.LoadDir(empty); err == nil {
		t.Error("LoadDir of a non-module dir should fail")
	}
}

func ExampleDiagnostic() {
	d := Diagnostic{File: "internal/fabric/trace.go", Line: 67, Col: 12, Analyzer: "tracecall", Message: "pool.Call drops the trace context"}
	fmt.Println(d)
	// Output: internal/fabric/trace.go:67:12: pool.Call drops the trace context (tracecall)
}
