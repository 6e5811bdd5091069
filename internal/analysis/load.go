package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the non-test files of
// one directory. Test files are deliberately excluded — the linter's
// invariants guard production code, and fixture packages under
// testdata stand in for the test-side cases.
type Package struct {
	Dir   string
	Path  string // import path within the module
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks module packages using only the
// standard library: module-internal imports resolve straight to
// source directories under the module root, and everything else
// (the standard library) goes through the go/importer "source"
// importer. No x/tools, no export data, no go command.
type Loader struct {
	ModRoot string
	ModPath string

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle guard
}

// NewLoader creates a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer type-checks the standard library from
	// GOROOT/src; with cgo enabled it would trip over `import "C"`
	// files in net and os/user, so force the pure-Go variants — type
	// identity is unaffected.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		ModRoot: root,
		ModPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// LoadDir loads the package in dir (absolute or relative to the
// working directory). Results are cached by import path, so loading
// the same directory twice is free.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.ModRoot)
	}
	path := l.ModPath
	if rel != "." {
		path = l.ModPath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var terrs []string
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error: func(err error) {
			if len(terrs) < 10 {
				terrs = append(terrs, err.Error())
			}
		},
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if len(terrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s:\n\t%s", path, strings.Join(terrs, "\n\t"))
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Dir: dir, Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses the non-test .go files of dir that the default build
// context compiles (build constraints and file-name suffixes honoured,
// so a race-only file and its !race twin are not both loaded), in name
// order.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, n)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// loaderImporter routes module-internal import paths to source
// directories and delegates the rest to the stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		dir := l.ModRoot
		if path != l.ModPath {
			dir = filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModPath+"/")))
		}
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// PackageDirs walks the module tree under root and returns every
// directory holding at least one non-test Go file, skipping testdata
// trees (fixture packages violate invariants on purpose), vendor, and
// hidden directories.
func PackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		n := d.Name()
		if strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// findModuleRoot walks up from dir to the directory holding go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		d = parent
	}
}

// modulePath reads the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s", gomod)
}

// Lint loads every package of the loader's module, and any of dirs
// outside it, runs analyzers over all of them, and returns the
// diagnostics whose file lies in one of dirs (all of them when dirs is
// empty). The whole module is loaded even for a run over one package:
// unreached counts references from every package, and would otherwise
// report each name only the rest of the module uses.
func Lint(l *Loader, dirs []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	all, err := PackageDirs(l.ModRoot)
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool)
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		want[abs] = true
	}
	var pkgs []*Package
	seen := make(map[string]bool)
	for _, dir := range append(all, dirs...) {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if !seen[pkg.Path] {
			seen[pkg.Path] = true
			pkgs = append(pkgs, pkg)
		}
	}
	diags := Run(pkgs, analyzers)
	if len(dirs) == 0 {
		return diags, nil
	}
	kept := diags[:0]
	for _, d := range diags {
		if want[filepath.Dir(d.File)] {
			kept = append(kept, d)
		}
	}
	return kept, nil
}
