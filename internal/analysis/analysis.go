package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check. Run inspects a type-checked package
// through its Pass and reports findings with Pass.Reportf; it never
// mutates the package.
type Analyzer struct {
	Name string // short lower-case identifier, used in //lint:ignore
	Doc  string // one-line description for -list and the README catalog
	Run  func(*Pass)
}

// Pass hands one analyzer one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
	refs  *references // what every package of the run references
}

// Diagnostic is one finding, position-tagged for editors and CI.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the go-vet-style one-line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ObjectOf resolves an identifier to its object (uses first, then
// defs), nil when the type-checker recorded neither.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// All returns the full analyzer set in catalog order.
func All() []*Analyzer {
	return []*Analyzer{
		AtomicWrite,
		SentinelErr,
		TraceCall,
		Unreached,
	}
}

// Run applies every analyzer to every package, applies //lint:ignore
// suppressions, and returns the surviving diagnostics sorted by
// position. Unused and malformed suppressions come back as
// diagnostics themselves (analyzer "suppression").
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	var sups []*suppression
	refs := buildReferences(pkgs)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
				refs:     refs,
			})
		}
		sups = append(sups, collectSuppressions(pkg)...)
	}
	diags = applySuppressions(diags, sups)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
