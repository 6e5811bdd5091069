package analysis

import (
	"go/ast"
	"go/types"
)

// RouteAround guards the tree-repair invariant: the fabric's fan-out
// kernel picks, from an operation's idempotent flag, the classifier
// that decides which failed child calls are repaired by grafting the
// child's subtree onto the caller (fabric.hopRules). That decision is
// only safe when it is grounded in transport.Unreachable — grafting
// on an application error double-delivers to a subtree whose relay
// already ran, and refusing to classify unreachability at all turns
// every dead interior station into a lost subtree. Every function
// that hands out a route-around classifier — any function with a
// func(error) bool result — must therefore return only classifiers
// that consult transport.Unreachable: the function itself, a named
// predicate that calls it (canRouteAround), a literal that does, or a
// parameter passed through (its own origin is checked where it was
// chosen). A deliberately different policy takes a reasoned
// //lint:ignore routearound <why>.
var RouteAround = &Analyzer{
	Name: "routearound",
	Doc:  "route-around classifiers a function hands out must consult transport.Unreachable",
	Run:  runRouteAround,
}

func runRouteAround(p *Pass) {
	// Same-package function bodies, for verifying named classifiers.
	bodies := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					bodies[fn] = fd
				}
			}
		}
	}
	for fn, fd := range bodies {
		results := fn.Type().(*types.Signature).Results()
		for i := 0; i < results.Len(); i++ {
			if !isClassifierType(results.At(i).Type()) {
				continue
			}
			for _, ret := range returnsOf(fd.Body) {
				// A bare return or a forwarded multi-value call names
				// no classifier expression to check here.
				if len(ret.Results) != results.Len() {
					continue
				}
				if arg := ret.Results[i]; !classifiesUnreachable(p, bodies, arg) {
					p.Reportf(arg.Pos(), "route-around classifier never consults transport.Unreachable; grafting on other errors re-delivers to subtrees whose relay already ran")
				}
			}
		}
	}
}

// returnsOf collects the function's own return statements, not those
// of literals nested in it.
func returnsOf(body *ast.BlockStmt) []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			out = append(out, n)
		}
		return true
	})
	return out
}

// isClassifierType recognizes func(error) bool.
func isClassifierType(t types.Type) bool {
	sig, ok := t.(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	if !types.Identical(sig.Params().At(0).Type(), types.Universe.Lookup("error").Type()) {
		return false
	}
	res, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	return ok && res.Kind() == types.Bool
}

// classifiesUnreachable reports whether the classifier expression is
// grounded in transport.Unreachable.
func classifiesUnreachable(p *Pass, bodies map[*types.Func]*ast.FuncDecl, arg ast.Expr) bool {
	if lit, ok := arg.(*ast.FuncLit); ok {
		return referencesUnreachable(p, lit.Body)
	}
	var obj types.Object
	switch a := arg.(type) {
	case *ast.Ident:
		obj = p.ObjectOf(a)
	case *ast.SelectorExpr:
		obj = p.ObjectOf(a.Sel)
	}
	switch o := obj.(type) {
	case *types.Var:
		// A pass-through: the classifier was chosen by this function's
		// caller, and that call site carries its own check.
		return true
	case *types.Func:
		if isUnreachableFunc(o) {
			return true
		}
		if fd := bodies[o]; fd != nil {
			return referencesUnreachable(p, fd.Body)
		}
	}
	return false
}

// referencesUnreachable reports whether the body mentions
// transport.Unreachable anywhere.
func referencesUnreachable(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if fn, ok := p.ObjectOf(sel.Sel).(*types.Func); ok && isUnreachableFunc(fn) {
			found = true
		}
		return !found
	})
	return found
}

// isUnreachableFunc recognizes transport.Unreachable itself.
func isUnreachableFunc(fn *types.Func) bool {
	return fn.Name() == "Unreachable" && fn.Pkg() != nil && fn.Pkg().Name() == "transport"
}
