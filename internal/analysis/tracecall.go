package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TraceCall guards the federation's tracing invariant (PR 7): one
// TraceID stitches a whole m-ary tree traversal because every traced
// scope hands its context to the next hop via CallTrace. A bare
// pool.Call inside such a scope silently severs the trace — the
// downstream hop records an orphan span or none at all, and
// `webdocctl trace` shows a truncated tree with no hint why.
//
// Traced scopes are:
//   - any function with a *transport.Ctx or obs.TraceContext
//     parameter (it was handed a context to propagate),
//   - any function or literal registered with HandleCtx (the server
//     opened a span for it), and
//   - every method of a type that registers HandleCtx handlers — the
//     fabric's server type. Its RPC surface is the traced data plane,
//     so an untraced call from any of its methods is either a bug or
//     a deliberate control-plane exception worth one written line:
//     //lint:ignore tracecall <why this RPC must not carry a trace>.
var TraceCall = &Analyzer{
	Name: "tracecall",
	Doc:  "traced handler scopes must propagate trace context via CallTrace",
	Run:  runTraceCall,
}

func runTraceCall(p *Pass) {
	scopeFuncs := make(map[*types.Func]bool) // HandleCtx-registered functions
	scopeLits := make(map[*ast.FuncLit]bool) // HandleCtx-registered literals
	traceAware := make(map[*types.TypeName]bool)

	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "HandleCtx" {
				return true
			}
			for _, arg := range call.Args {
				switch a := arg.(type) {
				case *ast.FuncLit:
					scopeLits[a] = true
				case *ast.SelectorExpr: // s.handlePush — a method value
					if fn, ok := p.ObjectOf(a.Sel).(*types.Func); ok {
						scopeFuncs[fn] = true
						if tn := receiverTypeName(fn); tn != nil {
							traceAware[tn] = true
						}
					}
				case *ast.Ident:
					if fn, ok := p.ObjectOf(a).(*types.Func); ok {
						scopeFuncs[fn] = true
					}
				}
			}
			return true
		})
	}

	reported := make(map[token.Pos]bool)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := p.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			inScope := scopeFuncs[fn] || hasTraceParam(fn)
			if !inScope {
				if tn := receiverTypeName(fn); tn != nil && traceAware[tn] {
					inScope = true
				}
			}
			if inScope {
				checkUntracedCalls(p, fd.Body, reported)
			}
		}
	}
	for lit := range scopeLits {
		checkUntracedCalls(p, lit.Body, reported)
	}
}

// checkUntracedCalls reports transport.Pool.Call calls in body, which
// drop the trace context.
func checkUntracedCalls(p *Pass, body *ast.BlockStmt, reported map[token.Pos]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || reported[call.Pos()] {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Call" {
			return true
		}
		fn, ok := p.ObjectOf(sel.Sel).(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "transport" {
			return true
		}
		tn := receiverTypeName(fn)
		if tn == nil || tn.Name() != "Pool" {
			return true
		}
		reported[call.Pos()] = true
		p.Reportf(call.Pos(), "pool.Call inside a traced scope drops the trace context; use CallTrace, or annotate why this RPC is deliberately untraced")
		return true
	})
}

// hasTraceParam reports whether fn's parameters (not receiver)
// include a *transport.Ctx or obs.TraceContext.
func hasTraceParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		t := params.At(i).Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			continue
		}
		pkg, name := named.Obj().Pkg().Name(), named.Obj().Name()
		if (pkg == "transport" && name == "Ctx") || (pkg == "obs" && name == "TraceContext") {
			return true
		}
	}
	return false
}

// receiverTypeName returns the defining TypeName of fn's receiver
// base type, nil for plain functions and interface methods.
func receiverTypeName(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}
