package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Unreached reports each package-level function, type, variable and
// constant, and each method, declared in an internal/ package that no
// non-test file of the run references. A name only tests call is code
// kept alive for its own tests; a name nothing calls is code nobody
// reads. A use inside the name's own declaration (recursion, a method's
// receiver, a self-referential type) does not count, so a deletion that
// orphans a helper surfaces the helper on the next run.
//
// A method stays when it satisfies an interface the run uses (named
// anywhere, or taken as a parameter or result of a function some file
// uses), or when its name is one the standard library finds by dynamic
// assertion (String, Error, Format, Unwrap, Is, As and the JSON and
// text marshalers). Generic methods match through their origin. main,
// init and _ are exempt.
//
// References come from every package of the run, so a run over part of
// the module would report names only the rest uses; Lint therefore
// always loads the whole module.
var Unreached = &Analyzer{
	Name: "unreached",
	Doc:  "every name declared in internal/ is referenced by some non-test file of the module",
	Run:  runUnreached,
}

// dynamicMethods are the methods the standard library calls through a
// dynamic interface assertion, which no file of the module need name.
var dynamicMethods = map[string]bool{
	"String": true, "Error": true, "Format": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// references is what unreached needs from the whole run: every object
// some file references outside the object's own declaration, and every
// interface the run uses, indexed by method name.
type references struct {
	used   map[types.Object]bool
	ifaces map[string][]*types.Interface
}

func buildReferences(pkgs []*Package) *references {
	r := &references{used: make(map[types.Object]bool), ifaces: make(map[string][]*types.Interface)}
	seen := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > n.TypeArgs().Len() {
			return // an uninstantiated generic interface implements nothing
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			r.ifaces[name] = append(r.ifaces[name], it)
		}
	}
	for _, pkg := range pkgs {
		for _, tv := range pkg.Info.Types {
			addIface(tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := 0; i < tuple.Len(); i++ {
						addIface(tuple.At(i).Type())
					}
				}
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					self := pkg.Info.Defs[d.Name]
					if d.Recv != nil {
						r.markUses(pkg.Info, d.Recv, receiverType(pkg.Info, d))
					}
					r.markUses(pkg.Info, d.Type, self)
					if d.Body != nil {
						r.markUses(pkg.Info, d.Body, self)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var self types.Object
						if ts, ok := spec.(*ast.TypeSpec); ok {
							self = pkg.Info.Defs[ts.Name]
						}
						r.markUses(pkg.Info, spec, self)
					}
				}
			}
		}
	}
	return r
}

// markUses records every object an identifier under n refers to,
// except self.
func (r *references) markUses(info *types.Info, n ast.Node, self types.Object) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && obj != self {
				r.used[origin(obj)] = true
			}
		}
		return true
	})
}

// origin maps a method of an instantiated generic type back to its
// declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// receiverType is the type name a method is declared on.
func receiverType(info *types.Info, fd *ast.FuncDecl) types.Object {
	if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
		if n, ok := recvBase(fn).(*types.Named); ok {
			return n.Obj()
		}
	}
	return nil
}

// recvBase is a method's receiver type without its pointer.
func recvBase(m *types.Func) types.Type {
	t := m.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// satisfiesUsedInterface reports whether method m is one some used
// interface asks of its receiver type, or one the standard library
// finds dynamically.
func (r *references) satisfiesUsedInterface(m *types.Func) bool {
	if dynamicMethods[m.Name()] {
		return true
	}
	t := recvBase(m)
	for _, it := range r.ifaces[m.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

func runUnreached(p *Pass) {
	if !strings.Contains(p.Pkg.Path()+"/", "/internal/") {
		return
	}
	refs := p.refs
	report := func(id *ast.Ident, kind, name string) {
		p.Reportf(id.Pos(), "%s %s is referenced by no non-test file of the module", kind, name)
	}
	unused := func(id *ast.Ident) types.Object {
		if id.Name == "_" || id.Name == "init" || id.Name == "main" {
			return nil
		}
		if obj := p.Info.Defs[id]; obj != nil && !refs.used[obj] {
			return obj
		}
		return nil
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, ok := unused(d.Name).(*types.Func)
				switch {
				case !ok:
				case d.Recv == nil:
					report(d.Name, "func", fn.Name())
				case !refs.satisfiesUsedInterface(fn):
					recv := types.TypeString(fn.Type().(*types.Signature).Recv().Type(), types.RelativeTo(p.Pkg))
					report(d.Name, "method", "("+recv+")."+fn.Name())
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if unused(s.Name) != nil {
							report(s.Name, "type", s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if unused(id) != nil {
								report(id, strings.ToLower(d.Tok.String()), id.Name)
							}
						}
					}
				}
			}
		}
	}
}
