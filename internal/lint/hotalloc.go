package lint

import (
	"go/ast"
	"go/types"
)

// hotalloc: no allocation constructs in the Tick/Flush call trees.
//
// PR 2's contract is a zero-allocation saturated data path (~5 B/op per
// cycle, all of it amortized warm-up growth). -benchmem catches violations
// hours later and only on benchmarked paths; this rule catches them at
// their source. Roots are every Tick(now sim.Cycle) method/function and
// every Flush() method in the analyzed package; the rule walks the static
// call graph from those roots through module-local callees (interface
// dispatch and function-valued calls are not resolvable statically and end
// the walk) and flags, inside any reached function:
//
//   - make(...) and new(...)
//   - &T{...} and slice/map composite literals
//   - append(...) — growth beyond capacity allocates
//   - func literals (closure capture allocates)
//   - non-pointer concrete arguments to interface parameters (boxing)
//
// Arguments of panic(...) calls are exempt: a panicking simulator has
// already forfeited the contract. Deliberate amortized-growth sites
// (ring/queue geometric growth, wire event staging, pool warm-up) carry a
// function-level //lint:allow(hotalloc) whose reason names the amortization
// argument — that is the audited allocation surface of the data path.
func init() {
	Register(&Rule{
		Name:  "hotalloc",
		Doc:   "allocation construct reachable from a Tick/Flush call tree (zero-allocation contract)",
		Match: tickPathPackage,
		Run:   runHotAlloc,
	})
}

func runHotAlloc(p *Pass) {
	visited := map[*types.Func]bool{}
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !isTickRoot(p, fd) && !isFlushRoot(p, fd) {
				continue
			}
			if obj, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				p.walkHot(obj, visited)
			}
		}
	}
}

// isTickRoot: a function or method named Tick taking one sim.Cycle (int64)
// and returning nothing — the engine's tick-phase entry point.
func isTickRoot(p *Pass, fd *ast.FuncDecl) bool {
	if fd.Name.Name != "Tick" {
		return false
	}
	obj, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
	return ok && tickSignature(obj)
}

// tickSignature reports whether f takes one sim.Cycle (int64) and returns
// nothing.
func tickSignature(f *types.Func) bool {
	sig := f.Type().(*types.Signature)
	if sig.Params().Len() != 1 || sig.Results().Len() != 0 {
		return false
	}
	b, ok := sig.Params().At(0).Type().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int64
}

// isFlushRoot: a Flush() method with no parameters or results — the engine's
// flush-phase entry point on every latch.
func isFlushRoot(p *Pass, fd *ast.FuncDecl) bool {
	if fd.Name.Name != "Flush" || fd.Recv == nil {
		return false
	}
	obj, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	return sig.Params().Len() == 0 && sig.Results().Len() == 0
}

// walkHot checks fn's body and recurses into statically resolvable
// module-local callees.
func (p *Pass) walkHot(fn *types.Func, visited map[*types.Func]bool) {
	if fn == nil || visited[fn] {
		return
	}
	visited[fn] = true
	fd := p.Loader.FuncDecl(fn)
	if fd == nil || fd.Body == nil {
		return
	}
	pkg, ok := p.Loader.pkgs[fn.Pkg().Path()]
	if !ok {
		return
	}
	info := pkg.Info

	var inspect func(n ast.Node) bool
	inspect = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := callIdent(n.Fun); ok {
				switch obj := info.Uses[id].(type) {
				case *types.Builtin:
					switch obj.Name() {
					case "make":
						p.Reportf(n.Pos(), "make in hot-path function %s: preallocate at construction", fn.FullName())
					case "new":
						p.Reportf(n.Pos(), "new in hot-path function %s: preallocate or use the packet pool", fn.FullName())
					case "append":
						p.Reportf(n.Pos(), "append in hot-path function %s: growth beyond capacity allocates", fn.FullName())
					case "panic":
						return false // failing loudly is exempt; don't scan the message
					}
					return true
				case *types.Func:
					p.checkBoxing(info, n, obj, fn)
					// walkHot resolves module-local bodies and no-ops for
					// stdlib/interface callees.
					p.walkHot(obj, visited)
					return true
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					p.Reportf(n.Pos(), "&composite literal in hot-path function %s allocates", fn.FullName())
					return false
				}
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					p.Reportf(n.Pos(), "%s literal in hot-path function %s allocates",
						kindWord(t), fn.FullName())
				}
			}
		case *ast.FuncLit:
			p.Reportf(n.Pos(), "func literal in hot-path function %s: closure capture allocates", fn.FullName())
			return false // its body runs via dynamic dispatch we can't prove; don't double-report
		}
		return true
	}
	ast.Inspect(fd.Body, inspect)
}

// checkBoxing flags non-pointer concrete arguments passed to interface
// parameters: the conversion heap-allocates the value's box.
func (p *Pass) checkBoxing(info *types.Info, call *ast.CallExpr, callee *types.Func, root *types.Func) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		tv, ok := info.Types[arg]
		if !ok || tv.Value != nil { // untyped constants box into static data
			continue
		}
		at := tv.Type
		if at == nil || types.IsInterface(at) {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Basic:
			// Pointer-shaped values box without allocating; basic-typed
			// non-constants are usually error/report paths — the real data
			// path never reaches fmt. Struct/slice/array boxing is the
			// expensive, always-allocating case we flag.
			if _, isBasic := at.Underlying().(*types.Basic); !isBasic {
				continue
			}
			if isErrorPath(callee) {
				continue
			}
			p.Reportf(arg.Pos(), "interface boxing of %s in hot-path function %s allocates", at, root.FullName())
		default:
			p.Reportf(arg.Pos(), "interface boxing of %s in hot-path function %s allocates", at, root.FullName())
		}
	}
}

// isErrorPath reports callees that only run when the simulation is already
// failing (fmt formatting feeding a panic or a violation report).
func isErrorPath(callee *types.Func) bool {
	if callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		return true
	}
	return false
}

// kindWord names a composite-literal kind for diagnostics.
func kindWord(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}
