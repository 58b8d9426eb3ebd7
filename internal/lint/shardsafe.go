package lint

import (
	"go/ast"
	"go/types"
)

// shardsafe: Tick trees must not reach cross-shard side doors.
//
// The sharded and distributed engines only stay bit-identical to the serial
// one because every cross-shard effect rides the staged link.Wire path: a
// Tick may SendAt into a wire's next-cycle buffer, the barrier flushes, and
// the consumer sees it a cycle later. Everything else that touches another
// shard's state — event injection, fault toggles, remote binding,
// registration sweeps — is a boundary or build-time API, sound
// only while the shards are quiescent. Reached from inside a Tick tree,
// those calls race shard goroutines (or desynchronize the dist workers,
// whose boundary APIs act on a different process entirely).
//
// The rule walks the static call graph from every Tick root (shared with
// hotalloc; interface dispatch ends the walk, which is the same boundary
// the runtime shard monitors cover) and flags, in any reached function:
//
//   - calls to the boundary-only entry points (InjectAt, CrossShard,
//     SetRemote, SetFault, Observe, Board, ForEach);
//
//   - writes to fields of another component (a named struct with a Tick
//     method) from outside that component's own methods — the
//     direct poke that works single-shard and silently diverges sharded.
//     A component's own methods are the sanctioned same-shard coupling.
func init() {
	Register(&Rule{
		Name:  "shardsafe",
		Doc:   "cross-shard side door reachable from a Tick tree (boundary API call or cross-component write)",
		Match: tickPathPackage,
		Run:   runShardSafe,
	})
}

// shardBoundary names the methods that are only sound between cycles, from
// the coordinating goroutine: injection, fault control, remote binding,
// and registration/observation sweeps.
var shardBoundary = map[string]bool{
	"InjectAt":   true,
	"CrossShard": true,
	"SetRemote":  true,
	"SetFault":   true,
	"Observe":    true,
	"Board":      true,
	"ForEach":    true,
}

func runShardSafe(p *Pass) {
	w := newCallWalk(p.Loader)
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isTickRoot(p, fd) {
				continue
			}
			obj, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			w.from(obj, func(fn *types.Func, decl *ast.FuncDecl) {
				p.checkShardFunc(fn, decl)
			})
		}
	}
}

// checkShardFunc scans one reached function. Diagnostics name fn (not the
// Tick root), so a shared helper reached from many roots reports once.
func (p *Pass) checkShardFunc(fn *types.Func, decl *ast.FuncDecl) {
	pkg, ok := p.Loader.pkgs[fn.Pkg().Path()]
	if !ok {
		return
	}
	info := pkg.Info

	// The component this function belongs to, if it is a method.
	var recv *types.Named
	if r := fn.Type().(*types.Signature).Recv(); r != nil {
		recv = namedOf(r.Type())
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !shardBoundary[sel.Sel.Name] {
				return true
			}
			callee, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || callee.Type().(*types.Signature).Recv() == nil {
				return true // not a method: an unrelated free function
			}
			p.Reportf(n.Pos(),
				"boundary-only method %s called in %s, which is reachable from a Tick tree: cross-shard effects must ride the staged link.Wire path",
				sel.Sel.Name, fn.FullName())
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				p.checkComponentWrite(info, lhs, recv, fn)
			}
		case *ast.IncDecStmt:
			p.checkComponentWrite(info, n.X, recv, fn)
		}
		return true
	})
}

// checkComponentWrite flags lhs when it writes a field of a component type
// (one with a Tick method) and fn is not that component's own method.
func (p *Pass) checkComponentWrite(info *types.Info, lhs ast.Expr, recv *types.Named, fn *types.Func) {
	sel, ok := stripElem(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	owner := namedOf(s.Recv())
	if owner == nil || !isComponent(owner) {
		return
	}
	if recv != nil && origin(recv) == origin(owner) {
		return // a component's own methods are the sanctioned mutators
	}
	p.Reportf(sel.Pos(),
		"write to %s.%s outside %s's methods in %s (reachable from a Tick tree): poke components through their own methods or the staged wire path",
		owner.Obj().Name(), sel.Sel.Name, owner.Obj().Name(), fn.FullName())
}

// isComponent reports types that participate in the shard protocol: they
// have a Tick(sim.Cycle) method.
func isComponent(named *types.Named) bool {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), "Tick")
	f, ok := obj.(*types.Func)
	return ok && tickSignature(f)
}
