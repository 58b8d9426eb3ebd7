package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// latchphase: two-phase discipline for latched state.
//
// The engine's order-independence proof (sim/engine.go) rests on latched
// containers — link.Wire and anything else implementing sim.Latch — being
// mutated only through their sanctioned Send APIs during the tick phase and
// flushed only by the engine at window boundaries. A direct field write from
// tick code bypasses the staging and makes results depend on tick order; an
// explicit .Flush() call from component code publishes same-cycle writes
// early, which is the same bug in API clothing.
//
// Detection is structural so it holds for future latch types too: a
// "latched type" is any named struct with a Flush() method. Within its
// defining package, its fields may be written only by its own methods and
// by New* constructors; everywhere outside nifdy/internal/sim (the engine),
// calling Flush() explicitly is flagged.
func init() {
	Register(&Rule{
		Name:  "latchphase",
		Doc:   "latched state mutated outside its sanctioned APIs, or Flush() called outside the engine",
		Match: tickPathPackage,
		Run:   runLatchPhase,
	})
}

// isLatchedType reports whether t (after pointer stripping) is a named
// struct type carrying a Flush() method with no parameters or results.
func isLatchedType(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, false
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil, false
	}
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if m.Name() != "Flush" {
			continue
		}
		sig := m.Type().(*types.Signature)
		if sig.Params().Len() == 0 && sig.Results().Len() == 0 {
			return named, true
		}
	}
	return nil, false
}

// latchInterface reports whether t is an interface whose method set is
// exactly {Flush()} — i.e. sim.Latch or a structural equivalent.
func latchInterface(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() != 1 {
		return false
	}
	m := iface.Method(0)
	sig := m.Type().(*types.Signature)
	return m.Name() == "Flush" && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

func runLatchPhase(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recv := receiverType(p, fd)
			constructor := strings.HasPrefix(fd.Name.Name, "New")
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						p.checkLatchWrite(lhs, recv, constructor)
					}
				case *ast.IncDecStmt:
					p.checkLatchWrite(n.X, recv, constructor)
				case *ast.CallExpr:
					p.checkFlushCall(n, recv)
				}
				return true
			})
		}
	}
}

// receiverType returns the named type fd is a method of, or nil.
func receiverType(p *Pass, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := p.Pkg.Info.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// checkLatchWrite flags lhs when it denotes (an element of) a field of a
// latched type and the enclosing function is neither a method of that type
// nor a New* constructor.
func (p *Pass) checkLatchWrite(lhs ast.Expr, recv *types.Named, constructor bool) {
	// Unwrap element/deref syntax: w.events[i] = x and *w.reg = x both
	// mutate latched storage through the selector underneath.
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			lhs = e.X
			continue
		case *ast.StarExpr:
			lhs = e.X
			continue
		}
		break
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	base := p.Pkg.Info.TypeOf(sel.X)
	if base == nil {
		return
	}
	named, latched := isLatchedType(base)
	if !latched {
		return
	}
	if recv != nil && origin(recv) == origin(named) {
		return // the type's own methods are the sanctioned mutators
	}
	if constructor {
		return // New* may initialize fields before the first Step
	}
	p.Reportf(sel.Pos(),
		"direct write to latched field %s.%s outside %s's methods: mutate latched state only through its Push/Set/Send APIs",
		types.ExprString(sel.X), sel.Sel.Name, named.Obj().Name())
}

// checkFlushCall flags explicit x.Flush() calls outside the engine package.
func (p *Pass) checkFlushCall(call *ast.CallExpr, recv *types.Named) {
	if p.Pkg.Path == "nifdy/internal/sim" {
		return // the engine and its Flusher are the sanctioned drivers
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Flush" || len(call.Args) != 0 {
		return
	}
	base := p.Pkg.Info.TypeOf(sel.X)
	if base == nil {
		return
	}
	named, latched := isLatchedType(base)
	if !latched && !latchInterface(base) {
		return
	}
	if named != nil && recv != nil && origin(recv) == origin(named) {
		return // e.g. a latch type delegating to an embedded latch
	}
	p.Reportf(call.Pos(),
		"explicit Flush() outside the engine: latches are flushed by sim.Engine between phases; calling Flush from tick code publishes same-cycle writes early")
}

// origin maps an instantiated generic named type back to its declaration,
// so Queue[int] and Queue[string] methods compare equal.
func origin(n *types.Named) *types.Named {
	if n == nil {
		return nil
	}
	return n.Origin()
}

// namedOf unwraps pointers to the named type underneath, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return origin(named)
}
