package lint

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

// Package is one loaded, type-checked package: the unit a Rule runs over.
type Package struct {
	Path  string // import path ("nifdy/internal/core"); synthetic for testdata
	Dir   string
	Files []*ast.File // non-test files, in filename order
	Types *types.Package
	Info  *types.Info

	funcDecls map[*types.Func]*ast.FuncDecl // built on first FuncDecl call
}

// Loader parses and type-checks module packages using only the standard
// library: module-local imports are resolved from source under the module
// root, everything else falls through to go/importer's source importer.
// Loads are memoized, so a package shared by many lint targets is checked
// once.
type Loader struct {
	Fset   *token.FileSet
	Module string // module path from go.mod
	Root   string // module root directory

	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle guard

	facts   map[*factKey]map[*Package]any // memoized per-package analysis facts
	callees map[*types.Func][]callee      // memoized static call graph edges
}

// NewLoader returns a Loader for the module rooted at root (the directory
// containing go.mod).
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		Module:  mod,
		Root:    root,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// FindModuleRoot walks upward from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// dirFor maps a module-local import path to its directory.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.Module {
		return l.Root, true
	}
	if rest, ok := strings.CutPrefix(path, l.Module+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Load parses and type-checks the package at the given module-local import
// path.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("lint: %s is not a module-local import path", path)
	}
	return l.LoadDir(dir, path)
}

// LoadDir parses and type-checks the package in dir under the given import
// path. Test files are skipped: the contracts the rules enforce are about
// simulation code, and tests/benchmarks are explicitly exempt. Files ruled
// out by build constraints (`//go:build` lines or _GOOS/_GOARCH filename
// suffixes) are skipped for the host platform, exactly as the compiler
// would — a platform pair like sockpair_unix.go/sockpair_stub.go otherwise
// loads as one package full of redeclarations.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil || !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	cfg := types.Config{
		Importer: importerFunc(func(ip string) (*types.Package, error) {
			if _, ok := l.dirFor(ip); ok {
				p, err := l.Load(ip)
				if err != nil {
					return nil, err
				}
				return p.Types, nil
			}
			return l.std.Import(ip)
		}),
		Error: func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := cfg.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// ModulePackages lists the import paths of every package directory under the
// module root, in sorted order, skipping testdata, hidden directories, and
// directories with no non-test Go files.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.Root, func(dir string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if dir != l.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				rel, err := filepath.Rel(l.Root, dir)
				if err != nil {
					return err
				}
				if rel == "." {
					paths = append(paths, l.Module)
				} else {
					paths = append(paths, l.Module+"/"+filepath.ToSlash(rel))
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// FuncDecl returns the syntax of fn if it is defined in a module package
// this loader has loaded (loading it on demand when fn's package is
// module-local). It returns nil for stdlib functions, interface methods, and
// functions without bodies.
func (l *Loader) FuncDecl(fn *types.Func) *ast.FuncDecl {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	// Methods of instantiated generics (Wire[flit].SendAt) are distinct
	// objects from their declared origin (Wire[T].SendAt); syntax lives on
	// the origin.
	fn = fn.Origin()
	pkg, ok := l.pkgs[fn.Pkg().Path()]
	if !ok {
		if _, local := l.dirFor(fn.Pkg().Path()); !local {
			return nil
		}
		var err error
		pkg, err = l.Load(fn.Pkg().Path())
		if err != nil {
			return nil
		}
	}
	return pkg.FuncDecl(fn)
}

// FuncDecl returns the declaration of fn within this package, or nil.
func (p *Package) FuncDecl(fn *types.Func) *ast.FuncDecl {
	if p.funcDecls == nil {
		p.funcDecls = map[*types.Func]*ast.FuncDecl{}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					p.funcDecls[obj] = fd
				}
			}
		}
	}
	return p.funcDecls[fn]
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
