// Package lint implements the project's static-analysis engine: a
// small, zero-dependency framework (only go/parser, go/types and the
// stdlib "source" importer — no golang.org/x/tools) plus the
// project-specific analyzers that guard the comparator math and the
// parallel cube builder against silent correctness drift. A float ==
// on a confidence, an unseeded RNG in a figure path, or a copied mutex
// in the store builder invalidates the reproduction without failing a
// single test; the analyzers here turn each of those into a build
// break. The cmd/opmaplint driver runs every analyzer over the module
// and exits non-zero on findings.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Analyzer string         // analyzer that produced the finding
	Pos      token.Position // file:line:col of the offending node
	Symbol   string         // enclosing top-level declaration, if any
	Message  string
}

// String formats the diagnostic the way compilers do, so editors can
// jump to the position.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string // import path (or a synthetic path in tests)
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer is one static check. Run inspects the package via the Pass
// and reports findings with Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	// Skip, when non-nil, excludes packages by import path before Run
	// is called (e.g. apidoc only applies to the public root package).
	Skip func(pkgPath string) bool
	Run  func(*Pass)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	*Package
	analyzer *Analyzer
	allow    []Allow
	diags    *[]Diagnostic
}

// Reportf records a finding at pos unless an allowlist entry covers
// the enclosing declaration.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	sym := p.enclosingSymbol(pos)
	for _, a := range p.allow {
		if a.Analyzer == p.analyzer.Name && a.Package == p.Path && a.Symbol == sym {
			return
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Symbol:   sym,
		Message:  fmt.Sprintf(format, args...),
	})
}

// enclosingSymbol names the top-level declaration containing pos:
// "Func" for functions, "Recv.Method" for methods, the first declared
// name for type/var/const groups, "" when pos sits outside any
// declaration.
func (p *Pass) enclosingSymbol(pos token.Pos) string {
	for _, f := range p.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			if pos < decl.Pos() || pos > decl.End() {
				continue
			}
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil && len(d.Recv.List) > 0 {
					return receiverTypeName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				return d.Name.Name
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if pos < spec.Pos() || pos > spec.End() {
						continue
					}
					switch s := spec.(type) {
					case *ast.TypeSpec:
						return s.Name.Name
					case *ast.ValueSpec:
						if len(s.Names) > 0 {
							return s.Names[0].Name
						}
					}
				}
			}
		}
	}
	return ""
}

// receiverTypeName extracts the base type name from a method receiver
// expression (*T, T, or generic T[...]).
func receiverTypeName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return receiverTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return receiverTypeName(e.X)
	case *ast.IndexListExpr:
		return receiverTypeName(e.X)
	}
	return ""
}

// Loader parses and type-checks packages from source. One Loader
// shares a file set and a "source" importer across packages, so stdlib
// dependencies are type-checked once per process rather than once per
// package, and every package it loads is importable by the packages
// loaded after it.
type Loader struct {
	fset   *token.FileSet
	std    types.Importer
	loaded map[string]*types.Package
}

// NewLoader returns a Loader backed by the stdlib source importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		loaded: make(map[string]*types.Package),
	}
}

// Import resolves path to a package this loader already loaded, and
// anything else (the standard library) through the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.loaded[path]; ok {
		return pkg, nil
	}
	return l.std.Import(path)
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Load parses and type-checks the package in dir under the given
// import path. files lists the Go file names to include (as produced
// by go list's GoFiles); nil means every non-test .go file in dir.
// Test files are always excluded: the analyzers guard library code.
func (l *Loader) Load(path, dir string, files []string) (*Package, error) {
	if files == nil {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			files = append(files, name)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(files)
	var parsed []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	l.loaded[path] = pkg
	return &Package{Path: path, Fset: l.fset, Files: parsed, Types: pkg, Info: info}, nil
}

// Run applies the analyzers to one package, honoring each analyzer's
// Skip predicate and the allowlist, and returns position-sorted
// diagnostics.
func Run(pkg *Package, analyzers []*Analyzer, allow []Allow) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Skip != nil && a.Skip(pkg.Path) {
			continue
		}
		a.Run(&Pass{Package: pkg, analyzer: a, allow: allow, diags: &diags})
	}
	sortDiags(diags)
	return diags
}

// All lists every analyzer the opmaplint driver runs, in report order.
var All = []*Analyzer{
	FloatCmp, SeededRand, PanicFree, LockSafe, APIDoc, CtxRule, CubeAccess,
	CtxLoop, GoroLeak, ErrClose, MetricName, Exhaustive,
}
