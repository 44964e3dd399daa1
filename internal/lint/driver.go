package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The driver is the engine's orchestration layer: it enumerates
// packages with `go list`, orders them dependencies-first along the
// module's import DAG, and type-checks and analyzes them one at a time
// through one Loader, so each package sees its dependencies' completed
// *types.Package (a dependency is type-checked exactly once per run,
// never once per importer). Diagnostics are sorted by position at the
// end, so output order is deterministic.

// DriverConfig parameterizes one lint run.
type DriverConfig struct {
	// Patterns are go-list package patterns; empty means ./...
	Patterns []string
	// Dir is the directory to resolve patterns from (the module root in
	// normal use). Empty means the current directory.
	Dir string
	// Analyzers is the analyzer set; nil means All.
	Analyzers []*Analyzer
	// Allow is the compiled-in allowlist applied during analysis.
	Allow []Allow
}

// DriverResult is one completed lint run.
type DriverResult struct {
	// ModuleRoot is the absolute module root directory; Diags filenames
	// are relative to it.
	ModuleRoot string
	// ModulePath is the module's import path (e.g. "opmap").
	ModulePath string
	// Packages is how many packages the patterns matched.
	Packages int
	// Diags are all findings, allowlist already applied, sorted by
	// file/line/column/analyzer with module-root-relative filenames.
	Diags []Diagnostic
}

// listedPkg is the subset of `go list -json` output the driver needs.
type listedPkg struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Imports    []string
}

// node is one package in the import DAG.
type node struct {
	pkg  listedPkg
	deps []*node // in-module imports
}

// Drive runs the full engine: list, order, type-check, analyze,
// collect. It returns diagnostics and run statistics; operational
// failures (a package that does not type-check, a broken pattern) are
// errors.
func Drive(cfg DriverConfig) (*DriverResult, error) {
	dir := cfg.Dir
	if dir == "" {
		dir = "."
	}
	analyzers := cfg.Analyzers
	if analyzers == nil {
		analyzers = All
	}
	modRoot, modPath, err := moduleInfo(dir)
	if err != nil {
		return nil, err
	}
	patterns := cfg.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	order := topoOrder(buildGraph(pkgs, modPath))

	loader := NewLoader()
	res := &DriverResult{ModuleRoot: modRoot, ModulePath: modPath, Packages: len(order)}
	for _, n := range order {
		pkg, err := loader.Load(n.pkg.ImportPath, n.pkg.Dir, n.pkg.GoFiles)
		if err != nil {
			return nil, err
		}
		for _, d := range Run(pkg, analyzers, cfg.Allow) {
			d.Pos.Filename = relToRoot(modRoot, d.Pos.Filename)
			res.Diags = append(res.Diags, d)
		}
	}
	sortDiags(res.Diags)
	return res, nil
}

// buildGraph wires the in-module import edges between listed packages.
// Imports outside the listed set (possible with narrow patterns) fall
// through to the source importer at type-check time.
func buildGraph(pkgs []listedPkg, modPath string) map[string]*node {
	nodes := make(map[string]*node, len(pkgs))
	for _, p := range pkgs {
		nodes[p.ImportPath] = &node{pkg: p}
	}
	for _, n := range nodes {
		for _, imp := range n.pkg.Imports {
			if imp != modPath && !strings.HasPrefix(imp, modPath+"/") {
				continue
			}
			if dep, ok := nodes[imp]; ok {
				n.deps = append(n.deps, dep)
			}
		}
	}
	return nodes
}

// topoOrder returns nodes dependencies-first, ties broken by import
// path so every run visits packages in the same order.
func topoOrder(nodes map[string]*node) []*node {
	paths := make([]string, 0, len(nodes))
	for p := range nodes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	order := make([]*node, 0, len(nodes))
	seen := make(map[*node]bool, len(nodes))
	var visit func(n *node)
	visit = func(n *node) {
		if seen[n] {
			return
		}
		seen[n] = true
		deps := append([]*node(nil), n.deps...)
		sort.Slice(deps, func(i, j int) bool { return deps[i].pkg.ImportPath < deps[j].pkg.ImportPath })
		for _, d := range deps {
			visit(d)
		}
		order = append(order, n)
	}
	for _, p := range paths {
		visit(nodes[p])
	}
	return order
}

// sortDiags orders findings by file, line, column, analyzer, message.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// relToRoot makes path relative to the module root when it is inside
// it, with forward slashes so reports read the same on every OS.
func relToRoot(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}

// moduleInfo resolves the module root directory and module path for
// dir via the go command.
func moduleInfo(dir string) (root, path string, err error) {
	out, err := goCmd(dir, "env", "GOMOD")
	if err != nil {
		return "", "", err
	}
	gomod := strings.TrimSpace(out)
	if gomod == "" || gomod == os.DevNull {
		return "", "", fmt.Errorf("lint: %s is not inside a Go module", dir)
	}
	root = filepath.Dir(gomod)
	out, err = goCmd(dir, "list", "-m")
	if err != nil {
		return "", "", err
	}
	path = strings.TrimSpace(out)
	if path == "" {
		return "", "", fmt.Errorf("lint: cannot determine module path for %s", dir)
	}
	return root, path, nil
}

// goList resolves package patterns via the go command from dir.
func goList(dir string, patterns []string) ([]listedPkg, error) {
	args := append([]string{"list", "-json=Dir,ImportPath,GoFiles,Imports"}, patterns...)
	out, err := goCmd(dir, args...)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(strings.NewReader(out))
	var pkgs []listedPkg
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// goCmd runs the go tool in dir and returns stdout.
func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", args[0], err, errb.String())
	}
	return out.String(), nil
}
