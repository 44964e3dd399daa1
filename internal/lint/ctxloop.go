package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxLoop guards the pipeline's cancellation latency: inside a
// context-taking function in pipeline code, every outermost loop must
// observe its context — poll ctx.Err()/ctx.Done() or pass ctx to a
// callee — so a canceled request stops within one iteration instead of
// running a row-scale scan to completion. PR 2 threaded contexts
// through every entry point by hand; this analyzer keeps that invariant
// as the batch engine and row-sharded builds multiply the hot loops.
// Inner loops are exempt (poll granularity is the outer iteration, the
// convention BuildMany documents), as are ranges over channels,
// whose producers own the cancellation path.
var CtxLoop = &Analyzer{
	Name: "ctxloop",
	Doc:  "outermost loops in context-taking pipeline functions must observe ctx (poll ctx.Err/Done or call a Context-taking function)",
	Skip: func(pkgPath string) bool { return !ctxLoopApplies(pkgPath) },
	Run: func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch fn := n.(type) {
				case *ast.FuncDecl:
					if fn.Body != nil {
						checkCtxFunc(p, fn.Type, fn.Body)
					}
				case *ast.FuncLit:
					checkCtxFunc(p, fn.Type, fn.Body)
				}
				return true
			})
		}
	},
}

// ctxLoopPackages are the pipeline packages the invariant covers: the
// public session API plus everything that scans rows, cubes or shards.
var ctxLoopPackages = []string{
	"opmap",
	"opmap/internal/rulecube",
	"opmap/internal/compare",
	"opmap/internal/gi",
	"opmap/internal/engine",
	"opmap/internal/discretize",
	"opmap/internal/snapshot",
	"opmap/internal/workload",
}

func ctxLoopApplies(pkgPath string) bool {
	for _, p := range ctxLoopPackages {
		if pkgPath == p {
			return true
		}
	}
	// Golden-test packages.
	return strings.HasPrefix(pkgPath, "ctxloop/")
}

// checkCtxFunc applies the rule to one function whose first parameter
// is a named context.Context.
func checkCtxFunc(p *Pass, ft *ast.FuncType, body *ast.BlockStmt) {
	ctxObj := firstCtxParam(p, ft)
	if ctxObj == nil {
		return
	}
	checkLoops(p, body, ctxObj)
}

// firstCtxParam returns the *types.Var of the function's first
// parameter when it is a named context.Context, else nil.
func firstCtxParam(p *Pass, ft *ast.FuncType) types.Object {
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return nil
	}
	first := ft.Params.List[0]
	if !isContextType(p, first.Type) || len(first.Names) == 0 {
		return nil
	}
	name := first.Names[0]
	if name.Name == "_" {
		return nil
	}
	return p.Info.Defs[name]
}

// checkLoops walks stmts for outermost for/range loops and reports the
// ones whose whole subtree never mentions ctx. Nested function
// literals with their own context parameter are excluded — they are
// checked as their own unit.
func checkLoops(p *Pass, node ast.Node, ctxObj types.Object) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ForStmt:
			checkOneLoop(p, s, ctxObj)
			return false
		case *ast.RangeStmt:
			if isChannelRange(p, s) {
				// Ranging over a channel ends when the producer stops;
				// cancellation is the producer's job.
				return false
			}
			checkOneLoop(p, s, ctxObj)
			return false
		case *ast.FuncLit:
			// A literal with its own ctx parameter is a separate unit;
			// one without inherits the enclosing ctx obligation.
			if firstCtxParam(p, s.Type) != nil {
				return false
			}
		}
		return true
	})
}

// checkOneLoop reports the loop unless its subtree references ctx.
func checkOneLoop(p *Pass, loop ast.Node, ctxObj types.Object) {
	if usesObject(p, loop, ctxObj) {
		return
	}
	p.Reportf(loop.Pos(), "loop body never observes the function's context; poll ctx.Err() (or ctx.Done()) or call a Context-taking function so cancellation stops row-scale work")
}

// usesObject reports whether any identifier under n resolves to obj.
func usesObject(p *Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if id, ok := c.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// isChannelRange reports whether the range expression is a channel.
func isChannelRange(p *Pass, s *ast.RangeStmt) bool {
	tv, ok := p.Info.Types[s.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}
