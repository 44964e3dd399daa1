package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CubeAccess flags direct access to a cube cache field — a map or
// slice field whose elements are cubes, point to a struct holding one,
// or atomically hold such a pointer, like the engine's atomic slots —
// from outside the owning type's methods. Those containers carry
// invariants the accessors maintain (slot indexing, use stamps, byte
// accounting, mutex discipline); a stray `s.slots[i]` in a helper
// bypasses all of them and compiles silently. Access from any method of the declaring type
// is allowed: that is where the accessors live.
var CubeAccess = &Analyzer{
	Name: "cubeaccess",
	Doc:  "flags map or slice access to cube cache fields outside the owning type's methods",
	Run:  runCubeAccess,
}

func runCubeAccess(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			owner := receiverNamedType(p, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IndexExpr:
					checkCubeMapAccess(p, owner, n.X, n.X.Pos())
				case *ast.RangeStmt:
					checkCubeMapAccess(p, owner, n.X, n.X.Pos())
				case *ast.CallExpr:
					// delete(s.twoD, k) and len(s.twoD) touch the
					// container without an index expression.
					for _, arg := range n.Args {
						checkCubeMapAccess(p, owner, arg, arg.Pos())
					}
				}
				return true
			})
		}
	}
}

// receiverNamedType resolves a method's receiver to its named type,
// or nil for free functions.
func receiverNamedType(p *Pass, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	return namedOf(p.Info.TypeOf(fd.Recv.List[0].Type))
}

// checkCubeMapAccess reports expr when it selects a cube cache field
// of a type other than owner.
func checkCubeMapAccess(p *Pass, owner *types.Named, expr ast.Expr, pos token.Pos) {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := p.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	field := selection.Obj()
	var elem types.Type
	switch u := field.Type().Underlying().(type) {
	case *types.Map:
		elem = u.Elem()
	case *types.Slice:
		elem = u.Elem()
	}
	if elem == nil || !holdsCube(elem) {
		return
	}
	holder := namedOf(selection.Recv())
	if holder == nil {
		return
	}
	if owner != nil && owner.Obj() == holder.Obj() {
		return // an accessor method of the owning type
	}
	p.Reportf(pos, "direct access to cube cache %s.%s outside its owning type; go through %s's accessor methods",
		holder.Obj().Name(), field.Name(), holder.Obj().Name())
}

// holdsCube reports whether a container element t is a cube, points
// to a struct with a cube field, or is an atomic.Pointer to one.
func holdsCube(t types.Type) bool {
	if isCubeType(t) {
		return true
	}
	if named := namedOf(t); named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync/atomic" && named.Obj().Name() == "Pointer" && named.TypeArgs().Len() == 1 {
		t = named.TypeArgs().At(0)
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isCubeType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// isCubeType reports whether t is Cube or *Cube (any package's named
// Cube type).
func isCubeType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named := namedOf(t)
	return named != nil && named.Obj().Name() == "Cube"
}

// namedOf unwraps pointers down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}
