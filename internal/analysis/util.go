package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// PathEnclosing returns the chain of AST nodes containing pos, innermost
// last. It is a simplified astutil.PathEnclosingInterval sufficient for
// finding enclosing function bodies and declarations.
func PathEnclosing(file *ast.File, pos token.Pos) []ast.Node {
	var path []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() <= pos && pos < n.End() {
			path = append(path, n)
			return true
		}
		return false
	})
	return path
}

// EnclosingFuncBody returns the body of the innermost function declaration
// or literal containing pos, and the FuncDecl when that innermost function
// is a declaration (nil for a literal).
func EnclosingFuncBody(file *ast.File, pos token.Pos) (*ast.BlockStmt, *ast.FuncDecl) {
	path := PathEnclosing(file, pos)
	for i := len(path) - 1; i >= 0; i-- {
		switch fn := path[i].(type) {
		case *ast.FuncLit:
			return fn.Body, nil
		case *ast.FuncDecl:
			return fn.Body, fn
		}
	}
	return nil, nil
}

// FuncFor resolves a call or selector expression to the *types.Func it
// invokes, or nil when the callee is not a declared function or method.
func FuncFor(info *types.Info, fun ast.Expr) *types.Func {
	switch e := ast.Unparen(fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// IsBuiltin reports whether the call invokes the named universe builtin
// (panic, recover, append, ...), respecting shadowing.
func IsBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// PkgNameOf reports the import path of the package a selector's base names,
// or "" when the base is not a package identifier ("sort" in sort.Slice).
func PkgNameOf(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// ExprString renders an expression compactly, for matching the slice
// appended inside a loop against the slice later passed to sort.
func ExprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, fset, e)
	return buf.String()
}

// NamedType unwraps pointers and aliases and returns the defined type's
// name, or "" for unnamed types.
func NamedType(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	if a, ok := t.(*types.Alias); ok {
		return a.Obj().Name()
	}
	return ""
}

// IsMapType reports whether the type is (an alias or defined type whose
// underlying type is) a map.
func IsMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// IsCompositeConstruction reports whether the expression builds a fresh
// value from a composite literal: T{...} or &T{...}. A local defined from
// one aliases nothing yet, so writing its fields is construction, not
// mutation. Constructor calls and Clone results do not count.
func IsCompositeConstruction(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := e.X.(*ast.CompositeLit)
			return ok
		}
	}
	return false
}
