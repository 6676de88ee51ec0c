// Package immutable enforces the shared-leaf contract of the structural
// clone: a type annotated //lego:immutable is never written after it is
// built, so clones may share it instead of copying it.
//
// sqlast.Literal, ColRef and Star carry the directive, and their Clone
// returns the receiver: a statement and every clone of it point at the same
// leaves. One write through a leaf field — anywhere, by any package — would
// change every statement sharing that leaf, across test cases and across
// shards. The sanctioned way to change a leaf is to replace it with a new
// one (RewriteExpr's callback returns a fresh node).
//
// The owning package annotates the type declaration:
//
//	// Literal is a constant value.
//	//
//	//lego:immutable clones share it; build a new Literal instead
//	type Literal struct { ... }
//
// and the analyzer exports an ImmutableFact on it. In every package, the
// owner included, it then reports:
//
//   - assignments (=, op=, and range assignments) and ++/-- whose target is
//     a field of an annotated type, at any depth (l.Int, (*l).Int,
//     x.Lit.Int), or the whole value behind a pointer (*l = ...)
//   - taking the address of such a field (&l.Int), which hands out a handle
//     for a later write
//
// Two shapes cannot reach shared memory and are exempt: the root is a local
// built from a composite literal in its defining statement (l := &T{...};
// l.Int = 1 still constructs), and the target is a field of a local value
// copy reached without any pointer, slice or map indirection (c := *l;
// c.Int = 1 writes the stack copy).
package immutable

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/seqfuzz/lego/internal/analysis"
)

// ImmutableFact marks a named type as immutable after construction.
type ImmutableFact struct{}

// AFact marks ImmutableFact as a fact.
func (*ImmutableFact) AFact() {}

// Analyzer is the immutable analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "immutable",
	Doc:       "fields of types annotated //lego:immutable must not be written after construction",
	Run:       run,
	FactTypes: []analysis.Fact{(*ImmutableFact)(nil)},
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, cache: map[*types.TypeName]bool{}}
	c.exportFacts()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkBody(fd.Body)
			}
		}
	}
	return nil
}

type checker struct {
	pass  *analysis.Pass
	cache map[*types.TypeName]bool
}

// exportFacts attaches an ImmutableFact to every type declared with the
// directive, on the declaration or on its spec inside a type group.
func (c *checker) exportFacts() {
	for _, file := range c.pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if !analysis.HasDirective(ts.Doc, "immutable") &&
					!(len(gd.Specs) == 1 && analysis.HasDirective(gd.Doc, "immutable")) {
					continue
				}
				obj, ok := c.pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				if _, isStruct := obj.Type().Underlying().(*types.Struct); !isStruct {
					c.pass.Reportf(ts.Name.Pos(), "//lego:immutable requires a struct type")
					continue
				}
				c.pass.ExportObjectFact(obj, &ImmutableFact{})
			}
		}
	}
}

// immutable returns the annotated named type t is, or points to, if any.
func (c *checker) immutable(t types.Type) *types.TypeName {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return nil
	}
	obj := n.Obj()
	is, seen := c.cache[obj]
	if !seen {
		is = c.pass.ObjectFact(obj, new(ImmutableFact))
		c.cache[obj] = is
	}
	if !is {
		return nil
	}
	return obj
}

// checkBody walks one function body, literals included, tracking the locals
// built from composite literals.
func (c *checker) checkBody(body *ast.BlockStmt) {
	info := c.pass.TypesInfo
	fresh := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if ok && i < len(n.Rhs) && analysis.IsCompositeConstruction(n.Rhs[i]) {
						if obj := info.Defs[id]; obj != nil {
							fresh[obj] = true
						}
					}
				}
				return true
			}
			for _, lhs := range n.Lhs {
				c.checkTarget(lhs, fresh, "write to")
			}
		case *ast.IncDecStmt:
			c.checkTarget(n.X, fresh, "write to")
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				for _, x := range []ast.Expr{n.Key, n.Value} {
					if x != nil {
						c.checkTarget(x, fresh, "write to")
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isSel := ast.Unparen(n.X).(*ast.SelectorExpr); isSel {
					c.checkTarget(n.X, fresh, "address of")
				}
			}
		}
		return true
	})
}

// checkTarget reports when the location x names lies inside a value of an
// immutable type that may be shared.
func (c *checker) checkTarget(x ast.Expr, fresh map[types.Object]bool, what string) {
	info := c.pass.TypesInfo
	var hit *types.TypeName
	indirect := false // the path from the root crosses a pointer, slice or map
	var root types.Object
	e := x
walk:
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			sel := info.Selections[v]
			if sel == nil || sel.Kind() != types.FieldVal {
				root = info.Uses[v.Sel] // pkg.Var: a package-level root
				break walk
			}
			if obj := c.immutable(info.TypeOf(v.X)); obj != nil {
				hit = obj
			}
			if sel.Indirect() {
				indirect = true
			}
			e = v.X
		case *ast.StarExpr:
			if obj := c.immutable(info.TypeOf(v)); obj != nil {
				hit = obj
			}
			indirect = true
			e = v.X
		case *ast.IndexExpr:
			if _, isArray := info.TypeOf(v.X).Underlying().(*types.Array); !isArray {
				indirect = true
			}
			e = v.X
		case *ast.Ident:
			root = info.Uses[v]
			if root == nil {
				root = info.Defs[v]
			}
			break walk
		default:
			indirect = true // a call result or other computed base
			break walk
		}
	}
	if hit == nil || (root != nil && fresh[root]) {
		return
	}
	if !indirect {
		if v, ok := root.(*types.Var); ok && !v.IsField() && v.Parent() != c.pass.Pkg.Scope() {
			return // a field of a local value copy
		}
	}
	c.pass.Reportf(x.Pos(), "%s %s: %s.%s is //lego:immutable and shared by clones; build a new %s instead",
		what, analysis.ExprString(c.pass.Fset, x), hit.Pkg().Name(), hit.Name(), hit.Name())
}
