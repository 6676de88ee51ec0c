// Package memoinvalidate guards the render-memoization contract from PR 6:
// a write through a field of an sqlast node outside the AST-owning packages
// must be paired with a call to sqlast.InvalidateSQL (or InvalidateTestCase)
// on some call path that reaches the write, or the node — or a memoized
// ancestor holding it — keeps serving stale cached SQL.
//
// The sqlast package exports a MemoNodeFact for every node type (Memoized
// marks the ten types embedding sqlMemo; the rest matter because a mutation
// below a memoized ancestor stales the ancestor). Downstream packages are
// then checked:
//
//   - sqlast and sqlparse are exempt wholesale: constructors and parsers
//     assemble fresh nodes whose memo is cold by construction.
//   - A write whose root identifier is a local built from a composite
//     literal in its defining statement (x := &T{...}) is exempt for the
//     same reason.
//   - Every other node-field write must be *covered*: the containing
//     function's strongly connected component in the intra-package call
//     graph either calls an invalidator directly, or is reachable only
//     from covered components. References to a function as a value (e.g.
//     a RewriteExpr callback) count as calls, conservatively. A component
//     containing an exported function must invalidate directly — external
//     callers are invisible to the intra-package graph.
//
// This validates the shapes the repo actually uses: mutate.MutateValues and
// instantiate.Fixer.Fix invalidate at the loop head, covering the private
// mutation helpers below them.
package memoinvalidate

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/seqfuzz/lego/internal/analysis"
)

// MemoNodeFact marks one sqlast type as an AST node; Memoized marks the
// subset that caches its render.
type MemoNodeFact struct {
	Memoized bool `json:"memoized,omitempty"`
}

// AFact marks MemoNodeFact as a fact.
func (*MemoNodeFact) AFact() {}

// Analyzer is the memoinvalidate analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "memoinvalidate",
	Doc:       "in-place sqlast node mutations must have sqlast.InvalidateSQL on a call path",
	Run:       run,
	FactTypes: []analysis.Fact{(*MemoNodeFact)(nil)},
}

// exemptPkgs own node construction; their field writes are the constructors.
var exemptPkgs = map[string]bool{"sqlast": true, "sqlparse": true}

func run(pass *analysis.Pass) error {
	base := analysis.PkgBase(pass.Pkg.Path())
	if base == "sqlast" {
		exportNodeFacts(pass)
		return nil
	}
	if exemptPkgs[base] {
		return nil
	}

	// Find the imported sqlast package and its node inventory.
	var astPkg *types.Package
	for _, imp := range pass.Pkg.Imports() {
		if analysis.PkgBase(imp.Path()) == "sqlast" {
			astPkg = imp
			break
		}
	}
	if astPkg == nil {
		return nil // no sqlast in sight, nothing to mutate
	}
	nodes := map[string]bool{}
	for _, kf := range pass.PkgObjectFacts(astPkg.Path()) {
		if _, ok := kf.Fact.(*MemoNodeFact); ok {
			nodes[kf.Key.Object] = true
		}
	}
	if len(nodes) == 0 {
		return nil
	}

	g := buildGraph(pass, astPkg, nodes)
	covered := g.coverage()
	for _, fn := range g.order {
		fi := g.funcs[fn]
		if covered[fi.scc] {
			continue
		}
		for _, m := range fi.mutations {
			pass.Reportf(m.pos, "write to sqlast node field %s may serve stale memoized SQL: no sqlast.InvalidateSQL/InvalidateTestCase on any call path into %s", m.expr, fn.Name())
		}
	}
	return nil
}

// exportNodeFacts runs in sqlast itself: one MemoNodeFact per node type.
func exportNodeFacts(pass *analysis.Pass) {
	scope := pass.Pkg.Scope()
	ifaces := make([]*types.Interface, 0, 3)
	for _, name := range []string{"Statement", "Expr", "TableRef"} {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, iface)
			}
		}
	}
	var memoized *types.Interface
	if tn, ok := scope.Lookup("memoized").(*types.TypeName); ok {
		memoized, _ = tn.Type().Underlying().(*types.Interface)
	}
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
			continue
		}
		isNode := false
		for _, iface := range ifaces {
			if types.Implements(tn.Type(), iface) || types.Implements(types.NewPointer(tn.Type()), iface) {
				isNode = true
				break
			}
		}
		if !isNode {
			continue
		}
		fact := &MemoNodeFact{}
		if memoized != nil && types.Implements(types.NewPointer(tn.Type()), memoized) {
			fact.Memoized = true
		}
		pass.ExportObjectFact(tn, fact)
	}
}

// mutation is one node-field write awaiting coverage.
type mutation struct {
	pos  token.Pos
	expr string
}

// funcInfo is one declared function in the call graph.
type funcInfo struct {
	decl      *ast.FuncDecl
	callees   []*types.Func // package-local functions called or referenced
	direct    bool          // calls an invalidator directly
	exported  bool
	mutations []mutation
	scc       int
}

type graph struct {
	pass   *analysis.Pass
	astPkg *types.Package
	nodes  map[string]bool
	funcs  map[*types.Func]*funcInfo
	order  []*types.Func // declaration order, for deterministic reports
}

func buildGraph(pass *analysis.Pass, astPkg *types.Package, nodes map[string]bool) *graph {
	g := &graph{pass: pass, astPkg: astPkg, nodes: nodes, funcs: map[*types.Func]*funcInfo{}}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{decl: fd, exported: fd.Name.IsExported()}
			g.funcs[fn] = fi
			g.order = append(g.order, fn)
		}
	}
	for fn, fi := range g.funcs {
		g.scan(fn, fi)
	}
	g.condense()
	return g
}

// scan walks one function body, recording local-package calls/references,
// direct invalidator calls, locally constructed roots, and node mutations.
func (g *graph) scan(fn *types.Func, fi *funcInfo) {
	info := g.pass.TypesInfo
	fresh := map[types.Object]bool{} // locals whose defining RHS is a composite literal
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || i >= len(n.Rhs) {
						continue
					}
					if analysis.IsCompositeConstruction(n.Rhs[i]) {
						if obj := info.Defs[id]; obj != nil {
							fresh[obj] = true
						}
					}
				}
			}
			for _, lhs := range n.Lhs {
				g.checkWrite(fi, lhs, fresh)
			}
		case *ast.IncDecStmt:
			g.checkWrite(fi, n.X, fresh)
		case *ast.Ident:
			if callee, ok := info.Uses[n].(*types.Func); ok {
				if _, local := g.funcs[callee]; local {
					fi.callees = append(fi.callees, callee)
				}
			}
		case *ast.SelectorExpr:
			if callee, ok := info.Uses[n.Sel].(*types.Func); ok {
				if _, local := g.funcs[callee]; local {
					fi.callees = append(fi.callees, callee)
				}
				if callee.Pkg() != nil && callee.Pkg().Path() == g.astPkg.Path() &&
					(callee.Name() == "InvalidateSQL" || callee.Name() == "InvalidateTestCase") {
					fi.direct = true
				}
			}
		}
		return true
	})
}

// checkWrite records a mutation when the LHS writes through a field whose
// base is an sqlast node type and the write can alias a node the caller
// holds. Two shapes are safe by construction and exempt:
//
//   - the root is a local freshly built from a composite literal in its
//     defining statement (memo cold, nothing else aliases it yet)
//   - every node-typed base in the selector chain is a plain struct value
//     and the root is a local: `plain := *fc; plain.Over = nil` mutates a
//     stack copy, not the shared AST
func (g *graph) checkWrite(fi *funcInfo, lhs ast.Expr, fresh map[types.Object]bool) {
	info := g.pass.TypesInfo
	throughNodePtr := false   // a node reached through a pointer: aliases the AST
	throughNodeValue := false // a node base held by value: a copy
	e := lhs
	var root *ast.Ident
walk:
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			// Only field selections can be assignment bases, so any
			// selector step off a node type here is a field write.
			if t := info.Types[x.X].Type; t != nil && g.isNodeType(t) {
				if _, ptr := t.(*types.Pointer); ptr {
					throughNodePtr = true
				} else {
					throughNodeValue = true
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			// Explicit deref: the target lives behind a pointer.
			if t := info.Types[x.X].Type; t != nil && g.isNodeType(t) {
				throughNodePtr = true
			}
			e = x.X
		case *ast.Ident:
			root = x
			break walk
		default:
			break walk
		}
	}
	if !throughNodePtr && !throughNodeValue {
		return
	}
	var rootObj types.Object
	if root != nil {
		rootObj = info.Uses[root]
		if rootObj == nil {
			rootObj = info.Defs[root]
		}
	}
	if rootObj != nil && fresh[rootObj] {
		return
	}
	if !throughNodePtr && rootObj != nil {
		if v, ok := rootObj.(*types.Var); ok && !v.IsField() && v.Parent() != g.pass.Pkg.Scope() {
			return // value-typed local copy
		}
	}
	fi.mutations = append(fi.mutations, mutation{pos: lhs.Pos(), expr: analysis.ExprString(g.pass.Fset, lhs)})
}

// isNodeType reports whether t (after pointer deref) is a named sqlast node.
func (g *graph) isNodeType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == g.astPkg.Path() && g.nodes[obj.Name()]
}

// condense assigns SCC ids (Tarjan) over the call graph.
func (g *graph) condense() {
	index := map[*types.Func]int{}
	low := map[*types.Func]int{}
	onStack := map[*types.Func]bool{}
	var stack []*types.Func
	next, nscc := 0, 0
	var strongconnect func(fn *types.Func)
	strongconnect = func(fn *types.Func) {
		index[fn] = next
		low[fn] = next
		next++
		stack = append(stack, fn)
		onStack[fn] = true
		for _, callee := range g.funcs[fn].callees {
			if _, seen := index[callee]; !seen {
				strongconnect(callee)
				if low[callee] < low[fn] {
					low[fn] = low[callee]
				}
			} else if onStack[callee] && index[callee] < low[fn] {
				low[fn] = index[callee]
			}
		}
		if low[fn] == index[fn] {
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				g.funcs[top].scc = nscc
				if top == fn {
					break
				}
			}
			nscc++
		}
	}
	for _, fn := range g.order {
		if _, seen := index[fn]; !seen {
			strongconnect(fn)
		}
	}
}

// coverage computes which SCCs are invalidation-covered: a component that
// invalidates directly, or one whose every caller component is covered (and
// that has at least one caller, and no exported entry point).
func (g *graph) coverage() map[int]bool {
	direct := map[int]bool{}
	exported := map[int]bool{}
	callers := map[int]map[int]bool{}
	sccs := map[int]bool{}
	for fn, fi := range g.funcs {
		sccs[fi.scc] = true
		if fi.direct {
			direct[fi.scc] = true
		}
		if fi.exported {
			exported[fi.scc] = true
		}
		for _, callee := range fi.callees {
			cs := g.funcs[callee].scc
			if cs == fi.scc {
				continue
			}
			if callers[cs] == nil {
				callers[cs] = map[int]bool{}
			}
			callers[cs][g.funcs[fn].scc] = true
		}
	}
	covered := map[int]bool{}
	for scc := range sccs {
		covered[scc] = direct[scc]
	}
	// Propagate down the condensation DAG to a fixpoint; the graph is tiny
	// (one package), so iterate until stable.
	for changed := true; changed; {
		changed = false
		for scc := range sccs {
			if covered[scc] || direct[scc] || exported[scc] {
				continue
			}
			cs := callers[scc]
			if len(cs) == 0 {
				continue
			}
			all := true
			for c := range cs {
				if !covered[c] {
					all = false
					break
				}
			}
			if all {
				covered[scc] = true
				changed = true
			}
		}
	}
	return covered
}
