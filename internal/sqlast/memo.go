package sqlast

// Render memoization.
//
// Statement.SQL() is called far more often than statements change: oracle
// recording, checkpointing, instantiation-library dedup, and test-case
// joining all re-render the same unchanged AST. The hot statement kinds
// (the ten types that dominate fuzz corpora) embed sqlMemo and cache their
// first render; SQL() returns the cached text until the memo is cleared.
//
// Staleness is prevented by construction plus a defensive invalidation
// walker:
//
//   - Clone() never copies the memo (clone.go builds field-literal copies),
//     so every clone starts cold. In-place mutation only ever happens on
//     fresh clones (mutate.Mutator) or freshly instantiated cases
//     (instantiate.Fixer), which also call InvalidateSQL explicitly. It
//     writes only the interior nodes a clone owns: the leaves a clone
//     shares with its original (Literal, ColRef, Star; //lego:immutable)
//     are replaced by new nodes, never written, and carry no memo.
//   - InvalidateSQL(s) clears the memo of s and of every nested statement,
//     descending through CTE/EXPLAIN/PREPARE/trigger bodies and through
//     expressions that carry subqueries.
//
// The memo treats "" as absent: no statement renders to the empty string,
// so no sentinel flag is needed and the zero value is a cold memo.

// sqlMemo caches a statement's rendered SQL. The zero value is cold.
type sqlMemo struct {
	memoSQL string
}

// clearMemo drops the cached render.
func (m *sqlMemo) clearMemo() { m.memoSQL = "" }

// memo returns the cached render, computing it on first use.
func (m *sqlMemo) memo(render func() string) string {
	if m.memoSQL == "" {
		m.memoSQL = render()
	}
	return m.memoSQL
}

// SQL implements Statement; the render body lives in the type's render().
func (s *CreateTableStmt) SQL() string { return s.memo(s.render) }

// SQL implements Statement.
func (s *CreateViewStmt) SQL() string { return s.memo(s.render) }

// SQL implements Statement.
func (s *CreateIndexStmt) SQL() string { return s.memo(s.render) }

// SQL implements Statement.
func (s *InsertStmt) SQL() string { return s.memo(s.render) }

// SQL implements Statement.
func (s *UpdateStmt) SQL() string { return s.memo(s.render) }

// SQL implements Statement.
func (s *DeleteStmt) SQL() string { return s.memo(s.render) }

// SQL implements Statement.
func (s *MergeStmt) SQL() string { return s.memo(s.render) }

// SQL implements Statement.
func (s *SelectStmt) SQL() string { return s.memo(s.render) }

// SQL implements Statement.
func (s *WithStmt) SQL() string { return s.memo(s.render) }

// SQL implements Statement.
func (s *ExplainStmt) SQL() string { return s.memo(s.render) }

// memoized is satisfied by every statement type embedding sqlMemo.
type memoized interface {
	clearMemo()
}

// InvalidateSQL clears the cached render of s and of every statement nested
// inside it (CTE bodies, EXPLAIN/PREPARE targets, trigger and procedure
// bodies, and subqueries reachable through expressions). Call it after
// mutating a statement in place; clones start cold and never need it.
func InvalidateSQL(s Statement) {
	if s == nil {
		return
	}
	if m, ok := s.(memoized); ok {
		m.clearMemo()
	}
	//lego:exhaustive Statement children
	switch v := s.(type) {
	case *SelectStmt:
		invalidateSelectParts(v)
	case *InsertStmt:
		for _, row := range v.Rows {
			invalidateExprs(row)
		}
		invalidateSelect(v.Query)
		invalidateExprs(v.Returning)
	case *UpdateStmt:
		invalidateAssignments(v.Sets)
		invalidateExpr(v.Where)
		invalidateOrderItems(v.OrderBy)
		invalidateExpr(v.Limit)
	case *DeleteStmt:
		invalidateExpr(v.Where)
		invalidateOrderItems(v.OrderBy)
		invalidateExpr(v.Limit)
		invalidateExprs(v.Returning)
	case *MergeStmt:
		invalidateExpr(v.On)
		invalidateAssignments(v.MatchedSet)
		invalidateExprs(v.NotMatchedVals)
	case *CreateTableStmt:
		for i := range v.Cols {
			invalidateExpr(v.Cols[i].Default)
			invalidateExpr(v.Cols[i].Check)
		}
		for i := range v.Constraints {
			invalidateExpr(v.Constraints[i].Check)
		}
	case *CreateViewStmt:
		invalidateSelect(v.Query)
	case *WithStmt:
		for i := range v.CTEs {
			InvalidateSQL(v.CTEs[i].Body)
		}
		InvalidateSQL(v.Body)
	case *ExplainStmt:
		InvalidateSQL(v.Stmt)
	case *CreateTriggerStmt:
		InvalidateSQL(v.Body)
	case *CreateProcedureStmt:
		InvalidateSQL(v.Body)
	case *CreateRuleStmt:
		InvalidateSQL(v.Action)
	case *CreateFunctionStmt:
		invalidateExpr(v.Body)
	case *CreateDomainStmt:
		invalidateExpr(v.Check)
	case *AlterTableStmt:
		invalidateExpr(v.Col.Default)
		invalidateExpr(v.Col.Check)
	case *AlterSystemStmt:
		invalidateExpr(v.Value)
	case *SetVarStmt:
		invalidateExpr(v.Value)
	case *PragmaStmt:
		invalidateExpr(v.Value)
	case *CopyStmt:
		invalidateSelect(v.Query)
	case *PrepareStmt:
		InvalidateSQL(v.Stmt)
	case *ExecuteStmt:
		invalidateExprs(v.Args)
	case *CallStmt:
		invalidateExprs(v.Args)
	case *DoStmt:
		invalidateExpr(v.Body)
	case *DeclareCursorStmt:
		invalidateSelect(v.Query)
	case *ValuesStmtNode:
		for _, row := range v.Rows {
			invalidateExprs(row)
		}
	}
}

// InvalidateTestCase clears the cached renders of every statement in tc.
func InvalidateTestCase(tc TestCase) {
	for _, s := range tc {
		InvalidateSQL(s)
	}
}

func invalidateSelect(q *SelectStmt) {
	if q == nil {
		return
	}
	InvalidateSQL(q)
}

func invalidateSelectParts(v *SelectStmt) {
	for i := range v.Items {
		invalidateExpr(v.Items[i].X)
	}
	for _, f := range v.From {
		invalidateTableRef(f)
	}
	invalidateExpr(v.Where)
	invalidateExprs(v.GroupBy)
	invalidateExpr(v.Having)
	invalidateOrderItems(v.OrderBy)
	invalidateExpr(v.Limit)
	invalidateExpr(v.Offset)
	invalidateSelect(v.Right)
}

func invalidateTableRef(t TableRef) {
	//lego:exhaustive TableRef children
	switch r := t.(type) {
	case *JoinRef:
		invalidateTableRef(r.L)
		invalidateTableRef(r.R)
		invalidateExpr(r.On)
	case *SubqueryRef:
		invalidateSelect(r.Query)
	}
}

// invalidateExpr clears memos of subqueries reachable through e. RewriteExpr
// deliberately stops at subquery boundaries, so the callback re-enters the
// statement walker there.
func invalidateExpr(e Expr) {
	if e == nil {
		return
	}
	WalkExpr(e, func(x Expr) {
		//lego:exhaustive Expr statements
		switch q := x.(type) {
		case *Subquery:
			invalidateSelect(q.Query)
		case *ExistsExpr:
			invalidateSelect(q.Query)
		case *InExpr:
			invalidateSelect(q.Query)
		}
	})
}

func invalidateExprs(xs []Expr) {
	for _, x := range xs {
		invalidateExpr(x)
	}
}

func invalidateOrderItems(os []OrderItem) {
	for i := range os {
		invalidateExpr(os[i].X)
	}
}

func invalidateAssignments(as []Assignment) {
	for i := range as {
		invalidateExpr(as[i].Value)
	}
}
