package sqlast

// Structural deep-clone for every AST node.
//
// Clone replaces the render+reparse round trip that cloning used to take
// (sqlparse.CloneStatementByReparse, now the property-test oracle): cloning is the single hottest operation of the
// fuzz loop (every mutation operator, every library fetch, seed splitting,
// and cross-shard seed adoption clone whole test cases), and re-lexing SQL
// text costs two orders of magnitude more than copying the structs.
//
// Invariants, enforced by property tests in sqlparse:
//   - clone renders byte-identical SQL: s.Clone().SQL() == s.SQL()
//   - leaves are immutable and shared; every other node is copied. The
//     leaf types Literal, ColRef and Star carry //lego:immutable, the
//     legolint analyzer of that name rejects any write through their
//     fields, and their Clone returns the receiver. No other slice, map or
//     node pointer is shared between a statement and its clone, so
//     mutating either side (which only ever writes interior nodes or
//     replaces a leaf by a new one) never changes the other
//   - clones start with a cold render memo (see memo.go), so a
//     clone-then-mutate sequence can never observe a stale cached render
//
// Every node's Clone is hand-written; the Statement/Expr/TableRef
// interfaces require it, so adding a node without a Clone is a compile
// error rather than a silent reparse fallback.

func cloneStrings(ss []string) []string {
	if ss == nil {
		return nil
	}
	out := make([]string, len(ss))
	copy(out, ss)
	return out
}

// cloneExpr is the nil-safe expression clone.
func cloneExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	return e.Clone()
}

func cloneExprs(xs []Expr) []Expr {
	if xs == nil {
		return nil
	}
	out := make([]Expr, len(xs))
	for i, x := range xs {
		out[i] = cloneExpr(x)
	}
	return out
}

func cloneExprRows(rows [][]Expr) [][]Expr {
	if rows == nil {
		return nil
	}
	out := make([][]Expr, len(rows))
	for i, r := range rows {
		out[i] = cloneExprs(r)
	}
	return out
}

func cloneOrderItems(os []OrderItem) []OrderItem {
	if os == nil {
		return nil
	}
	out := make([]OrderItem, len(os))
	for i, o := range os {
		out[i] = OrderItem{X: cloneExpr(o.X), Desc: o.Desc}
	}
	return out
}

func cloneAssignments(as []Assignment) []Assignment {
	if as == nil {
		return nil
	}
	out := make([]Assignment, len(as))
	for i, a := range as {
		out[i] = Assignment{Col: a.Col, Value: cloneExpr(a.Value)}
	}
	return out
}

// cloneSelect is the nil-safe concrete-typed SelectStmt clone used by nodes
// that embed a query.
func cloneSelect(q *SelectStmt) *SelectStmt {
	if q == nil {
		return nil
	}
	return q.Clone().(*SelectStmt)
}

// cloneStmt is the nil-safe statement clone.
func cloneStmt(s Statement) Statement {
	if s == nil {
		return nil
	}
	return s.Clone()
}

// ---------------------------------------------------------------------------
// Expressions

// Clone implements Expr. Literals are immutable, so the clone is the
// receiver itself.
func (l *Literal) Clone() Expr { return l }

// Clone implements Expr. Column references are immutable, so the clone is
// the receiver itself.
func (c *ColRef) Clone() Expr { return c }

// Clone implements Expr. Stars are immutable, so the clone is the receiver
// itself.
func (s *Star) Clone() Expr { return s }

// Clone implements Expr.
func (u *Unary) Clone() Expr {
	return &Unary{Op: u.Op, X: cloneExpr(u.X)}
}

// Clone implements Expr.
func (b *Binary) Clone() Expr {
	return &Binary{Op: b.Op, L: cloneExpr(b.L), R: cloneExpr(b.R)}
}

// Clone deep-copies the window body.
func (w *WindowSpec) Clone() *WindowSpec {
	if w == nil {
		return nil
	}
	return &WindowSpec{
		PartitionBy: cloneExprs(w.PartitionBy),
		OrderBy:     cloneOrderItems(w.OrderBy),
	}
}

// Clone implements Expr.
func (f *FuncCall) Clone() Expr {
	return &FuncCall{
		Name:     f.Name,
		Args:     cloneExprs(f.Args),
		Star:     f.Star,
		Distinct: f.Distinct,
		Over:     f.Over.Clone(),
	}
}

// Clone implements Expr.
func (c *CaseExpr) Clone() Expr {
	var whens []CaseWhen
	if c.Whens != nil {
		whens = make([]CaseWhen, len(c.Whens))
		for i, w := range c.Whens {
			whens[i] = CaseWhen{Cond: cloneExpr(w.Cond), Result: cloneExpr(w.Result)}
		}
	}
	return &CaseExpr{Operand: cloneExpr(c.Operand), Whens: whens, Else: cloneExpr(c.Else)}
}

// Clone implements Expr.
func (e *InExpr) Clone() Expr {
	return &InExpr{X: cloneExpr(e.X), Not: e.Not, List: cloneExprs(e.List), Query: cloneSelect(e.Query)}
}

// Clone implements Expr.
func (e *BetweenExpr) Clone() Expr {
	return &BetweenExpr{X: cloneExpr(e.X), Not: e.Not, Lo: cloneExpr(e.Lo), Hi: cloneExpr(e.Hi)}
}

// Clone implements Expr.
func (e *LikeExpr) Clone() Expr {
	return &LikeExpr{X: cloneExpr(e.X), Not: e.Not, Pattern: cloneExpr(e.Pattern)}
}

// Clone implements Expr.
func (e *IsNullExpr) Clone() Expr {
	return &IsNullExpr{X: cloneExpr(e.X), Not: e.Not}
}

// Clone implements Expr.
func (e *CastExpr) Clone() Expr {
	return &CastExpr{X: cloneExpr(e.X), TypeName: e.TypeName}
}

// Clone implements Expr.
func (e *Subquery) Clone() Expr {
	return &Subquery{Query: cloneSelect(e.Query)}
}

// Clone implements Expr.
func (e *ExistsExpr) Clone() Expr {
	return &ExistsExpr{Not: e.Not, Query: cloneSelect(e.Query)}
}

// ---------------------------------------------------------------------------
// Table references

// Clone implements TableRef.
func (t *BaseTable) Clone() TableRef {
	c := *t
	return &c
}

// Clone implements TableRef.
func (t *JoinRef) Clone() TableRef {
	return &JoinRef{Kind: t.Kind, L: t.L.Clone(), R: t.R.Clone(), On: cloneExpr(t.On)}
}

// Clone implements TableRef.
func (t *SubqueryRef) Clone() TableRef {
	return &SubqueryRef{Query: cloneSelect(t.Query), Alias: t.Alias}
}

// ---------------------------------------------------------------------------
// DDL statement components

// Clone deep-copies the FK reference.
func (r *FKRef) Clone() *FKRef {
	if r == nil {
		return nil
	}
	c := *r
	return &c
}

// Clone deep-copies the column definition.
func (c ColumnDef) Clone() ColumnDef {
	return ColumnDef{
		Name:       c.Name,
		TypeName:   c.TypeName,
		NotNull:    c.NotNull,
		PrimaryKey: c.PrimaryKey,
		Unique:     c.Unique,
		Default:    cloneExpr(c.Default),
		Check:      cloneExpr(c.Check),
		References: c.References.Clone(),
	}
}

func cloneColumnDefs(cs []ColumnDef) []ColumnDef {
	if cs == nil {
		return nil
	}
	out := make([]ColumnDef, len(cs))
	for i, c := range cs {
		out[i] = c.Clone()
	}
	return out
}

// Clone deep-copies the table constraint.
func (t TableConstraint) Clone() TableConstraint {
	return TableConstraint{
		Kind:    t.Kind,
		Columns: cloneStrings(t.Columns),
		Check:   cloneExpr(t.Check),
		RefTab:  t.RefTab,
		RefCols: cloneStrings(t.RefCols),
	}
}

// ---------------------------------------------------------------------------
// DDL statements

// Clone implements Statement.
func (s *CreateTableStmt) Clone() Statement {
	var cons []TableConstraint
	if s.Constraints != nil {
		cons = make([]TableConstraint, len(s.Constraints))
		for i, c := range s.Constraints {
			cons[i] = c.Clone()
		}
	}
	return &CreateTableStmt{
		Name:        s.Name,
		Temp:        s.Temp,
		IfNotExists: s.IfNotExists,
		Cols:        cloneColumnDefs(s.Cols),
		Constraints: cons,
	}
}

// Clone implements Statement.
func (s *CreateViewStmt) Clone() Statement {
	return &CreateViewStmt{
		Name:         s.Name,
		OrReplace:    s.OrReplace,
		Materialized: s.Materialized,
		Cols:         cloneStrings(s.Cols),
		Query:        cloneSelect(s.Query),
	}
}

// Clone implements Statement.
func (s *CreateIndexStmt) Clone() Statement {
	return &CreateIndexStmt{Name: s.Name, Unique: s.Unique, Table: s.Table, Cols: cloneStrings(s.Cols)}
}

// Clone implements Statement.
func (s *CreateTriggerStmt) Clone() Statement {
	return &CreateTriggerStmt{Name: s.Name, Time: s.Time, Event: s.Event, Table: s.Table, Body: cloneStmt(s.Body)}
}

// Clone implements Statement.
func (s *CreateSequenceStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *CreateSchemaStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *CreateFunctionStmt) Clone() Statement {
	return &CreateFunctionStmt{
		Name:    s.Name,
		Params:  cloneStrings(s.Params),
		Returns: s.Returns,
		Body:    cloneExpr(s.Body),
	}
}

// Clone implements Statement.
func (s *CreateProcedureStmt) Clone() Statement {
	return &CreateProcedureStmt{Name: s.Name, Body: cloneStmt(s.Body)}
}

// Clone implements Statement.
func (s *CreateRuleStmt) Clone() Statement {
	return &CreateRuleStmt{
		Name:      s.Name,
		OrReplace: s.OrReplace,
		Event:     s.Event,
		Table:     s.Table,
		Instead:   s.Instead,
		Action:    cloneStmt(s.Action),
	}
}

// Clone implements Statement.
func (s *CreateDomainStmt) Clone() Statement {
	return &CreateDomainStmt{Name: s.Name, Base: s.Base, Check: cloneExpr(s.Check)}
}

// Clone implements Statement.
func (s *CreateTypeStmt) Clone() Statement {
	return &CreateTypeStmt{Name: s.Name, Values: cloneStrings(s.Values)}
}

// Clone implements Statement.
func (s *CreateExtensionStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *CreateRoleStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *CreateDatabaseStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *AlterTableStmt) Clone() Statement {
	return &AlterTableStmt{
		Table:   s.Table,
		Action:  s.Action,
		Col:     s.Col.Clone(),
		OldName: s.OldName,
		NewName: s.NewName,
	}
}

// Clone implements Statement.
func (s *AlterSimpleStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *AlterSystemStmt) Clone() Statement {
	return &AlterSystemStmt{Setting: s.Setting, Value: cloneExpr(s.Value)}
}

// Clone implements Statement.
func (s *DropStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *RenameTableStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *TruncateStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *CommentOnStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *ReindexStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *RefreshMatViewStmt) Clone() Statement {
	c := *s
	return &c
}

// ---------------------------------------------------------------------------
// DML / DQL statements

// Clone implements Statement.
func (s *InsertStmt) Clone() Statement {
	return &InsertStmt{
		Table:               s.Table,
		Cols:                cloneStrings(s.Cols),
		Rows:                cloneExprRows(s.Rows),
		Query:               cloneSelect(s.Query),
		IsReplace:           s.IsReplace,
		Ignore:              s.Ignore,
		Returning:           cloneExprs(s.Returning),
		OnConflictDoNothing: s.OnConflictDoNothing,
	}
}

// Clone implements Statement.
func (s *UpdateStmt) Clone() Statement {
	return &UpdateStmt{
		Table:   s.Table,
		Sets:    cloneAssignments(s.Sets),
		Where:   cloneExpr(s.Where),
		OrderBy: cloneOrderItems(s.OrderBy),
		Limit:   cloneExpr(s.Limit),
	}
}

// Clone implements Statement.
func (s *DeleteStmt) Clone() Statement {
	return &DeleteStmt{
		Table:     s.Table,
		Where:     cloneExpr(s.Where),
		OrderBy:   cloneOrderItems(s.OrderBy),
		Limit:     cloneExpr(s.Limit),
		Returning: cloneExprs(s.Returning),
	}
}

// Clone implements Statement.
func (s *MergeStmt) Clone() Statement {
	return &MergeStmt{
		Target:         s.Target,
		Source:         s.Source,
		On:             cloneExpr(s.On),
		MatchedSet:     cloneAssignments(s.MatchedSet),
		NotMatchedVals: cloneExprs(s.NotMatchedVals),
	}
}

// Clone implements Statement.
func (s *CopyStmt) Clone() Statement {
	return &CopyStmt{Table: s.Table, Query: cloneSelect(s.Query), From: s.From, CSV: s.CSV, Data: s.Data}
}

// Clone implements Statement.
func (s *LoadDataStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *CallStmt) Clone() Statement {
	return &CallStmt{Name: s.Name, Args: cloneExprs(s.Args)}
}

// Clone implements Statement.
func (s *DoStmt) Clone() Statement {
	return &DoStmt{Body: cloneExpr(s.Body)}
}

// Clone implements Statement.
func (s *SelectStmt) Clone() Statement {
	var items []SelectItem
	if s.Items != nil {
		items = make([]SelectItem, len(s.Items))
		for i, it := range s.Items {
			items[i] = SelectItem{X: cloneExpr(it.X), Alias: it.Alias}
		}
	}
	var from []TableRef
	if s.From != nil {
		from = make([]TableRef, len(s.From))
		for i, f := range s.From {
			from[i] = f.Clone()
		}
	}
	return &SelectStmt{
		Distinct: s.Distinct,
		Items:    items,
		Into:     s.Into,
		From:     from,
		Where:    cloneExpr(s.Where),
		GroupBy:  cloneExprs(s.GroupBy),
		Having:   cloneExpr(s.Having),
		OrderBy:  cloneOrderItems(s.OrderBy),
		Limit:    cloneExpr(s.Limit),
		Offset:   cloneExpr(s.Offset),
		Op:       s.Op,
		Right:    cloneSelect(s.Right),
	}
}

// Clone implements Statement.
func (s *TableStmtNode) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *ValuesStmtNode) Clone() Statement {
	return &ValuesStmtNode{Rows: cloneExprRows(s.Rows)}
}

// Clone implements Statement.
func (s *WithStmt) Clone() Statement {
	var ctes []CTE
	if s.CTEs != nil {
		ctes = make([]CTE, len(s.CTEs))
		for i, c := range s.CTEs {
			ctes[i] = CTE{Name: c.Name, Cols: cloneStrings(c.Cols), Body: cloneStmt(c.Body)}
		}
	}
	return &WithStmt{CTEs: ctes, Body: cloneStmt(s.Body)}
}

// Clone implements Statement.
func (s *ExplainStmt) Clone() Statement {
	return &ExplainStmt{Analyze: s.Analyze, Stmt: cloneStmt(s.Stmt)}
}

// Clone implements Statement.
func (s *ShowStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *DescribeStmt) Clone() Statement {
	c := *s
	return &c
}

// ---------------------------------------------------------------------------
// DCL / TCL / session statements

// Clone implements Statement.
func (s *GrantStmt) Clone() Statement {
	return &GrantStmt{Revoke: s.Revoke, Privs: cloneStrings(s.Privs), Table: s.Table, Role: s.Role}
}

// Clone implements Statement.
func (s *SetRoleStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *TxnStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *SetTransactionStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *LockTableStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *SetVarStmt) Clone() Statement {
	return &SetVarStmt{Global: s.Global, Name: s.Name, Value: cloneExpr(s.Value)}
}

// Clone implements Statement.
func (s *ResetVarStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *PragmaStmt) Clone() Statement {
	return &PragmaStmt{Name: s.Name, Value: cloneExpr(s.Value)}
}

// Clone implements Statement.
func (s *UseStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *AnalyzeStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *VacuumStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *MaintenanceStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *FlushStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *CheckpointStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *DiscardStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *PrepareStmt) Clone() Statement {
	return &PrepareStmt{Name: s.Name, Stmt: cloneStmt(s.Stmt)}
}

// Clone implements Statement.
func (s *ExecuteStmt) Clone() Statement {
	return &ExecuteStmt{Name: s.Name, Args: cloneExprs(s.Args)}
}

// Clone implements Statement.
func (s *DeallocateStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *DeclareCursorStmt) Clone() Statement {
	return &DeclareCursorStmt{Name: s.Name, Query: cloneSelect(s.Query)}
}

// Clone implements Statement.
func (s *FetchStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *CloseCursorStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *ListenStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *NotifyStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *UnlistenStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone implements Statement.
func (s *ClusterStmt) Clone() Statement {
	c := *s
	return &c
}

// Clone deep-copies the whole test case.
func (tc TestCase) Clone() TestCase {
	if tc == nil {
		return nil
	}
	out := make(TestCase, len(tc))
	for i, s := range tc {
		out[i] = s.Clone()
	}
	return out
}
