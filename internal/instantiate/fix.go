package instantiate

import (
	"math/rand"
	"sort"
	"strconv"

	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// Fixer repairs cross-statement dependencies in a test case: it walks the
// statements in order, simulating the schema they build, and rewrites
// dangling object references (tables, columns, indexes, prepared statements,
// cursors, ...) to objects that exist at that point. This is the
// "validation" step of paper §III-B: "the dependencies between different
// data are analyzed, and the AST will be filled with concrete values that
// satisfy all dependencies."
//
// The fix is best-effort by design: a fraction of semantic errors is useful
// to fuzzing (error-handling paths are code too), so unresolvable
// references are left in place rather than deleted.
//
// A Fixer keeps one simulated schema and empties it in place at the start
// of every Fix, so a Fixer must not be shared between goroutines. Each
// Instantiator owns one, and each campaign (or shard) owns its Instantiator.
type Fixer struct {
	Rng *rand.Rand
	sch *simSchema
}

// NewFixer returns a fixer.
func NewFixer(rng *rand.Rand) *Fixer { return &Fixer{Rng: rng, sch: newSimSchema()} }

// simSchema is the simulated catalog built while walking the test case.
type simSchema struct {
	tables  map[string][]string // table -> columns
	names   []string            // tableNames' reused buffer
	views   []string
	indexes []string
	trigs   []string
	seqs    []string
	funcs   []string
	procs   []string
	rules   []string
	roles   []string
	preps   []string
	cursors []string
	saves   []string
	fresh   int
}

func newSimSchema() *simSchema {
	return &simSchema{tables: map[string][]string{}}
}

// reset empties the schema in place, keeping the map's buckets and the
// slices' backing arrays for the next test case.
func (s *simSchema) reset() {
	clear(s.tables)
	s.views = s.views[:0]
	s.indexes = s.indexes[:0]
	s.trigs = s.trigs[:0]
	s.seqs = s.seqs[:0]
	s.funcs = s.funcs[:0]
	s.procs = s.procs[:0]
	s.rules = s.rules[:0]
	s.roles = s.roles[:0]
	s.preps = s.preps[:0]
	s.cursors = s.cursors[:0]
	s.saves = s.saves[:0]
	s.fresh = 0
}

// tableNames returns the simulated tables in sorted order. The slice is a
// reused buffer, valid until the next call.
func (s *simSchema) tableNames() []string {
	out := s.names[:0]
	for n := range s.tables {
		out = append(out, n)
	}
	// deterministic order for a given rng seed
	sort.Strings(out)
	s.names = out
	return out
}

func (s *simSchema) freshName(prefix string) string {
	s.fresh++
	return prefix + "_" + strconv.Itoa(s.fresh)
}

func pickStr(rng *rand.Rand, ss []string) string {
	if len(ss) == 0 {
		return ""
	}
	return ss[rng.Intn(len(ss))]
}

func hasStr(ss []string, v string) bool {
	for _, s := range ss {
		if s == v {
			return true
		}
	}
	return false
}

func dropStr(ss []string, v string) []string {
	out := ss[:0]
	for _, s := range ss {
		if s != v {
			out = append(out, s)
		}
	}
	return out
}

// Fix repairs the test case in place.
func (f *Fixer) Fix(tc sqlast.TestCase) {
	sch := f.sch
	sch.reset()
	for _, stmt := range tc {
		f.fixStmt(stmt, sch)
		// fixStmt rewrites names and expressions in place; drop any render
		// cached before the repair.
		sqlast.InvalidateSQL(stmt)
	}
}

// pickTable returns an existing table (preferring tables, falling back to
// views), or "" when none exist.
func (f *Fixer) pickTable(sch *simSchema) string {
	names := sch.tableNames()
	if len(names) > 0 {
		return names[f.Rng.Intn(len(names))]
	}
	return pickStr(f.Rng, sch.views)
}

// fixTableRefName repairs one table name reference; empty result means no
// table exists to repair to.
func (f *Fixer) fixTableRefName(name string, sch *simSchema, extra []string) string {
	if _, ok := sch.tables[name]; ok {
		return name
	}
	if hasStr(sch.views, name) || hasStr(extra, name) {
		return name
	}
	if t := f.pickTable(sch); t != "" {
		return t
	}
	return name
}

// colsOf returns the simulated columns of a table ("" yields nil).
func (sch *simSchema) colsOf(name string) []string { return sch.tables[name] }

// fixExprCols rewrites column references not in allowed to random allowed
// columns, recursing into scalar subqueries.
func (f *Fixer) fixExprCols(x sqlast.Expr, allowed []string, sch *simSchema, ctes []string) sqlast.Expr {
	if x == nil {
		return nil
	}
	return sqlast.RewriteExpr(x, func(n sqlast.Expr) sqlast.Expr {
		switch v := n.(type) {
		case *sqlast.ColRef:
			if v.Name == "VALUE" { // domain pseudo-column
				return v
			}
			if hasStr(allowed, v.Name) {
				return v
			}
			if len(allowed) > 0 {
				return &sqlast.ColRef{Name: allowed[f.Rng.Intn(len(allowed))]}
			}
			return v
		case *sqlast.Subquery:
			f.fixSelect(v.Query, sch, ctes)
		case *sqlast.ExistsExpr:
			f.fixSelect(v.Query, sch, ctes)
		case *sqlast.InExpr:
			if v.Query != nil {
				f.fixSelect(v.Query, sch, ctes)
			}
		}
		return n
	})
}

// fixSelect repairs a query in place: FROM references first, then column
// references against the union of referenced tables' columns.
func (f *Fixer) fixSelect(q *sqlast.SelectStmt, sch *simSchema, ctes []string) []string {
	if q == nil {
		return nil
	}
	var allowed []string
	var fixRef func(r sqlast.TableRef) sqlast.TableRef
	fixRef = func(r sqlast.TableRef) sqlast.TableRef {
		switch v := r.(type) {
		case *sqlast.BaseTable:
			v.Name = f.fixTableRefName(v.Name, sch, ctes)
			allowed = append(allowed, sch.colsOf(v.Name)...)
		case *sqlast.JoinRef:
			v.L = fixRef(v.L)
			v.R = fixRef(v.R)
		case *sqlast.SubqueryRef:
			inner := f.fixSelect(v.Query, sch, ctes)
			allowed = append(allowed, inner...)
		}
		return r
	}
	for i := range q.From {
		q.From[i] = fixRef(q.From[i])
	}
	// join ON conditions may reference alias-qualified columns; fix after
	// collecting allowed columns
	var fixOn func(r sqlast.TableRef)
	fixOn = func(r sqlast.TableRef) {
		if j, ok := r.(*sqlast.JoinRef); ok {
			fixOn(j.L)
			fixOn(j.R)
			if j.On != nil {
				j.On = f.fixQualifiedCols(j.On, allowed, sch, ctes)
			}
		}
	}
	for _, r := range q.From {
		fixOn(r)
	}

	for i := range q.Items {
		if _, isStar := q.Items[i].X.(*sqlast.Star); isStar {
			continue
		}
		q.Items[i].X = f.fixExprCols(q.Items[i].X, allowed, sch, ctes)
	}
	q.Where = f.fixExprCols(q.Where, allowed, sch, ctes)
	for i := range q.GroupBy {
		q.GroupBy[i] = f.fixExprCols(q.GroupBy[i], allowed, sch, ctes)
	}
	q.Having = f.fixExprCols(q.Having, allowed, sch, ctes)
	for i := range q.OrderBy {
		q.OrderBy[i].X = f.fixExprCols(q.OrderBy[i].X, allowed, sch, ctes)
	}
	if q.Right != nil {
		f.fixSelect(q.Right, sch, ctes)
	}
	// result columns: projection names (approximate: allowed columns)
	return allowed
}

// fixQualifiedCols keeps valid alias-qualified refs and repairs the rest.
func (f *Fixer) fixQualifiedCols(x sqlast.Expr, allowed []string, sch *simSchema, ctes []string) sqlast.Expr {
	return sqlast.RewriteExpr(x, func(n sqlast.Expr) sqlast.Expr {
		if v, ok := n.(*sqlast.ColRef); ok {
			if hasStr(allowed, v.Name) {
				return v
			}
			if len(allowed) > 0 {
				return &sqlast.ColRef{Table: v.Table, Name: allowed[f.Rng.Intn(len(allowed))]}
			}
		}
		return n
	})
}

func (f *Fixer) fixStmt(stmt sqlast.Statement, sch *simSchema) {
	switch st := stmt.(type) {
	case *sqlast.CreateTableStmt:
		if _, exists := sch.tables[st.Name]; exists && !st.IfNotExists {
			st.Name = sch.freshName("t")
		}
		cols := make([]string, 0, len(st.Cols))
		for i := range st.Cols {
			cols = append(cols, st.Cols[i].Name)
			if st.Cols[i].References != nil {
				ref := f.pickTable(sch)
				if ref == "" {
					st.Cols[i].References = nil
				} else {
					st.Cols[i].References.Table = ref
					refCols := sch.colsOf(ref)
					if len(refCols) > 0 {
						st.Cols[i].References.Column = refCols[0]
					} else {
						st.Cols[i].References.Column = ""
					}
				}
			}
			if st.Cols[i].Check != nil {
				st.Cols[i].Check = f.fixExprCols(st.Cols[i].Check, cols, sch, nil)
			}
		}
		for i := range st.Constraints {
			c := &st.Constraints[i]
			for j := range c.Columns {
				if !hasStr(cols, c.Columns[j]) {
					c.Columns[j] = cols[f.Rng.Intn(len(cols))]
				}
			}
			if c.Check != nil {
				c.Check = f.fixExprCols(c.Check, cols, sch, nil)
			}
			if c.Kind == "FOREIGN KEY" {
				if ref := f.pickTable(sch); ref != "" {
					c.RefTab = ref
					c.RefCols = nil
				} else {
					c.RefTab = st.Name
					c.RefCols = nil
				}
			}
		}
		sch.tables[st.Name] = cols

	case *sqlast.CreateViewStmt:
		if hasStr(sch.views, st.Name) && !st.OrReplace {
			st.Name = sch.freshName("w")
		}
		cols := f.fixSelect(st.Query, sch, nil)
		if !hasStr(sch.views, st.Name) {
			sch.views = append(sch.views, st.Name)
		}
		_ = cols

	case *sqlast.CreateIndexStmt:
		if hasStr(sch.indexes, st.Name) {
			st.Name = sch.freshName("i")
		}
		if tbl := f.fixTableRefName(st.Table, sch, nil); tbl != "" {
			st.Table = tbl
		}
		cols := sch.colsOf(st.Table)
		if len(cols) > 0 {
			for i := range st.Cols {
				if !hasStr(cols, st.Cols[i]) {
					st.Cols[i] = cols[f.Rng.Intn(len(cols))]
				}
			}
		}
		sch.indexes = append(sch.indexes, st.Name)

	case *sqlast.CreateTriggerStmt:
		if hasStr(sch.trigs, st.Name) {
			st.Name = sch.freshName("tg")
		}
		st.Table = f.fixTableRefName(st.Table, sch, nil)
		f.fixStmt(st.Body, sch)
		sch.trigs = append(sch.trigs, st.Name)

	case *sqlast.CreateSequenceStmt:
		if hasStr(sch.seqs, st.Name) {
			st.Name = sch.freshName("s")
		}
		sch.seqs = append(sch.seqs, st.Name)

	case *sqlast.CreateFunctionStmt:
		if hasStr(sch.funcs, st.Name) {
			st.Name = sch.freshName("f")
		}
		st.Body = f.fixExprCols(st.Body, st.Params, sch, nil)
		sch.funcs = append(sch.funcs, st.Name)

	case *sqlast.CreateProcedureStmt:
		if hasStr(sch.procs, st.Name) {
			st.Name = sch.freshName("pr")
		}
		f.fixStmt(st.Body, sch)
		sch.procs = append(sch.procs, st.Name)

	case *sqlast.CreateRuleStmt:
		if hasStr(sch.rules, st.Name) && !st.OrReplace {
			st.Name = sch.freshName("r")
		}
		st.Table = f.fixTableRefName(st.Table, sch, nil)
		if st.Action != nil {
			f.fixStmt(st.Action, sch)
		}
		if !hasStr(sch.rules, st.Name) {
			sch.rules = append(sch.rules, st.Name)
		}

	case *sqlast.CreateRoleStmt:
		if hasStr(sch.roles, st.Name) {
			st.Name = sch.freshName("u")
		}
		sch.roles = append(sch.roles, st.Name)

	case *sqlast.AlterTableStmt:
		st.Table = f.fixTableRefName(st.Table, sch, nil)
		cols := sch.colsOf(st.Table)
		switch st.Action {
		case sqlast.AlterAddColumn:
			if hasStr(cols, st.Col.Name) {
				st.Col.Name = sch.freshName("c")
			}
			st.Col.NotNull = false // avoid guaranteed failure on non-empty tables
			if _, exists := sch.tables[st.Table]; exists {
				sch.tables[st.Table] = append(cols, st.Col.Name)
			}
		case sqlast.AlterDropColumn:
			if len(cols) > 1 {
				if !hasStr(cols, st.OldName) {
					st.OldName = cols[f.Rng.Intn(len(cols))]
				}
				sch.tables[st.Table] = dropStr(append([]string{}, cols...), st.OldName)
			}
		case sqlast.AlterRenameColumn:
			if len(cols) > 0 {
				if !hasStr(cols, st.OldName) {
					st.OldName = cols[f.Rng.Intn(len(cols))]
				}
				if hasStr(cols, st.NewName) {
					st.NewName = sch.freshName("c")
				}
				nc := append([]string{}, cols...)
				for i := range nc {
					if nc[i] == st.OldName {
						nc[i] = st.NewName
					}
				}
				sch.tables[st.Table] = nc
			}
		case sqlast.AlterRenameTable:
			if _, exists := sch.tables[st.NewName]; exists {
				st.NewName = sch.freshName("t")
			}
			if c, exists := sch.tables[st.Table]; exists {
				delete(sch.tables, st.Table)
				sch.tables[st.NewName] = c
			}
		case sqlast.AlterColumnType, sqlast.AlterColumnDefault:
			if len(cols) > 0 && !hasStr(cols, st.Col.Name) {
				st.Col.Name = cols[f.Rng.Intn(len(cols))]
			}
		}

	case *sqlast.AlterSimpleStmt:
		switch st.What {
		case sqlt.AlterView:
			if n := pickStr(f.Rng, sch.views); n != "" {
				st.Name = n
			}
			if hasStr(sch.views, st.NewName) {
				st.NewName = sch.freshName("w")
			}
		case sqlt.AlterIndex:
			if n := pickStr(f.Rng, sch.indexes); n != "" {
				st.Name = n
			}
			if hasStr(sch.indexes, st.NewName) {
				st.NewName = sch.freshName("i")
			}
		case sqlt.AlterSequence:
			if n := pickStr(f.Rng, sch.seqs); n != "" {
				st.Name = n
			}
		case sqlt.AlterRole:
			if n := pickStr(f.Rng, sch.roles); n != "" {
				st.Name = n
			}
		}

	case *sqlast.DropStmt:
		switch st.What {
		case sqlt.DropTable:
			names := sch.tableNames()
			if len(names) > 0 {
				if _, exists := sch.tables[st.Name]; !exists {
					st.Name = names[f.Rng.Intn(len(names))]
				}
				delete(sch.tables, st.Name)
			}
		case sqlt.DropView, sqlt.DropMaterializedView:
			if n := pickStr(f.Rng, sch.views); n != "" && !hasStr(sch.views, st.Name) {
				st.Name = n
			}
			sch.views = dropStr(sch.views, st.Name)
		case sqlt.DropIndex:
			if n := pickStr(f.Rng, sch.indexes); n != "" && !hasStr(sch.indexes, st.Name) {
				st.Name = n
			}
			sch.indexes = dropStr(sch.indexes, st.Name)
		case sqlt.DropTrigger:
			if n := pickStr(f.Rng, sch.trigs); n != "" && !hasStr(sch.trigs, st.Name) {
				st.Name = n
			}
			sch.trigs = dropStr(sch.trigs, st.Name)
		case sqlt.DropSequence:
			if n := pickStr(f.Rng, sch.seqs); n != "" && !hasStr(sch.seqs, st.Name) {
				st.Name = n
			}
			sch.seqs = dropStr(sch.seqs, st.Name)
		case sqlt.DropFunction:
			if n := pickStr(f.Rng, sch.funcs); n != "" && !hasStr(sch.funcs, st.Name) {
				st.Name = n
			}
			sch.funcs = dropStr(sch.funcs, st.Name)
		case sqlt.DropProcedure:
			if n := pickStr(f.Rng, sch.procs); n != "" && !hasStr(sch.procs, st.Name) {
				st.Name = n
			}
			sch.procs = dropStr(sch.procs, st.Name)
		case sqlt.DropRule:
			if n := pickStr(f.Rng, sch.rules); n != "" && !hasStr(sch.rules, st.Name) {
				st.Name = n
			}
			sch.rules = dropStr(sch.rules, st.Name)
		case sqlt.DropRole, sqlt.DropUser:
			if n := pickStr(f.Rng, sch.roles); n != "" && !hasStr(sch.roles, st.Name) {
				st.Name = n
			}
			sch.roles = dropStr(sch.roles, st.Name)
		}

	case *sqlast.RenameTableStmt:
		st.From = f.fixTableRefName(st.From, sch, nil)
		if _, exists := sch.tables[st.To]; exists {
			st.To = sch.freshName("t")
		}
		if c, exists := sch.tables[st.From]; exists {
			delete(sch.tables, st.From)
			sch.tables[st.To] = c
		}

	case *sqlast.TruncateStmt:
		st.Table = f.fixTableRefName(st.Table, sch, nil)

	case *sqlast.CommentOnStmt:
		if st.ObjectKind == "TABLE" {
			st.Name = f.fixTableRefName(st.Name, sch, nil)
		}

	case *sqlast.ReindexStmt:
		if st.Kind == "INDEX" {
			if n := pickStr(f.Rng, sch.indexes); n != "" {
				st.Name = n
			}
		} else {
			st.Name = f.fixTableRefName(st.Name, sch, nil)
		}

	case *sqlast.RefreshMatViewStmt:
		if n := pickStr(f.Rng, sch.views); n != "" {
			st.Name = n
		}

	case *sqlast.InsertStmt:
		st.Table = f.fixTableRefName(st.Table, sch, nil)
		cols := sch.colsOf(st.Table)
		if len(cols) > 0 {
			// drop the explicit column list and repair row arity
			st.Cols = nil
			for i := range st.Rows {
				row := st.Rows[i]
				for len(row) < len(cols) {
					row = append(row, sqlast.NullLit())
				}
				if len(row) > len(cols) {
					row = row[:len(cols)]
				}
				st.Rows[i] = row
			}
		}
		if st.Query != nil {
			f.fixSelect(st.Query, sch, nil)
		}
		for i := range st.Returning {
			st.Returning[i] = f.fixExprCols(st.Returning[i], cols, sch, nil)
		}

	case *sqlast.UpdateStmt:
		st.Table = f.fixTableRefName(st.Table, sch, nil)
		cols := sch.colsOf(st.Table)
		if len(cols) > 0 {
			for i := range st.Sets {
				if !hasStr(cols, st.Sets[i].Col) {
					st.Sets[i].Col = cols[f.Rng.Intn(len(cols))]
				}
				st.Sets[i].Value = f.fixExprCols(st.Sets[i].Value, cols, sch, nil)
			}
		}
		st.Where = f.fixExprCols(st.Where, cols, sch, nil)
		for i := range st.OrderBy {
			st.OrderBy[i].X = f.fixExprCols(st.OrderBy[i].X, cols, sch, nil)
		}

	case *sqlast.DeleteStmt:
		st.Table = f.fixTableRefName(st.Table, sch, nil)
		cols := sch.colsOf(st.Table)
		st.Where = f.fixExprCols(st.Where, cols, sch, nil)
		for i := range st.OrderBy {
			st.OrderBy[i].X = f.fixExprCols(st.OrderBy[i].X, cols, sch, nil)
		}
		for i := range st.Returning {
			st.Returning[i] = f.fixExprCols(st.Returning[i], cols, sch, nil)
		}

	case *sqlast.MergeStmt:
		st.Target = f.fixTableRefName(st.Target, sch, nil)
		st.Source = f.fixTableRefName(st.Source, sch, nil)
		allowed := append(append([]string{}, sch.colsOf(st.Target)...), sch.colsOf(st.Source)...)
		st.On = f.fixExprCols(st.On, allowed, sch, nil)
		tcols := sch.colsOf(st.Target)
		for i := range st.MatchedSet {
			if len(tcols) > 0 && !hasStr(tcols, st.MatchedSet[i].Col) {
				st.MatchedSet[i].Col = tcols[f.Rng.Intn(len(tcols))]
			}
			st.MatchedSet[i].Value = f.fixExprCols(st.MatchedSet[i].Value, allowed, sch, nil)
		}
		if st.NotMatchedVals != nil && len(tcols) > 0 {
			for len(st.NotMatchedVals) < len(tcols) {
				st.NotMatchedVals = append(st.NotMatchedVals, sqlast.NullLit())
			}
			st.NotMatchedVals = st.NotMatchedVals[:len(tcols)]
		}

	case *sqlast.CopyStmt:
		if st.Query != nil {
			f.fixSelect(st.Query, sch, nil)
		} else {
			st.Table = f.fixTableRefName(st.Table, sch, nil)
		}

	case *sqlast.LoadDataStmt:
		st.Table = f.fixTableRefName(st.Table, sch, nil)

	case *sqlast.CallStmt:
		if n := pickStr(f.Rng, sch.procs); n != "" {
			st.Name = n
		}

	case *sqlast.SelectStmt:
		f.fixSelect(st, sch, nil)
		if st.Into != "" {
			if _, exists := sch.tables[st.Into]; exists {
				st.Into = sch.freshName("t")
			}
			sch.tables[st.Into] = nil
		}

	case *sqlast.TableStmtNode:
		st.Name = f.fixTableRefName(st.Name, sch, nil)

	case *sqlast.WithStmt:
		var ctes []string
		for i := range st.CTEs {
			if sel, isSel := st.CTEs[i].Body.(*sqlast.SelectStmt); isSel {
				f.fixSelect(sel, sch, ctes)
			} else {
				f.fixStmt(st.CTEs[i].Body, sch)
			}
			ctes = append(ctes, st.CTEs[i].Name)
		}
		if sel, isSel := st.Body.(*sqlast.SelectStmt); isSel {
			f.fixSelect(sel, sch, ctes)
		} else {
			f.fixStmt(st.Body, sch)
		}

	case *sqlast.ExplainStmt:
		f.fixStmt(st.Stmt, sch)

	case *sqlast.DescribeStmt:
		st.Table = f.fixTableRefName(st.Table, sch, nil)

	case *sqlast.GrantStmt:
		st.Table = f.fixTableRefName(st.Table, sch, nil)
		if n := pickStr(f.Rng, sch.roles); n != "" {
			st.Role = n
		}

	case *sqlast.SetRoleStmt:
		if st.Role != "NONE" {
			if n := pickStr(f.Rng, sch.roles); n != "" {
				st.Role = n
			} else {
				st.Role = "NONE"
			}
		}

	case *sqlast.TxnStmt:
		switch st.What {
		case sqlt.Savepoint:
			sch.saves = append(sch.saves, st.Name)
		case sqlt.ReleaseSavepoint, sqlt.RollbackToSavepoint:
			if n := pickStr(f.Rng, sch.saves); n != "" {
				st.Name = n
			}
		}

	case *sqlast.LockTableStmt:
		st.Table = f.fixTableRefName(st.Table, sch, nil)

	case *sqlast.AnalyzeStmt:
		if st.Table != "" {
			st.Table = f.fixTableRefName(st.Table, sch, nil)
		}

	case *sqlast.VacuumStmt:
		if st.Table != "" {
			st.Table = f.fixTableRefName(st.Table, sch, nil)
		}

	case *sqlast.MaintenanceStmt:
		st.Table = f.fixTableRefName(st.Table, sch, nil)

	case *sqlast.PrepareStmt:
		if hasStr(sch.preps, st.Name) {
			st.Name = sch.freshName("q")
		}
		f.fixStmt(st.Stmt, sch)
		sch.preps = append(sch.preps, st.Name)

	case *sqlast.ExecuteStmt:
		if n := pickStr(f.Rng, sch.preps); n != "" {
			st.Name = n
		}

	case *sqlast.DeallocateStmt:
		if n := pickStr(f.Rng, sch.preps); n != "" {
			st.Name = n
		}
		sch.preps = dropStr(sch.preps, st.Name)

	case *sqlast.DeclareCursorStmt:
		if hasStr(sch.cursors, st.Name) {
			st.Name = sch.freshName("cur")
		}
		f.fixSelect(st.Query, sch, nil)
		sch.cursors = append(sch.cursors, st.Name)

	case *sqlast.FetchStmt:
		if n := pickStr(f.Rng, sch.cursors); n != "" {
			st.Cursor = n
		}

	case *sqlast.CloseCursorStmt:
		if n := pickStr(f.Rng, sch.cursors); n != "" {
			st.Name = n
		}
		sch.cursors = dropStr(sch.cursors, st.Name)

	case *sqlast.ClusterStmt:
		st.Table = f.fixTableRefName(st.Table, sch, nil)
		if n := pickStr(f.Rng, sch.indexes); n != "" {
			st.Index = n
		} else {
			st.Index = ""
		}
	}
}
