package minidb

import (
	"strings"

	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
)

func (e *Engine) execCreateTable(st *sqlast.CreateTableStmt) (*Result, error) {
	e.hit(pCreateTable)
	if _, exists := e.cat.Tables[st.Name]; exists {
		if st.IfNotExists {
			e.hit(pCreateTableIfNot)
			return e.ok("CREATE TABLE (exists)")
		}
		return nil, errNamed("relation %q already exists", st.Name)
	}
	if _, exists := e.cat.Views[st.Name]; exists {
		return nil, errNamed("%q is a view", st.Name)
	}
	if len(st.Cols) == 0 {
		return nil, errNoColumns
	}
	if st.Temp {
		e.hit(pCreateTableTemp)
	}
	t := &Table{Name: st.Name, Temp: st.Temp, Cols: make([]Column, 0, len(st.Cols))}
	for _, cd := range st.Cols {
		// t.Cols holds exactly the columns seen so far.
		if t.colIndex(cd.Name) >= 0 {
			return nil, errNamed("duplicate column %q", cd.Name)
		}
		col := Column{
			Name:       cd.Name,
			TypeName:   cd.TypeName,
			NotNull:    cd.NotNull || cd.PrimaryKey,
			PrimaryKey: cd.PrimaryKey,
			Unique:     cd.Unique || cd.PrimaryKey,
			Default:    cd.Default,
			Check:      cd.Check,
		}
		if cd.PrimaryKey {
			e.hit(pCreateTablePK)
		}
		if cd.Check != nil {
			e.hit(pCreateTableCheck)
		}
		if cd.Default != nil {
			e.hit(pCreateTableDefault)
		}
		if cd.References != nil {
			e.hit(pCreateTableFK)
			if _, ok := e.cat.Tables[cd.References.Table]; !ok && cd.References.Table != st.Name {
				return nil, errNamed("referenced table %q does not exist", cd.References.Table)
			}
			col.RefTable = cd.References.Table
		}
		// Domain and enum column types resolve through the catalog. The
		// parser canonicalizes type names to upper case while object names
		// keep their spelling, so the lookup is case-insensitive.
		if d := e.lookupDomain(cd.TypeName); d != nil {
			e.hit(pCreateTableDomain)
			col.TypeName = d.Base
			if col.Check == nil {
				col.Check = d.Check
			}
		} else if e.lookupEnum(cd.TypeName) != nil {
			e.hit(pCreateTableEnum)
			col.TypeName = "TEXT"
		}
		t.Cols = append(t.Cols, col)
	}
	for _, tc := range st.Constraints {
		switch tc.Kind {
		case "PRIMARY KEY", "UNIQUE":
			for _, cn := range tc.Columns {
				i := -1
				for ci := range t.Cols {
					if t.Cols[ci].Name == cn {
						i = ci
						break
					}
				}
				if i < 0 {
					return nil, errNamed("constraint column %q not found", cn)
				}
				if len(tc.Columns) == 1 {
					t.Cols[i].Unique = true
					if tc.Kind == "PRIMARY KEY" {
						t.Cols[i].PrimaryKey = true
						t.Cols[i].NotNull = true
					}
				}
			}
			e.hit(pCreateTablePK)
		case "FOREIGN KEY":
			e.hit(pCreateTableFK)
			if _, ok := e.cat.Tables[tc.RefTab]; !ok && tc.RefTab != st.Name {
				return nil, errNamed("referenced table %q does not exist", tc.RefTab)
			}
		case "CHECK":
			e.hit(pCreateTableCheck)
		}
		t.Constraints = append(t.Constraints, tc)
	}
	e.cat.Tables[st.Name] = t
	return e.ok("CREATE TABLE")
}

// lookupDomain finds a domain by case-insensitive name. When several stored
// names fold-match, the lexicographically smallest wins, so the result never
// depends on map iteration order.
func (e *Engine) lookupDomain(name string) *Domain {
	if d, ok := e.cat.Domains[name]; ok {
		return d
	}
	best := ""
	for n := range e.cat.Domains {
		if strings.EqualFold(n, name) && (best == "" || n < best) {
			best = n
		}
	}
	if best == "" {
		return nil
	}
	return e.cat.Domains[best]
}

// lookupEnum finds an enum type by case-insensitive name, resolving
// fold-ambiguity like lookupDomain.
func (e *Engine) lookupEnum(name string) *EnumType {
	if en, ok := e.cat.Enums[name]; ok {
		return en
	}
	best := ""
	for n := range e.cat.Enums {
		if strings.EqualFold(n, name) && (best == "" || n < best) {
			best = n
		}
	}
	if best == "" {
		return nil
	}
	return e.cat.Enums[best]
}

func (e *Engine) execCreateView(st *sqlast.CreateViewStmt) (*Result, error) {
	if st.Materialized {
		e.hit(pCreateMatView)
	} else {
		e.hit(pCreateView)
	}
	if _, exists := e.cat.Views[st.Name]; exists && !st.OrReplace {
		return nil, errNamed("view %q already exists", st.Name)
	}
	if st.OrReplace {
		e.hit(pCreateViewReplace)
	}
	if _, exists := e.cat.Tables[st.Name]; exists {
		return nil, errNamed("%q is a table", st.Name)
	}
	// validate the query against current schema
	rows, cols, err := e.execSelect(st.Query, nil, 0)
	if err != nil {
		return nil, err
	}
	v := &View{Name: st.Name, Cols: st.Cols, Query: st.Query, Materialized: st.Materialized}
	if st.Materialized {
		v.MatCols = cols
		v.MatRows = rows
		v.refreshed = true
	}
	e.cat.Views[st.Name] = v
	return e.ok("CREATE VIEW")
}

func (e *Engine) execCreateIndex(st *sqlast.CreateIndexStmt) (*Result, error) {
	e.hit(pCreateIndex)
	if _, exists := e.cat.Indexes[st.Name]; exists {
		return nil, errNamed("index %q already exists", st.Name)
	}
	t, err := e.lookTable(st.Table)
	if err != nil {
		return nil, err
	}
	for _, c := range st.Cols {
		if t.colIndex(c) < 0 {
			return nil, errValue("column %q does not exist in %q", c, st.Table)
		}
	}
	if st.Unique {
		e.hit(pCreateIndexUnique)
		// building a unique index scans for duplicates
		e.hit(pCreateIndexDupScan)
		seen := map[string]bool{}
		for _, row := range t.Rows {
			var key []Value
			for _, c := range st.Cols {
				key = append(key, row[t.colIndex(c)])
			}
			k := RowKey(key)
			if seen[k] {
				return nil, errUniqueIndexDuplicate
			}
			seen[k] = true
		}
	}
	e.cat.Indexes[st.Name] = &Index{Name: st.Name, Table: st.Table, Cols: st.Cols, Unique: st.Unique}
	return e.ok("CREATE INDEX")
}

func (e *Engine) execCreateTrigger(st *sqlast.CreateTriggerStmt) (*Result, error) {
	e.hit(pCreateTrigger)
	if st.Time == sqlast.TriggerBefore {
		e.hit(pCreateTriggerBefore)
	}
	if _, exists := e.cat.Triggers[st.Name]; exists {
		return nil, errNamed("trigger %q already exists", st.Name)
	}
	if _, err := e.lookTable(st.Table); err != nil {
		return nil, err
	}
	e.cat.Triggers[st.Name] = &Trigger{
		Name: st.Name, Table: st.Table, Time: st.Time, Event: st.Event, Body: st.Body,
	}
	return e.ok("CREATE TRIGGER")
}

func (e *Engine) execCreateSequence(st *sqlast.CreateSequenceStmt) (*Result, error) {
	e.hit(pCreateSequence)
	if _, exists := e.cat.Sequences[st.Name]; exists {
		return nil, errNamed("sequence %q already exists", st.Name)
	}
	inc := st.Inc
	if inc == 0 {
		inc = 1
	}
	e.cat.Sequences[st.Name] = &Sequence{Name: st.Name, Val: st.Start, Inc: inc}
	return e.ok("CREATE SEQUENCE")
}

func (e *Engine) execCreateSchema(st *sqlast.CreateSchemaStmt) (*Result, error) {
	e.hit(pCreateSchema)
	if e.cat.Schemas[st.Name] {
		return nil, errNamed("schema %q already exists", st.Name)
	}
	e.cat.Schemas[st.Name] = true
	return e.ok("CREATE SCHEMA")
}

func (e *Engine) execCreateFunction(st *sqlast.CreateFunctionStmt) (*Result, error) {
	e.hit(pCreateFunction)
	if _, exists := e.cat.Functions[st.Name]; exists {
		return nil, errNamed("function %q already exists", st.Name)
	}
	e.cat.Functions[st.Name] = &Function{
		Name: st.Name, Params: st.Params, Returns: st.Returns, Body: st.Body,
	}
	return e.ok("CREATE FUNCTION")
}

func (e *Engine) execCreateProcedure(st *sqlast.CreateProcedureStmt) (*Result, error) {
	e.hit(pCreateProcedure)
	if _, exists := e.cat.Procedures[st.Name]; exists {
		return nil, errNamed("procedure %q already exists", st.Name)
	}
	e.cat.Procedures[st.Name] = &Procedure{Name: st.Name, Body: st.Body}
	return e.ok("CREATE PROCEDURE")
}

func (e *Engine) execCreateRule(st *sqlast.CreateRuleStmt) (*Result, error) {
	e.hit(pCreateRule)
	if _, exists := e.cat.Rules[st.Name]; exists && !st.OrReplace {
		return nil, errNamed("rule %q already exists", st.Name)
	}
	if _, err := e.lookTable(st.Table); err != nil {
		return nil, err
	}
	if st.Instead {
		e.hit(pCreateRuleInstead)
	}
	e.cat.Rules[st.Name] = &Rule{
		Name: st.Name, Table: st.Table, Event: st.Event, Instead: st.Instead, Action: st.Action,
	}
	return e.ok("CREATE RULE")
}

func (e *Engine) execCreateDomain(st *sqlast.CreateDomainStmt) (*Result, error) {
	e.hit(pCreateDomain)
	if _, exists := e.cat.Domains[st.Name]; exists {
		return nil, errNamed("domain %q already exists", st.Name)
	}
	e.cat.Domains[st.Name] = &Domain{Name: st.Name, Base: st.Base, Check: st.Check}
	return e.ok("CREATE DOMAIN")
}

func (e *Engine) execCreateType(st *sqlast.CreateTypeStmt) (*Result, error) {
	e.hit(pCreateType)
	if _, exists := e.cat.Enums[st.Name]; exists {
		return nil, errNamed("type %q already exists", st.Name)
	}
	e.cat.Enums[st.Name] = &EnumType{Name: st.Name, Values: st.Values}
	return e.ok("CREATE TYPE")
}

func (e *Engine) execCreateExtension(st *sqlast.CreateExtensionStmt) (*Result, error) {
	e.hit(pCreateExtension)
	if e.cat.Extensions[st.Name] {
		return nil, errNamed("extension %q already installed", st.Name)
	}
	e.cat.Extensions[st.Name] = true
	return e.ok("CREATE EXTENSION")
}

func (e *Engine) execCreateRole(st *sqlast.CreateRoleStmt) (*Result, error) {
	e.hit(pCreateRole)
	if _, exists := e.cat.Roles[st.Name]; exists {
		return nil, errNamed("role %q already exists", st.Name)
	}
	e.cat.Roles[st.Name] = &Role{
		Name: st.Name, IsUser: st.IsUser, Option: st.Option,
		Privs: map[string]map[string]bool{},
	}
	return e.ok("CREATE ROLE")
}

func (e *Engine) execCreateDatabase(st *sqlast.CreateDatabaseStmt) (*Result, error) {
	e.hit(pCreateDatabase)
	if e.cat.Databases[st.Name] {
		return nil, errNamed("database %q already exists", st.Name)
	}
	e.cat.Databases[st.Name] = true
	return e.ok("CREATE DATABASE")
}

func (e *Engine) execAlterTable(st *sqlast.AlterTableStmt) (*Result, error) {
	t, err := e.lookTable(st.Table)
	if err != nil {
		return nil, err
	}
	switch st.Action {
	case sqlast.AlterAddColumn:
		e.hit(pAlterTableAdd)
		if t.colIndex(st.Col.Name) >= 0 {
			return nil, errNamed("column %q already exists", st.Col.Name)
		}
		col := Column{
			Name: st.Col.Name, TypeName: st.Col.TypeName,
			NotNull: st.Col.NotNull, Unique: st.Col.Unique, Default: st.Col.Default,
			Check: st.Col.Check,
		}
		// Backfill with the default or NULL. Every value is evaluated, on the
		// INSERT value stack, before the table changes, so a failing DEFAULT
		// or a NOT NULL column without one leaves the table as it was.
		mark := len(e.insVals)
		defer e.popInsert(len(e.insTargets), mark, len(e.insRows))
		for range t.Rows {
			var v Value
			if st.Col.Default != nil {
				dv, err := e.eval(st.Col.Default, emptyScope, 0)
				if err != nil {
					return nil, err
				}
				v = CoerceToColumn(col.TypeName, dv)
			} else {
				if col.NotNull {
					return nil, errNotNullNeedsDefault
				}
				v = Null()
			}
			e.insVals = append(e.insVals, v)
		}
		t.Cols = append(t.Cols, col)
		for i, v := range e.insVals[mark:] {
			t.Rows[i] = append(t.Rows[i], v)
		}
	case sqlast.AlterDropColumn:
		e.hit(pAlterTableDrop)
		i := t.colIndex(st.OldName)
		if i < 0 {
			return nil, errNamed("column %q does not exist", st.OldName)
		}
		if len(t.Cols) == 1 {
			return nil, errDropLastColumn
		}
		t.Cols = append(t.Cols[:i], t.Cols[i+1:]...)
		for r := range t.Rows {
			t.Rows[r] = append(t.Rows[r][:i], t.Rows[r][i+1:]...)
		}
		e.invalidateIndexes(st.Table)
	case sqlast.AlterRenameColumn:
		e.hit(pAlterTableRenameCol)
		i := t.colIndex(st.OldName)
		if i < 0 {
			return nil, errNamed("column %q does not exist", st.OldName)
		}
		if t.colIndex(st.NewName) >= 0 {
			return nil, errNamed("column %q already exists", st.NewName)
		}
		t.Cols[i].Name = st.NewName
		e.invalidateIndexes(st.Table)
	case sqlast.AlterRenameTable:
		e.hit(pAlterTableRename)
		return e.renameTable(st.Table, st.NewName)
	case sqlast.AlterColumnType:
		e.hit(pAlterTableType)
		i := t.colIndex(st.Col.Name)
		if i < 0 {
			return nil, errNamed("column %q does not exist", st.Col.Name)
		}
		t.Cols[i].TypeName = st.Col.TypeName
		if len(t.Rows) > 0 {
			e.hit(pAlterTableTypeRewrite)
			for r := range t.Rows {
				t.Rows[r][i] = CoerceToColumn(st.Col.TypeName, t.Rows[r][i])
			}
		}
	case sqlast.AlterColumnDefault:
		e.hit(pAlterTableDefault)
		i := t.colIndex(st.Col.Name)
		if i < 0 {
			return nil, errNamed("column %q does not exist", st.Col.Name)
		}
		t.Cols[i].Default = st.Col.Default
	}
	t.analyzed = false
	return e.ok("ALTER TABLE")
}

// invalidateIndexes marks indexes on a table stale until REINDEX.
func (e *Engine) invalidateIndexes(table string) {
	for _, ix := range e.cat.indexesFor(table) {
		ix.stale = true
	}
}

func (e *Engine) renameTable(from, to string) (*Result, error) {
	t, err := e.lookTable(from)
	if err != nil {
		return nil, err
	}
	if _, exists := e.cat.Tables[to]; exists {
		return nil, errNamed("relation %q already exists", to)
	}
	delete(e.cat.Tables, from)
	t.Name = to
	e.cat.Tables[to] = t
	for _, ix := range e.cat.indexesFor(from) {
		ix.Table = to
	}
	for _, tr := range e.cat.Triggers {
		if tr.Table == from {
			tr.Table = to
		}
	}
	for _, r := range e.cat.Rules {
		if r.Table == from {
			r.Table = to
		}
	}
	return e.ok("RENAME")
}

func (e *Engine) execAlterSimple(st *sqlast.AlterSimpleStmt) (*Result, error) {
	e.hit(pAlterSimple)
	switch st.What {
	case sqlt.AlterView:
		v, ok2 := e.cat.Views[st.Name]
		if !ok2 {
			return nil, errNamed("view %q does not exist", st.Name)
		}
		if _, exists := e.cat.Views[st.NewName]; exists {
			return nil, errNamed("view %q already exists", st.NewName)
		}
		delete(e.cat.Views, st.Name)
		v.Name = st.NewName
		e.cat.Views[st.NewName] = v
	case sqlt.AlterIndex:
		ix, ok2 := e.cat.Indexes[st.Name]
		if !ok2 {
			return nil, errNamed("index %q does not exist", st.Name)
		}
		if _, exists := e.cat.Indexes[st.NewName]; exists {
			return nil, errNamed("index %q already exists", st.NewName)
		}
		delete(e.cat.Indexes, st.Name)
		ix.Name = st.NewName
		e.cat.Indexes[st.NewName] = ix
	case sqlt.AlterSequence:
		sq, ok2 := e.cat.Sequences[st.Name]
		if !ok2 {
			return nil, errNamed("sequence %q does not exist", st.Name)
		}
		sq.Val = st.Restart
	case sqlt.AlterRole:
		r, ok2 := e.cat.Roles[st.Name]
		if !ok2 {
			return nil, errNamed("role %q does not exist", st.Name)
		}
		r.Option = st.Option
	case sqlt.AlterDatabase:
		if !e.cat.Databases[st.Name] {
			return nil, errNamed("database %q does not exist", st.Name)
		}
	}
	return e.ok("ALTER")
}

func (e *Engine) execAlterSystem(st *sqlast.AlterSystemStmt) (*Result, error) {
	e.hit(pAlterSystem)
	v, err := e.eval(st.Value, emptyScope, 0)
	if err != nil {
		return nil, err
	}
	e.sess.globals[st.Setting] = v
	return e.ok("ALTER SYSTEM")
}

func (e *Engine) execDrop(st *sqlast.DropStmt) (*Result, error) {
	e.hit(pDropObject)
	if st.Cascade {
		e.hit(pDropCascade)
	}
	miss := func() (*Result, error) {
		if st.IfExists {
			e.hit(pDropIfExistsMiss)
			return e.ok("DROP (skipped)")
		}
		return nil, errNamed("object %q does not exist", st.Name)
	}
	switch st.What {
	case sqlt.DropTable:
		if _, exists := e.cat.Tables[st.Name]; !exists {
			return miss()
		}
		// drop dependents
		delete(e.cat.Tables, st.Name)
		for _, ix := range e.cat.indexesFor(st.Name) {
			delete(e.cat.Indexes, ix.Name)
		}
		for n, tr := range e.cat.Triggers {
			if tr.Table == st.Name {
				delete(e.cat.Triggers, n)
			}
		}
		for n, r := range e.cat.Rules {
			if r.Table == st.Name {
				delete(e.cat.Rules, n)
			}
		}
		if st.Cascade {
			e.hit(pDropDependentViews)
			for n, v := range e.cat.Views {
				for _, dep := range sqlast.StatementTables(v.Query) {
					if dep == st.Name {
						delete(e.cat.Views, n)
						break
					}
				}
			}
		}
	case sqlt.DropView, sqlt.DropMaterializedView:
		v, exists := e.cat.Views[st.Name]
		if !exists {
			return miss()
		}
		if (st.What == sqlt.DropMaterializedView) != v.Materialized {
			return nil, errNamed("%q is not the right kind of view", st.Name)
		}
		delete(e.cat.Views, st.Name)
	case sqlt.DropIndex:
		if _, exists := e.cat.Indexes[st.Name]; !exists {
			return miss()
		}
		delete(e.cat.Indexes, st.Name)
	case sqlt.DropTrigger:
		if _, exists := e.cat.Triggers[st.Name]; !exists {
			return miss()
		}
		delete(e.cat.Triggers, st.Name)
	case sqlt.DropSequence:
		if _, exists := e.cat.Sequences[st.Name]; !exists {
			return miss()
		}
		delete(e.cat.Sequences, st.Name)
	case sqlt.DropSchema:
		if !e.cat.Schemas[st.Name] {
			return miss()
		}
		delete(e.cat.Schemas, st.Name)
	case sqlt.DropFunction:
		if _, exists := e.cat.Functions[st.Name]; !exists {
			return miss()
		}
		delete(e.cat.Functions, st.Name)
	case sqlt.DropProcedure:
		if _, exists := e.cat.Procedures[st.Name]; !exists {
			return miss()
		}
		delete(e.cat.Procedures, st.Name)
	case sqlt.DropRule:
		if _, exists := e.cat.Rules[st.Name]; !exists {
			return miss()
		}
		delete(e.cat.Rules, st.Name)
	case sqlt.DropDomain:
		if _, exists := e.cat.Domains[st.Name]; !exists {
			return miss()
		}
		delete(e.cat.Domains, st.Name)
	case sqlt.DropType:
		if _, exists := e.cat.Enums[st.Name]; !exists {
			return miss()
		}
		delete(e.cat.Enums, st.Name)
	case sqlt.DropExtension:
		if !e.cat.Extensions[st.Name] {
			return miss()
		}
		delete(e.cat.Extensions, st.Name)
	case sqlt.DropRole, sqlt.DropUser:
		if _, exists := e.cat.Roles[st.Name]; !exists {
			return miss()
		}
		if e.sess.role == st.Name {
			return nil, errDropCurrentRole
		}
		delete(e.cat.Roles, st.Name)
	case sqlt.DropDatabase:
		if !e.cat.Databases[st.Name] {
			return miss()
		}
		if st.Name == e.sess.curDB {
			return nil, errDropCurrentDatabase
		}
		delete(e.cat.Databases, st.Name)
	}
	return e.ok("DROP")
}

func (e *Engine) execRenameTable(st *sqlast.RenameTableStmt) (*Result, error) {
	e.hit(pRenameTable)
	return e.renameTable(st.From, st.To)
}

func (e *Engine) execTruncate(st *sqlast.TruncateStmt) (*Result, error) {
	e.hit(pTruncate)
	t, err := e.lookTable(st.Table)
	if err != nil {
		return nil, err
	}
	if err := e.checkPriv(st.Table, "DELETE"); err != nil {
		return nil, err
	}
	if len(t.Rows) > 0 {
		e.hit(pTruncateNonEmpty)
	}
	n := len(t.Rows)
	t.Rows = nil
	t.analyzed = false
	return e.newResult(Result{Affected: n, Msg: "TRUNCATE"}), nil
}

func (e *Engine) execCommentOn(st *sqlast.CommentOnStmt) (*Result, error) {
	e.hit(pCommentOn)
	key := st.ObjectKind + ":" + st.Name
	switch st.ObjectKind {
	case "TABLE":
		if _, err := e.lookTable(st.Name); err != nil {
			return nil, err
		}
	case "VIEW":
		if _, exists := e.cat.Views[st.Name]; !exists {
			return nil, errNamed("view %q does not exist", st.Name)
		}
	case "COLUMN":
		parts := strings.SplitN(st.Name, ".", 2)
		if len(parts) != 2 {
			return nil, errCommentNeedsColumn
		}
		t, err := e.lookTable(parts[0])
		if err != nil {
			return nil, err
		}
		if t.colIndex(parts[1]) < 0 {
			return nil, errNamed("column %q does not exist", parts[1])
		}
	case "INDEX":
		if _, exists := e.cat.Indexes[st.Name]; !exists {
			return nil, errNamed("index %q does not exist", st.Name)
		}
	}
	e.cat.Comments[key] = st.Comment
	return e.ok("COMMENT")
}

func (e *Engine) execReindex(st *sqlast.ReindexStmt) (*Result, error) {
	e.hit(pReindex)
	switch st.Kind {
	case "INDEX":
		ix, exists := e.cat.Indexes[st.Name]
		if !exists {
			return nil, errNamed("index %q does not exist", st.Name)
		}
		if ix.stale {
			e.hit(pReindexStale)
			ix.stale = false
		}
	default:
		if _, err := e.lookTable(st.Name); err != nil {
			return nil, err
		}
		for _, ix := range e.cat.indexesFor(st.Name) {
			if ix.stale {
				e.hit(pReindexStale)
				ix.stale = false
			}
		}
	}
	return e.ok("REINDEX")
}

func (e *Engine) execRefreshMatView(st *sqlast.RefreshMatViewStmt) (*Result, error) {
	e.hit(pRefreshMatView)
	v, exists := e.cat.Views[st.Name]
	if !exists || !v.Materialized {
		return nil, errNamed("materialized view %q does not exist", st.Name)
	}
	rows, cols, err := e.execSelect(v.Query, nil, 0)
	if err != nil {
		return nil, err
	}
	v.MatCols = cols
	v.MatRows = rows
	v.refreshed = true
	return e.newResult(Result{Affected: len(rows), Msg: "REFRESH"}), nil
}
