package minidb

import (
	"slices"
	"sort"
	"strings"

	"github.com/seqfuzz/lego/internal/sqlast"
)

// Column is the stored column metadata.
type Column struct {
	Name       string
	TypeName   string
	NotNull    bool
	PrimaryKey bool
	Unique     bool
	Default    sqlast.Expr
	Check      sqlast.Expr
	RefTable   string // foreign key target ("" if none)
	Comment    string
}

// Index is a secondary index over a table. Lookups are linear with a
// uniqueness map; the structure exists to give the planner an index-path
// branch and the catalog an object whose lifetime statements can race.
type Index struct {
	Name   string
	Table  string
	Cols   []string
	Unique bool
	// stale marks indexes invalidated by ALTER TABLE until REINDEX runs.
	stale bool
}

// Table is the stored base relation.
type Table struct {
	Name        string
	Cols        []Column
	Rows        [][]Value
	Temp        bool
	Comment     string
	Constraints []sqlast.TableConstraint
	analyzed    bool // set by ANALYZE, cleared by writes; gates planner stats paths
	locked      string
	clusteredBy string
}

// colIndex returns the position of the named column, or -1.
func (t *Table) colIndex(name string) int {
	for i := range t.Cols {
		if t.Cols[i].Name == name {
			return i
		}
	}
	return -1
}

// clone deep-copies the table (rows share Value structs, which are
// immutable by convention).
func (t *Table) clone() *Table {
	c := *t
	c.Cols = append([]Column(nil), t.Cols...)
	c.Rows = make([][]Value, len(t.Rows))
	for i, r := range t.Rows {
		c.Rows[i] = append([]Value(nil), r...)
	}
	c.Constraints = append([]sqlast.TableConstraint(nil), t.Constraints...)
	return &c
}

// View is a stored (possibly materialized) view.
type View struct {
	Name         string
	Cols         []string
	Query        *sqlast.SelectStmt
	Materialized bool
	MatCols      []string
	MatRows      [][]Value
	refreshed    bool
}

// Trigger fires a body statement around DML on a table.
type Trigger struct {
	Name  string
	Table string
	Time  sqlast.TriggerTime
	Event sqlast.TriggerEvent
	Body  sqlast.Statement
}

// Rule is a PostgreSQL-style rewrite rule: ON event TO table DO [INSTEAD]
// action. Rules participate in query rewrite (rewrite.go), which is where
// the paper's case-study bug lives.
type Rule struct {
	Name    string
	Table   string
	Event   sqlast.TriggerEvent
	Instead bool
	Action  sqlast.Statement // nil = DO INSTEAD NOTHING
}

// Sequence is a named counter.
type Sequence struct {
	Name string
	Val  int64
	Inc  int64
}

// Function is a scalar SQL function.
type Function struct {
	Name    string
	Params  []string
	Returns string
	Body    sqlast.Expr
}

// Procedure wraps one statement invocable via CALL.
type Procedure struct {
	Name string
	Body sqlast.Statement
}

// Domain is a constrained base type.
type Domain struct {
	Name  string
	Base  string
	Check sqlast.Expr
}

// EnumType is a user-defined enumeration.
type EnumType struct {
	Name   string
	Values []string
}

// Role is a principal with per-table privileges.
type Role struct {
	Name   string
	IsUser bool
	Option string
	Privs  map[string]map[string]bool // table -> privilege -> granted
}

// Catalog is the schema state of one database.
type Catalog struct {
	Tables     map[string]*Table
	Views      map[string]*View
	Indexes    map[string]*Index
	Triggers   map[string]*Trigger
	Rules      map[string]*Rule
	Sequences  map[string]*Sequence
	Functions  map[string]*Function
	Procedures map[string]*Procedure
	Domains    map[string]*Domain
	Enums      map[string]*EnumType
	Roles      map[string]*Role
	Schemas    map[string]bool
	Extensions map[string]bool
	Databases  map[string]bool
	Comments   map[string]string
}

// NewCatalog returns an empty catalog with the default database and schema.
func NewCatalog() *Catalog {
	c := &Catalog{
		Tables:     map[string]*Table{},
		Views:      map[string]*View{},
		Indexes:    map[string]*Index{},
		Triggers:   map[string]*Trigger{},
		Rules:      map[string]*Rule{},
		Sequences:  map[string]*Sequence{},
		Functions:  map[string]*Function{},
		Procedures: map[string]*Procedure{},
		Domains:    map[string]*Domain{},
		Enums:      map[string]*EnumType{},
		Roles:      map[string]*Role{},
		Schemas:    map[string]bool{},
		Extensions: map[string]bool{},
		Databases:  map[string]bool{},
		Comments:   map[string]string{},
	}
	c.reset()
	return c
}

// reset empties the catalog in place back to NewCatalog's state: every map
// is cleared, keeping its storage for the next test case, and the default
// schema and database are restored. A field added to Catalog must be added
// here too; TestResetIsComplete walks the struct and fails if it is not.
func (c *Catalog) reset() {
	clear(c.Tables)
	clear(c.Views)
	clear(c.Indexes)
	clear(c.Triggers)
	clear(c.Rules)
	clear(c.Sequences)
	clear(c.Functions)
	clear(c.Procedures)
	clear(c.Domains)
	clear(c.Enums)
	clear(c.Roles)
	clear(c.Schemas)
	clear(c.Extensions)
	clear(c.Databases)
	clear(c.Comments)
	c.Schemas["public"] = true
	c.Databases["main"] = true
}

// tableNames returns table names in sorted order for deterministic
// iteration.
func (c *Catalog) tableNames() []string {
	names := make([]string, 0, len(c.Tables))
	for n := range c.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// triggersFor returns the triggers on a table for a given time and event,
// name-sorted for determinism.
func (c *Catalog) triggersFor(table string, tm sqlast.TriggerTime, ev sqlast.TriggerEvent) []*Trigger {
	var out []*Trigger
	for _, tr := range c.Triggers {
		if tr.Table == table && tr.Time == tm && tr.Event == ev {
			out = append(out, tr)
		}
	}
	slices.SortFunc(out, func(a, b *Trigger) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// rulesFor returns rewrite rules on a table for an event, name-sorted.
func (c *Catalog) rulesFor(table string, ev sqlast.TriggerEvent) []*Rule {
	var out []*Rule
	for _, r := range c.Rules {
		if r.Table == table && r.Event == ev {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, func(a, b *Rule) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// indexesFor returns indexes on a table, name-sorted.
func (c *Catalog) indexesFor(table string) []*Index {
	var out []*Index
	for _, ix := range c.Indexes {
		if ix.Table == table {
			out = append(out, ix)
		}
	}
	slices.SortFunc(out, func(a, b *Index) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// snapshot deep-copies the catalog for transaction rollback.
func (c *Catalog) snapshot() *Catalog {
	s := NewCatalog()
	for n, t := range c.Tables {
		s.Tables[n] = t.clone()
	}
	for n, v := range c.Views {
		vc := *v
		vc.MatRows = append([][]Value(nil), v.MatRows...)
		s.Views[n] = &vc
	}
	for n, ix := range c.Indexes {
		ic := *ix
		ic.Cols = append([]string(nil), ix.Cols...)
		s.Indexes[n] = &ic
	}
	for n, tr := range c.Triggers {
		tc := *tr
		s.Triggers[n] = &tc
	}
	for n, r := range c.Rules {
		rc := *r
		s.Rules[n] = &rc
	}
	for n, sq := range c.Sequences {
		sc := *sq
		s.Sequences[n] = &sc
	}
	for n, f := range c.Functions {
		fc := *f
		s.Functions[n] = &fc
	}
	for n, p := range c.Procedures {
		pc := *p
		s.Procedures[n] = &pc
	}
	for n, d := range c.Domains {
		dc := *d
		s.Domains[n] = &dc
	}
	for n, e := range c.Enums {
		ec := *e
		ec.Values = append([]string(nil), e.Values...)
		s.Enums[n] = &ec
	}
	for n, r := range c.Roles {
		rc := *r
		rc.Privs = map[string]map[string]bool{}
		for t, ps := range r.Privs {
			m := map[string]bool{}
			for k, v := range ps {
				m[k] = v
			}
			rc.Privs[t] = m
		}
		s.Roles[n] = &rc
	}
	for n := range c.Schemas {
		s.Schemas[n] = true
	}
	for n := range c.Extensions {
		s.Extensions[n] = true
	}
	for n := range c.Databases {
		s.Databases[n] = true
	}
	for k, v := range c.Comments {
		s.Comments[k] = v
	}
	return s
}
