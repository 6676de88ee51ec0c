package minidb

// Shared column metadata (DESIGN.md §9). Every statement that reads a table
// or joins two relations needs the same derived slices: the column names,
// the qualifier per column, the "qual.col" binding keys and the compile-time
// layout. Fuzzing recreates the same few tables and joins case after case,
// so the engine builds them once per distinct list of (qualifier, column
// name) pairs and shares them from a bounded, content-keyed cache that
// survives reset.
//
// The cache is derived state, like the plan cache: it is never checkpointed,
// and at its cap it is cleared wholesale. Every lookup re-validates the
// entry it finds against the columns asked for, so ALTER, RENAME, DROP and
// CREATE, ROLLBACK and hash collisions can never hand out stale metadata.
// The shared slices are read-only: no caller may write through one or
// return one to a caller outside the engine without copying it.

// colMeta is the metadata of one list of qualified columns. A qualifier is
// a table's name, the alias a FROM item gives it, or "" for an unaliased
// subquery; a join's columns carry each side's qualifiers.
type colMeta struct {
	cols  []string // column names
	quals []string // qualifier per column
	qkeys []string // "qual.col" per column ("" where the qual is "")
	// tabKeys are Engine.rowScope's qualified keys: "qual.col" per column,
	// even when qual is "". They differ from qkeys only then.
	tabKeys []string
	// tabLay mirrors rowScope: cols and tabKeys, the last duplicate
	// winning. relLay mirrors relation.scopeRowInto over (cols, quals): the
	// leftmost duplicate wins.
	tabLay layout
	relLay layout
}

// newColMeta builds the metadata of cols qualified per column by quals; it
// keeps both slices, so the caller must not use them afterwards.
func newColMeta(cols, quals []string) *colMeta {
	m := &colMeta{cols: cols, quals: quals, qkeys: make([]string, len(cols))}
	bare := false
	for i, c := range cols {
		if quals[i] != "" {
			m.qkeys[i] = quals[i] + "." + c
		} else {
			bare = true
		}
	}
	m.tabKeys = m.qkeys
	if bare {
		m.tabKeys = make([]string, len(cols))
		for i, c := range cols {
			m.tabKeys[i] = quals[i] + "." + c
		}
	}
	m.tabLay = layout{frames: []frame{{keys: m.cols, qkeys: m.tabKeys, lastWins: true}}}
	m.relLay = layout{frames: []frame{{keys: m.cols, qkeys: m.qkeys}}}
	return m
}

// colMetaCap bounds the cache. Reaching it clears the whole map, as the
// plan cache does; default 600k-statement campaigns in MariaDB, Comdb2
// and PostgreSQL peak near 350 entries.
const colMetaCap = 1024

// colMetaKey is the 128-bit content hash of a list of qualified columns.
type colMetaKey struct{ h1, h2 uint64 }

// colSpan is a run of columns a lookup reads in place: the names come from
// tcols when it is non-nil and from names otherwise, and each column is
// qualified by quals[i] when quals is non-nil and by qual otherwise.
type colSpan struct {
	tcols []Column
	names []string
	quals []string
	qual  string
}

func (s *colSpan) len() int {
	if s.tcols != nil {
		return len(s.tcols)
	}
	return len(s.names)
}

func (s *colSpan) name(i int) string {
	if s.tcols != nil {
		return s.tcols[i].Name
	}
	return s.names[i]
}

func (s *colSpan) qualOf(i int) string {
	if s.quals != nil {
		return s.quals[i]
	}
	return s.qual
}

// tableMeta returns t's column metadata, qualified by the table's name.
func (e *Engine) tableMeta(t *Table) *colMeta {
	return e.lookupMeta(colSpan{tcols: t.Cols, qual: t.Name}, colSpan{})
}

// relMeta returns the metadata of names qualified by qual.
func (e *Engine) relMeta(qual string, names []string) *colMeta {
	return e.lookupMeta(colSpan{names: names, qual: qual}, colSpan{})
}

// joinMeta returns the metadata of l's columns followed by r's, each with
// its own qualifier.
func (e *Engine) joinMeta(l, r *relation) *colMeta {
	return e.lookupMeta(colSpan{names: l.cols, quals: l.quals}, colSpan{names: r.cols, quals: r.quals})
}

// lookupMeta returns the cached metadata of a's columns followed by b's,
// hashing and comparing both spans where they lie; only a miss builds the
// concatenated slices.
func (e *Engine) lookupMeta(a, b colSpan) *colMeta {
	na, n := a.len(), a.len()+b.len()
	h := newHash128()
	h.int(n)
	for _, s := range [2]*colSpan{&a, &b} {
		for i := 0; i < s.len(); i++ {
			h.str(s.qualOf(i))
			h.str(s.name(i))
		}
	}
	key := colMetaKey{h.h1, h.h2}
	if m, ok := e.metas[key]; ok && len(m.cols) == n && a.matches(m, 0) && b.matches(m, na) {
		return m
	}
	cols, quals := make([]string, n), make([]string, n)
	for i := 0; i < n; i++ {
		s, j := &a, i
		if i >= na {
			s, j = &b, i-na
		}
		cols[i], quals[i] = s.name(j), s.qualOf(j)
	}
	if e.metas == nil || len(e.metas) >= colMetaCap {
		e.metas = make(map[colMetaKey]*colMeta, 64)
	}
	m := newColMeta(cols, quals)
	e.metas[key] = m
	return m
}

// matches reports whether m's columns from off on begin with s's.
func (s *colSpan) matches(m *colMeta, off int) bool {
	for i := 0; i < s.len(); i++ {
		if m.cols[off+i] != s.name(i) || m.quals[off+i] != s.qualOf(i) {
			return false
		}
	}
	return true
}
