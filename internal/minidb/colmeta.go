package minidb

// Shared column metadata (DESIGN.md §9). Every statement that reads a table
// needs the same derived slices: the column names, the qualifier per column,
// the "qual.col" binding keys and the compile-time layout. Fuzzing recreates
// the same few tables case after case, so the engine builds them once per
// distinct (qualifier, column names) pair and shares them from a bounded,
// content-keyed cache that survives reset.
//
// The cache is derived state, like the plan cache: it is never checkpointed,
// and at its cap it is cleared wholesale. Every lookup re-validates the
// entry it finds against the names asked for, so ALTER, RENAME, DROP and
// CREATE, ROLLBACK and hash collisions can never hand out stale metadata.
// The shared slices are read-only: no caller may write through one or
// return one to a caller outside the engine without copying it.

import "slices"

// colMeta is the metadata of one (qualifier, column names) pair. The
// qualifier is a table's name, or the alias a FROM item gives it.
type colMeta struct {
	qual  string
	cols  []string // column names
	quals []string // qual per column
	qkeys []string // "qual.col" per column ("" per column when qual is "")
	// tabKeys are Engine.rowScope's qualified keys: "qual.col" per column,
	// even when qual is "". They differ from qkeys only then.
	tabKeys []string
	// tabLay mirrors rowScope: cols and tabKeys, the last duplicate
	// winning. relLay mirrors relation.scopeRowInto over (cols, quals): the
	// leftmost duplicate wins.
	tabLay layout
	relLay layout
}

// newColMeta builds the metadata of cols qualified by qual; it copies
// nothing from its caller but the strings.
func newColMeta(qual string, names []string) *colMeta {
	n := len(names)
	m := &colMeta{
		qual:  qual,
		cols:  append(make([]string, 0, n), names...),
		quals: make([]string, n),
		qkeys: make([]string, n),
	}
	for i, c := range names {
		m.quals[i] = qual
		if qual != "" {
			m.qkeys[i] = qual + "." + c
		}
	}
	m.tabKeys = m.qkeys
	if qual == "" {
		m.tabKeys = make([]string, n)
		for i, c := range names {
			m.tabKeys[i] = "." + c
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

// colMetaKey is the 128-bit content hash of a (qualifier, names) pair.
type colMetaKey struct{ h1, h2 uint64 }

// tableMeta returns t's column metadata, qualified by the table's name.
func (e *Engine) tableMeta(t *Table) *colMeta {
	h := newHash128()
	h.str(t.Name)
	h.int(len(t.Cols))
	for i := range t.Cols {
		h.str(t.Cols[i].Name)
	}
	key := colMetaKey{h.h1, h.h2}
	if m, ok := e.metas[key]; ok && m.qual == t.Name && len(m.cols) == len(t.Cols) {
		match := true
		for i := range t.Cols {
			if m.cols[i] != t.Cols[i].Name {
				match = false
				break
			}
		}
		if match {
			return m
		}
	}
	names := make([]string, len(t.Cols))
	for i := range t.Cols {
		names[i] = t.Cols[i].Name
	}
	return e.storeMeta(key, newColMeta(t.Name, names))
}

// relMeta returns the metadata of names qualified by qual.
func (e *Engine) relMeta(qual string, names []string) *colMeta {
	h := newHash128()
	h.str(qual)
	h.int(len(names))
	for _, c := range names {
		h.str(c)
	}
	key := colMetaKey{h.h1, h.h2}
	if m, ok := e.metas[key]; ok && m.qual == qual && slices.Equal(m.cols, names) {
		return m
	}
	return e.storeMeta(key, newColMeta(qual, names))
}

// storeMeta caches m under key, replacing a collided entry and clearing the
// cache at its cap.
func (e *Engine) storeMeta(key colMetaKey, m *colMeta) *colMeta {
	if e.metas == nil || len(e.metas) >= colMetaCap {
		e.metas = make(map[colMetaKey]*colMeta, 64)
	}
	e.metas[key] = m
	return m
}
