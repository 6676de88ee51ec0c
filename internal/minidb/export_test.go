package minidb

import (
	"fmt"
	"reflect"
	"sort"
)

// SetStmtIndex sets the statement ordinal RunTestCase would have set before
// executing statement i, which keys injected faults, so a test can step
// through a case one ExecStmt at a time.
func SetStmtIndex(e *Engine, i int) { e.stmtIndex = i }

// CheckStmtMemory reports the first violation of the invariants that hold
// between two statements on e (DESIGN.md §9, statement-scoped memory): the
// INSERT scratch stacks are empty, and every table's column metadata equals
// a freshly built copy — both the entry cached under the table's content
// key, read directly since a lookup would repair a written-through entry,
// and what a lookup returns.
func CheckStmtMemory(e *Engine) error {
	if n, v, r := len(e.insTargets), len(e.insVals), len(e.insRows); n+v+r != 0 {
		return fmt.Errorf("INSERT scratch stacks not empty: %d targets, %d values, %d rows", n, v, r)
	}
	names := make([]string, 0, len(e.cat.Tables))
	for n := range e.cat.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := e.cat.Tables[n]
		cols := make([]string, len(t.Cols))
		for i := range t.Cols {
			cols[i] = t.Cols[i].Name
		}
		want := newColMeta(t.Name, cols)
		if m, ok := e.metas[metaKeyOf(t.Name, cols)]; ok && !reflect.DeepEqual(m, want) {
			return fmt.Errorf("table %q: cached column metadata %+v, fresh %+v", n, *m, *want)
		}
		if got := e.tableMeta(t); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("table %q: looked-up column metadata %+v, fresh %+v", n, *got, *want)
		}
	}
	return nil
}

// CheckColMetaCache reports a column-metadata cache entry that differs from
// a copy rebuilt from its own qualifier and names, or that sits under
// another content's key: either means a caller wrote through a shared
// slice.
func CheckColMetaCache(e *Engine) error {
	for key, m := range e.metas {
		if want := newColMeta(m.qual, m.cols); !reflect.DeepEqual(m, want) {
			return fmt.Errorf("cache entry (%q, %v) was written through: %+v, fresh %+v", m.qual, m.cols, *m, *want)
		}
		if key != metaKeyOf(m.qual, m.cols) {
			return fmt.Errorf("cache entry (%q, %v) sits under another content's key", m.qual, m.cols)
		}
	}
	return nil
}

// metaKeyOf is the cache key tableMeta and relMeta compute for (qual, names).
func metaKeyOf(qual string, names []string) colMetaKey {
	h := newHash128()
	h.str(qual)
	h.int(len(names))
	for _, c := range names {
		h.str(c)
	}
	return colMetaKey{h.h1, h.h2}
}
