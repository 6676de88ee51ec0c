package minidb

import (
	"fmt"
	"reflect"
	"slices"
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
	if err := checkEvalScratch(e); err != nil {
		return err
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
		want := qualifiedMeta(t.Name, cols)
		if m, ok := e.metas[metaKeyOf(want.cols, want.quals)]; ok && !reflect.DeepEqual(m, want) {
			return fmt.Errorf("table %q: cached column metadata %+v, fresh %+v", n, *m, *want)
		}
		if got := e.tableMeta(t); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("table %q: looked-up column metadata %+v, fresh %+v", n, *got, *want)
		}
	}
	return nil
}

// checkEvalScratch reports evaluation state that outlived its statement:
// a machine still handed out or still referencing rows, scopes or values,
// a program-stack slot, or a join scratch level in use or holding values.
// Only the machines' literal and fallback slice storage may remain.
func checkEvalScratch(e *Engine) error {
	if e.machines.used != 0 {
		return fmt.Errorf("machine arena not rewound: %d machines in use", e.machines.used)
	}
	for i := range e.machines.block {
		m := &e.machines.block[i]
		want := machine{lits: m.lits, falls: m.falls}
		if !reflect.DeepEqual(*m, want) || len(m.lits) != 0 || len(m.falls) != 0 {
			return fmt.Errorf("arena machine %d still holds state: %+v", i, *m)
		}
		for _, v := range m.lits[:cap(m.lits)] {
			if v != (Value{}) {
				return fmt.Errorf("arena machine %d still holds literal %v", i, v)
			}
		}
		for _, x := range m.falls[:cap(m.falls)] {
			if x != nil {
				return fmt.Errorf("arena machine %d still holds fallback node %v", i, x)
			}
		}
	}
	if len(e.progStack) != 0 {
		return fmt.Errorf("program stack holds %d slots", len(e.progStack))
	}
	for _, b := range e.progStack[:cap(e.progStack)] {
		if b != (boundProg{}) {
			return fmt.Errorf("program stack storage still holds %+v", b)
		}
	}
	if e.joinDepth != 0 {
		return fmt.Errorf("join scratch stack at depth %d", e.joinDepth)
	}
	for i, js := range e.joins {
		for _, v := range js.pair[:cap(js.pair)] {
			if v != (Value{}) {
				return fmt.Errorf("join scratch %d still holds pair value %v", i, v)
			}
		}
		if len(js.pair) != 0 || js.row[0] != nil || !reflect.DeepEqual(js.probe, relation{}) ||
			len(js.sc.row) != 0 || js.sc.parent != nil {
			return fmt.Errorf("join scratch %d still holds state", i)
		}
	}
	return nil
}

// CheckColMetaCache reports a column-metadata cache entry that differs from
// a copy rebuilt from its own columns and qualifiers, or that sits under
// another content's key: either means a caller wrote through a shared
// slice.
func CheckColMetaCache(e *Engine) error {
	for key, m := range e.metas {
		want := newColMeta(slices.Clone(m.cols), slices.Clone(m.quals))
		if !reflect.DeepEqual(m, want) {
			return fmt.Errorf("cache entry (%v, %v) was written through: %+v, fresh %+v", m.quals, m.cols, *m, *want)
		}
		if key != metaKeyOf(m.cols, m.quals) {
			return fmt.Errorf("cache entry (%v, %v) sits under another content's key", m.quals, m.cols)
		}
	}
	return nil
}

// qualifiedMeta builds the metadata of names, every one qualified by qual.
func qualifiedMeta(qual string, names []string) *colMeta {
	quals := make([]string, len(names))
	for i := range quals {
		quals[i] = qual
	}
	return newColMeta(slices.Clone(names), quals)
}

// metaKeyOf is the cache key every column-metadata lookup computes for
// cols qualified per column by quals.
func metaKeyOf(cols, quals []string) colMetaKey {
	h := newHash128()
	h.int(len(cols))
	for i := range cols {
		h.str(quals[i])
		h.str(cols[i])
	}
	return colMetaKey{h.h1, h.h2}
}
