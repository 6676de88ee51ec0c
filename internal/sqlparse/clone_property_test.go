// Property tests for the structural clone that replaced clone-by-reparse on
// the hot path. The contract: for every statement the fuzzer can produce,
// the structural clone renders byte-identical SQL, agrees with the old
// render+reparse oracle, shares no mutable memory with the original (it
// shares exactly the immutable leaves), and mutating or fixing a clone
// never changes the original.
package sqlparse_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/instantiate"
	"github.com/seqfuzz/lego/internal/mutate"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// TestStructuralCloneMatchesReparse drives the structural clone with the
// fuzzer's own generator across every dialect and compares it against the
// render+reparse oracle.
func TestStructuralCloneMatchesReparse(t *testing.T) {
	for _, d := range sqlt.Dialects() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xBEEF))
			g := instantiate.NewGenerator(rng, d)
			for i := 0; i < 2000; i++ {
				s := g.Gen(g.RandomType())
				want := s.SQL()
				structural := s.Clone()
				oracle := sqlparse.CloneStatementByReparse(s)
				if got := structural.SQL(); got != want {
					t.Fatalf("structural clone differs from original:\n  orig:  %s\n  clone: %s", want, got)
				}
				if got := oracle.SQL(); got != want {
					t.Fatalf("reparse oracle differs from original:\n  orig:   %s\n  oracle: %s", want, got)
				}
			}
		})
	}
}

// TestStructuralCloneMatchesReparseOnSeeds runs the same comparison over
// every statement of the shipped seed corpus.
func TestStructuralCloneMatchesReparseOnSeeds(t *testing.T) {
	for _, d := range sqlt.Dialects() {
		for _, tc := range harness.InitialSeeds(d) {
			for _, s := range tc {
				want := s.SQL()
				if got := s.Clone().SQL(); got != want {
					t.Fatalf("structural clone differs on seed statement:\n  orig:  %s\n  clone: %s", want, got)
				}
				if got := sqlparse.CloneStatementByReparse(s).SQL(); got != want {
					t.Fatalf("reparse oracle differs on seed statement: %s", want)
				}
			}
		}
	}
}

// immutableLeaves returns the sqlast types whose declaration carries the
// //lego:immutable directive: the leaves a clone shares with its original.
func immutableLeaves(t *testing.T) map[reflect.Type]bool {
	t.Helper()
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join("..", "sqlast", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE || gd.Doc == nil {
				continue
			}
			for _, c := range gd.Doc.List {
				if c.Text == "//lego:immutable" || strings.HasPrefix(c.Text, "//lego:immutable ") {
					names = append(names, gd.Specs[0].(*ast.TypeSpec).Name.Name)
				}
			}
		}
	}
	sort.Strings(names)
	if got := strings.Join(names, ","); got != "ColRef,Literal,Star" {
		t.Fatalf("//lego:immutable types = %s, want ColRef,Literal,Star", got)
	}
	return map[reflect.Type]bool{
		reflect.TypeOf(sqlast.ColRef{}):  true,
		reflect.TypeOf(sqlast.Literal{}): true,
		reflect.TypeOf(sqlast.Star{}):    true,
	}
}

// TestStructuralCloneAliasingFree checks, by reflection walk, that a clone
// shares no mutable memory with its original — the property that makes
// canonical library storage and in-place mutation of clones safe. The
// //lego:immutable leaves (Literal, ColRef, Star) are the one exemption, and
// the walk asserts the converse for them: every leaf IS shared, so the
// copies cannot silently come back.
func TestStructuralCloneAliasingFree(t *testing.T) {
	leaves := immutableLeaves(t)
	rng := rand.New(rand.NewSource(0xA11A5))
	g := instantiate.NewGenerator(rng, sqlt.DialectPostgres)
	shared := 0
	for i := 0; i < 500; i++ {
		s := g.Gen(g.RandomType())
		c := s.Clone()
		shared += assertNoSharedMemory(t, s.SQL(), leaves, reflect.ValueOf(s), reflect.ValueOf(c))
	}
	if shared == 0 {
		t.Fatal("no immutable leaf was reached: the walk checked nothing")
	}
}

// assertNoSharedMemory fails if a and b reach any common mutable memory and
// returns how many immutable leaves they share. Strings are exempt
// (immutable backing arrays may be shared); pointers to a type in leaves
// must be shared, not copied.
func assertNoSharedMemory(t *testing.T, ctx string, leaves map[reflect.Type]bool, a, b reflect.Value) int {
	t.Helper()
	if !a.IsValid() || !b.IsValid() {
		return 0
	}
	shared := 0
	switch a.Kind() {
	case reflect.Ptr:
		if a.IsNil() || b.IsNil() {
			return 0
		}
		if leaves[a.Type().Elem()] {
			if a.Pointer() != b.Pointer() {
				t.Fatalf("clone copies immutable %s instead of sharing it\nstatement: %s", a.Type(), ctx)
			}
			return 1
		}
		// Zero-size objects (e.g. CheckpointStmt{}) all live at the runtime's
		// canonical address; identical pointers carry no shared state there.
		if a.Type().Elem().Size() == 0 {
			return 0
		}
		if a.Pointer() == b.Pointer() {
			t.Fatalf("clone shares %s pointer with original\nstatement: %s", a.Type(), ctx)
		}
		shared += assertNoSharedMemory(t, ctx, leaves, a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return 0
		}
		shared += assertNoSharedMemory(t, ctx, leaves, a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() || b.IsNil() || a.Len() == 0 {
			return 0
		}
		if a.Pointer() == b.Pointer() {
			t.Fatalf("clone shares %s slice with original\nstatement: %s", a.Type(), ctx)
		}
		for i := 0; i < a.Len() && i < b.Len(); i++ {
			shared += assertNoSharedMemory(t, ctx, leaves, a.Index(i), b.Index(i))
		}
	case reflect.Map:
		if a.IsNil() || b.IsNil() {
			return 0
		}
		if a.Pointer() == b.Pointer() {
			t.Fatalf("clone shares %s map with original\nstatement: %s", a.Type(), ctx)
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			shared += assertNoSharedMemory(t, ctx, leaves, a.Field(i), b.Field(i))
		}
	}
	return shared
}

// TestMutatedCloneLeavesOriginalIntact applies every mutation operator to
// clones of generated test cases and verifies the originals render the same
// SQL before and after — in-place mutation must only ever touch the clone.
func TestMutatedCloneLeavesOriginalIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED))
	inst := instantiate.New(rng, instantiate.NewLibrary(), sqlt.DialectMariaDB)
	m := &mutate.Mutator{Rng: rng, Inst: inst, MaxStatements: 8}
	for i := 0; i < 300; i++ {
		tc := inst.TestCase(sqlt.Sequence{sqlt.CreateTable, sqlt.Insert, sqlt.Update, sqlt.Select})
		before := tc.SQL()
		switch i % 4 {
		case 0:
			m.MutateValues(tc)
		case 1:
			m.SubstituteType(tc, rng.Intn(len(tc)))
		case 2:
			m.InsertAfter(tc, rng.Intn(len(tc)))
		case 3:
			m.DeleteAt(tc, rng.Intn(len(tc)))
		}
		if after := tc.SQL(); after != before {
			t.Fatalf("mutation %d changed the original test case:\n  before: %s\n  after:  %s", i%4, before, after)
		}
	}
}

// leafValues collects, in walk order, every immutable leaf reachable from v
// together with a copy of its value.
func leafValues(leaves map[reflect.Type]bool, v reflect.Value, out []leafValue) []leafValue {
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			return out
		}
		if leaves[v.Type().Elem()] {
			return append(out, leafValue{ptr: v.Pointer(), val: reflect.ValueOf(v.Elem().Interface())})
		}
		return leafValues(leaves, v.Elem(), out)
	case reflect.Interface:
		if !v.IsNil() {
			return leafValues(leaves, v.Elem(), out)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			out = leafValues(leaves, v.Index(i), out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = leafValues(leaves, v.Field(i), out)
		}
	}
	return out
}

// leafValue is one leaf's address and a copy of its fields.
type leafValue struct {
	ptr uintptr
	val reflect.Value
}

// TestSharedLeavesSurviveMutationAndFix runs every Algorithm 1 operator,
// value mutation, and the dependency fixer on clones of generated test
// cases, with the originals harvested into the library so instantiation
// hands out clones that share their leaves too. Afterwards each original
// must render the same SQL and reach the same leaves holding the same
// values: whatever the loop writes, it never writes a shared leaf.
func TestSharedLeavesSurviveMutationAndFix(t *testing.T) {
	leaves := immutableLeaves(t)
	for _, d := range sqlt.Dialects() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x1EAF))
			lib := instantiate.NewLibrary()
			inst := instantiate.New(rng, lib, d)
			m := mutate.New(rng, inst, d)
			const stmts, perCase = 2000, 4
			for i := 0; i < stmts/perCase; i++ {
				tc := make(sqlast.TestCase, perCase)
				for j := range tc {
					tc[j] = inst.Gen.Gen(inst.Gen.RandomType())
				}
				lib.Harvest(tc)
				before := tc.SQL()
				vals := leafValues(leaves, reflect.ValueOf(tc), nil)

				m.MutateValues(tc)
				m.SubstituteType(tc, rng.Intn(len(tc)))
				m.InsertAfter(tc, rng.Intn(len(tc)))
				m.DeleteAt(tc, rng.Intn(len(tc)))
				inst.Fixer.Fix(tc.Clone())

				sqlast.InvalidateTestCase(tc)
				if after := tc.SQL(); after != before {
					t.Fatalf("case %d changed:\n  before: %s\n  after:  %s", i, before, after)
				}
				got := leafValues(leaves, reflect.ValueOf(tc), nil)
				if len(got) != len(vals) {
					t.Fatalf("case %d: %d leaves before, %d after", i, len(vals), len(got))
				}
				for k := range vals {
					if got[k].ptr != vals[k].ptr || !reflect.DeepEqual(got[k].val.Interface(), vals[k].val.Interface()) {
						t.Fatalf("case %d: leaf %d changed from %+v to %+v\nstatement: %s", i, k, vals[k].val, got[k].val, before)
					}
				}
			}
		})
	}
}

// TestMemoInvalidation exercises the render memo directly: a cached render
// must be dropped by InvalidateSQL and recomputed from the mutated AST.
func TestMemoInvalidation(t *testing.T) {
	s := sqlparse.MustParseScript(`SELECT a FROM t WHERE a = 1;`)[0].(*sqlast.SelectStmt)
	first := s.SQL() // primes the memo
	s.Items[0].X = &sqlast.ColRef{Name: "b"}
	if got := s.SQL(); got != first {
		t.Fatalf("memo should still serve the cached render before invalidation, got %q", got)
	}
	sqlast.InvalidateSQL(s)
	if got := s.SQL(); got == first {
		t.Fatalf("InvalidateSQL did not drop the cached render: %q", got)
	} else if !strings.Contains(got, "SELECT b") {
		t.Fatalf("unexpected re-render: %q", got)
	}

	// Nested statements: invalidating the outer must reach the subquery.
	w := sqlparse.MustParseScript(`SELECT a FROM t WHERE a IN (SELECT b FROM u);`)[0].(*sqlast.SelectStmt)
	_ = w.SQL()
	in := w.Where.(*sqlast.InExpr)
	in.Query.Items[0].X = &sqlast.ColRef{Name: "c"}
	sqlast.InvalidateSQL(w)
	if got := w.SQL(); !strings.Contains(got, "SELECT c FROM u") {
		t.Fatalf("nested memo not invalidated: %q", got)
	}

	// Clones start cold: mutating a clone immediately re-renders.
	v := sqlparse.MustParseScript(`SELECT a FROM t;`)[0]
	_ = v.SQL()
	cl := v.Clone().(*sqlast.SelectStmt)
	cl.Items[0].X = &sqlast.ColRef{Name: "z"}
	if got := cl.SQL(); got != "SELECT z FROM t" {
		t.Fatalf("clone memo not cold: %q", got)
	}
	if got := v.SQL(); got != "SELECT a FROM t" {
		t.Fatalf("original disturbed by clone mutation: %q", got)
	}
}
