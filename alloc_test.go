// Allocation budgets for the fuzz loop's hottest operations. Wall-clock
// benchmarks are machine-dependent and flaky in CI; allocation counts are
// exact and stable, so this test runs unconditionally in `make ci` and
// fails the moment a change regresses per-op allocation behaviour.
//
// The ceilings are fixed numbers, not measurements: they encode the
// performance contract established by the structural-clone and
// allocation-reuse work. Lowering one after an optimization is encouraged;
// raising one is a perf regression that needs justification.
package lego_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/coverage"
	"github.com/seqfuzz/lego/internal/instantiate"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// allocStmt is a representative hot-path statement: a join query with a
// WHERE clause and ORDER BY, the shape the mutators clone most.
const allocStmtSQL = `SELECT t1.v1, t2.v2 FROM t1 JOIN t2 ON (t1.v1 = t2.v1) WHERE (t1.v2 > 3) ORDER BY t1.v1 DESC LIMIT 10`

func TestAllocBudgets(t *testing.T) {
	stmt := sqlparse.MustParseScript(allocStmtSQL + ";")[0]
	tc := sqlparse.MustParseScript(`
CREATE TABLE t1 (v1 INT, v2 INT);
INSERT INTO t1 VALUES (1, 2);
SELECT v1 FROM t1 WHERE (v2 = 2);
`)

	check := func(name string, ceiling float64, f func()) {
		t.Helper()
		got := testing.AllocsPerRun(200, f)
		t.Logf("%-16s %5.1f allocs/op (budget %.0f)", name, got, ceiling)
		if got > ceiling {
			t.Errorf("%s: %.1f allocs/op, budget %.0f", name, got, ceiling)
		}
	}

	// Structural clone of the join query: one allocation per interior node
	// plus one per non-empty slice; the immutable leaves (literals, column
	// references, stars) are shared, not copied. The reparse path this
	// replaced cost hundreds.
	check("Statement.Clone", 10, func() {
		_ = stmt.Clone()
	})

	// Cold render of the join query: builder growth plus child renders.
	cold := stmt.(*sqlast.SelectStmt)
	check("render-cold", 20, func() {
		sqlast.InvalidateSQL(cold)
		_ = cold.SQL()
	})

	// Memoized render: zero — SQL() must return the cached string.
	_ = stmt.SQL()
	check("render-memoized", 0, func() {
		_ = stmt.SQL()
	})

	// Test-case clone: clone of every statement plus the slice header.
	check("TestCase.Clone", 12, func() {
		_ = tc.Clone()
	})

	// Dependency fix of an already-consistent case: the fixer empties one
	// simulated schema in place per call, so after warm-up only the
	// per-statement column lists and rewrite closures allocate.
	fixer := instantiate.NewFixer(rand.New(rand.NewSource(1)))
	fixer.Fix(tc)
	check("Fixer.Fix", 3, func() {
		fixer.Fix(tc)
	})

	// Coverage tracer hit and map accumulate: steady-state zero. The
	// tracer's touched list is pre-sized; Accumulate only reads it.
	tr := coverage.NewTracer()
	sites := []coverage.Site{
		coverage.NewSite("alloc-budget-a"),
		coverage.NewSite("alloc-budget-b"),
		coverage.NewSite("alloc-budget-c"),
	}
	check("Tracer.Hit", 0, func() {
		for _, s := range sites {
			tr.Hit(s)
		}
		tr.Reset()
	})

	m := coverage.NewMap()
	for _, s := range sites {
		tr.Hit(s)
	}
	m.Accumulate(tr)
	check("Map.Accumulate", 0, func() {
		_, _ = m.Accumulate(tr)
	})
	tr.Reset()

	// Compiled statement execution over a full (128-row) table. The ceiling
	// is a fixed per-statement cost (result assembly, filtered rows, sort
	// keys; machines come from the engine's arena) that does NOT scale with the scanned rows: per-row
	// evaluation on the compiled path — slot reads, comparisons, coverage
	// probes — must be allocation-free. On the interpreter this statement
	// cost a scope map write per row per column.
	eng := minidb.New(minidb.Config{Dialect: sqlt.DialectMySQL})
	var sb strings.Builder
	sb.WriteString("CREATE TABLE big (a INT, b INT);\n")
	sb.WriteString("INSERT INTO big VALUES (0, 0)")
	for i := 1; i < 128; i++ {
		fmt.Fprintf(&sb, ", (%d, %d)", i, i*3)
	}
	sb.WriteString(";\n")
	for _, s := range sqlparse.MustParseScript(sb.String()) {
		if _, err := eng.ExecStmt(s); err != nil {
			t.Fatal(err)
		}
	}
	sel := sqlparse.MustParseScript("SELECT a, b FROM big WHERE a = 100 AND b > 50 ORDER BY b;")[0]
	if _, err := eng.ExecStmt(sel); err != nil { // warm the plan cache
		t.Fatal(err)
	}
	check("ExecStmt-compiled", 13, func() {
		_, _ = eng.ExecStmt(sel)
	})

	// Warm compiled SELECT over a small table: the plan is cached, the
	// machines come from the engine's arena and the per-item programs from
	// its scratch stack, so what allocates is the result: the filtered and
	// output row slices, the two output rows and the column names.
	small := sqlparse.MustParseScript("SELECT b, a + 1 FROM big WHERE a < 2;")[0]
	if _, err := eng.ExecStmt(small); err != nil {
		t.Fatal(err)
	}
	check("SELECT-compiled", 10, func() {
		_, _ = eng.ExecStmt(small)
	})

	// Warm two-table JOIN: the join's column metadata comes from the
	// content-keyed cache and its probe row and scope from the join scratch
	// stack, so only the joined rows and the result allocate.
	join := minidb.New(minidb.Config{Dialect: sqlt.DialectMySQL})
	for _, s := range sqlparse.MustParseScript(`
CREATE TABLE t1 (v1 INT, v2 INT);
CREATE TABLE t2 (v1 INT, v2 INT);
INSERT INTO t1 VALUES (1, 5), (2, 6), (3, 1);
INSERT INTO t2 VALUES (1, 7), (2, 8), (4, 9);
`) {
		if _, err := join.ExecStmt(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := join.ExecStmt(stmt); err != nil {
		t.Fatal(err)
	}
	check("SELECT-join", 28, func() {
		_, _ = join.ExecStmt(stmt)
	})

	// SQL errors: about a third of fuzzed statements fail, and nothing on
	// the fuzz loop reads an error's text. A missing relation costs only
	// the lazily rendered error value; a constant message is a sentinel.
	missing := sqlparse.MustParseScript("SELECT a FROM nosuch;")[0]
	check("SELECT-missing", 1, func() {
		if _, err := eng.ExecStmt(missing); err == nil {
			t.Fatal("SELECT from a missing relation succeeded")
		}
	})
	commit := sqlparse.MustParseScript("COMMIT;")[0]
	check("COMMIT-no-txn", 0, func() {
		if _, err := eng.ExecStmt(commit); err == nil {
			t.Fatal("COMMIT outside a transaction succeeded")
		}
	})

	// A two-row INSERT … VALUES: the target columns and evaluated values
	// live on the engine's scratch stacks and the Result in its arena, so
	// only the two stored rows allocate (the table's row slice grows by
	// doubling, which amortizes to nothing). The row cap is lifted so every
	// run inserts.
	lim := minidb.DefaultLimits()
	lim.MaxRowsPerTable = 1 << 20
	ins := minidb.New(minidb.Config{Dialect: sqlt.DialectMySQL, Limits: lim})
	if _, err := ins.ExecStmt(sqlparse.MustParseScript("CREATE TABLE r2 (a INT, b TEXT);")[0]); err != nil {
		t.Fatal(err)
	}
	insert := sqlparse.MustParseScript("INSERT INTO r2 VALUES (1, 'x'), (2, 'y');")[0]
	check("INSERT-2-rows", 2, func() {
		if _, err := ins.ExecStmt(insert); err != nil {
			t.Fatal(err)
		}
	})

	// Engine reset between test cases: the catalog, session and
	// transaction stacks are emptied in place, so once a dirty test case
	// has given them storage, a reset allocates nothing.
	eng.RunTestCase(sqlparse.MustParseScript(`
CREATE TABLE r (a INT);
CREATE INDEX ri ON r (a);
SET x = 1;
BEGIN;
SAVEPOINT sp0;
`))
	check("RunTestCase-reset", 0, func() {
		eng.RunTestCase(nil)
	})

	// MERGE over an n×n row pair: one scope map per statement, cleared and
	// rebound for every row pair, so the cost is fixed per statement and
	// must not grow with the row count. The qualified keys are the tables'
	// shared column metadata.
	// The ON predicate matches no pair, so the tables stay unchanged, and
	// it names target columns unqualified: the interpreter builds each
	// qualified column key per evaluation, a per-row cost of its own.
	for _, n := range []int{4, 64} {
		eng := minidb.New(minidb.Config{Dialect: sqlt.DialectMariaDB})
		var sb strings.Builder
		sb.WriteString("CREATE TABLE tgt (a INT, b INT);\nCREATE TABLE src (a INT, b INT);\n")
		for _, tbl := range []string{"tgt", "src"} {
			fmt.Fprintf(&sb, "INSERT INTO %s VALUES (0, 0)", tbl)
			for i := 1; i < n; i++ {
				fmt.Fprintf(&sb, ", (%d, %d)", i, i)
			}
			sb.WriteString(";\n")
		}
		for _, s := range sqlparse.MustParseScript(sb.String()) {
			if _, err := eng.ExecStmt(s); err != nil {
				t.Fatal(err)
			}
		}
		merge := sqlparse.MustParseScript("MERGE INTO tgt USING src ON b < a - 1000 WHEN MATCHED THEN UPDATE SET b = src.b;")[0]
		check(fmt.Sprintf("MERGE-%dx%d", n, n), 4, func() {
			if _, err := eng.ExecStmt(merge); err != nil {
				t.Fatal(err)
			}
		})
	}
}
