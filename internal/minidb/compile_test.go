package minidb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/coverage"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// renderOutcome flattens an outcome into a comparable string: result shape,
// row values, messages, and error texts in statement order. RunTestCase
// reuses its result buffers across calls, so outcomes must be rendered
// before the next run.
func renderOutcome(out Outcome) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "executed=%d errors=%d\n", out.Executed, out.Errors)
	for i := range out.Results {
		if r := out.Results[i]; r != nil {
			fmt.Fprintf(&sb, "%d: cols=%v affected=%d msg=%q rows=", i, r.Cols, r.Affected, r.Msg)
			for _, row := range r.Rows {
				sb.WriteByte('[')
				for _, v := range row {
					sb.WriteString(v.String())
					sb.WriteByte(',')
				}
				sb.WriteByte(']')
			}
			sb.WriteByte('\n')
		}
		if err := out.Errs[i]; err != nil {
			fmt.Fprintf(&sb, "%d: err=%v\n", i, err)
		}
	}
	return sb.String()
}

// equivalenceScripts exercises every expression position the compiler lowers
// (WHERE, projection, ORDER BY, join ON, window partition/order, UPDATE SET,
// DELETE WHERE) plus every fallback (subqueries, EXISTS, function calls) and
// the error paths (unknown columns, division, depth). The compiled engine
// must match the interpreter on results, errors, AND coverage.
var equivalenceScripts = []string{
	// Comparisons, arithmetic, 3-valued logic, NULL propagation.
	`CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 10), (2, 20), (3, NULL);
SELECT a, b FROM t WHERE a > 1 AND b < 30;
SELECT a FROM t WHERE b IS NULL;
SELECT a FROM t WHERE NOT (a = 2) OR b = 10;
SELECT a + b, a - b, a * 2, b / a, b % a FROM t;
SELECT -a, a / 0 FROM t;
SELECT a FROM t WHERE NULL AND a = 1;
SELECT a FROM t WHERE NULL OR a = 1;`,

	// Strings, concat, CASE, casts, IN lists.
	`CREATE TABLE s (k INT, name VARCHAR(100));
INSERT INTO s VALUES (1, 'aa'), (2, 'bb'), (3, NULL);
SELECT name || '-' || k FROM s;
SELECT CASE WHEN k = 1 THEN 'one' WHEN k = 2 THEN 'two' ELSE 'many' END FROM s;
SELECT CASE k WHEN 1 THEN 10 ELSE 0 END FROM s;
SELECT CAST(k AS TEXT), CAST('12' AS INT) FROM s;
SELECT k FROM s WHERE k IN (1, 3);
SELECT k FROM s WHERE k NOT IN (99, NULL);`,

	// Fallback nodes: subqueries in value position, IN (subquery), EXISTS,
	// function calls — all re-enter the interpreter from compiled programs.
	`CREATE TABLE f (a INT, b VARCHAR(100));
INSERT INTO f VALUES (1, 'x'), (2, 'y');
SELECT a FROM f WHERE a = (SELECT MAX(a) FROM f);
SELECT a FROM f WHERE a IN (SELECT a FROM f WHERE b = 'x');
SELECT a FROM f WHERE EXISTS (SELECT 1 FROM f WHERE b = 'zzz');
SELECT UPPER(b), LENGTH(b) FROM f WHERE LENGTH(b) = 1;`,

	// Joins (compiled ON), ORDER BY expressions and ordinals, LIMIT.
	`CREATE TABLE ja (id INT, v INT);
CREATE TABLE jb (id INT, w INT);
INSERT INTO ja VALUES (1, 10), (2, 20), (3, 30);
INSERT INTO jb VALUES (1, 100), (2, 200);
SELECT ja.v, jb.w FROM ja JOIN jb ON ja.id = jb.id;
SELECT ja.v FROM ja LEFT JOIN jb ON ja.id = jb.id AND jb.w > 100;
SELECT v FROM ja ORDER BY v * -1;
SELECT v, id FROM ja ORDER BY 2 DESC, v LIMIT 2;`,

	// Windows: compiled partition/order keys around interpreted frames.
	`CREATE TABLE w (g INT, v INT);
INSERT INTO w VALUES (1, 10), (1, 20), (2, 30);
SELECT ROW_NUMBER() OVER (PARTITION BY g ORDER BY v DESC) FROM w;
SELECT v, RANK() OVER (ORDER BY v + 0) FROM w ORDER BY v;
SELECT SUM(v) OVER (PARTITION BY g) FROM w ORDER BY 1;
SELECT LEAD(v) OVER (ORDER BY v) FROM w ORDER BY 1 DESC;`,

	// DML: compiled WHERE/ORDER BY in UPDATE/DELETE, compiled SET exprs,
	// and the trigger gate (SET exprs stay interpreted under triggers).
	`CREATE TABLE d (a INT, b INT);
INSERT INTO d VALUES (1, 10), (2, 20), (3, 30);
UPDATE d SET b = b + a WHERE a > 1;
SELECT * FROM d;
DELETE FROM d WHERE b > 25;
SELECT * FROM d;
CREATE TABLE log (m INT);
CREATE TRIGGER tg AFTER UPDATE ON d FOR EACH ROW INSERT INTO log VALUES (1);
UPDATE d SET b = a * 100 WHERE a = 1;
SELECT * FROM d;
SELECT * FROM log;`,

	// Error paths: unknown columns, type mismatches, nesting past the eval
	// depth limit. Both paths must produce identical error text and probes.
	`CREATE TABLE e1 (a INT);
INSERT INTO e1 VALUES (1);
SELECT nosuch FROM e1;
SELECT a FROM e1 WHERE nosuch = 1;
SELECT a FROM e1 WHERE a = ((((((((((((((((((((((((((1))))))))))))))))))))))))));
SELECT a + 'x' FROM e1;`,

	// Set operations and aggregates around compiled ORDER BY.
	`CREATE TABLE u (a INT, b INT);
INSERT INTO u VALUES (1, 2), (3, 4);
SELECT a FROM u UNION SELECT b FROM u ORDER BY a DESC;
SELECT SUM(a), COUNT(b) FROM u;
SELECT a FROM u GROUP BY a HAVING SUM(b) > 2 ORDER BY a;`,
}

// runEquiv executes one script on an engine and returns the rendered
// outcome plus the coverage it produced.
func runEquiv(e *Engine, script string) (string, []coverage.EdgeState) {
	tc := sqlparse.MustParseScript(script)
	tr := e.Tracer()
	tr.Reset()
	out := e.RunTestCase(tc)
	rendered := renderOutcome(out)
	m := coverage.NewMap()
	m.Accumulate(tr)
	return rendered, m.Export()
}

// TestCompiledMatchesInterpreter is the coverage-equivalence contract: for
// every script, the default (compiled) engine and a DisablePlanCache engine
// produce identical results, identical errors, and identical coverage. The
// engines are reused across scripts so later cases run against warm caches —
// exactly the fuzzing steady state.
func TestCompiledMatchesInterpreter(t *testing.T) {
	compiled := New(Config{Dialect: sqlt.DialectMySQL})
	interp := New(Config{Dialect: sqlt.DialectMySQL, DisablePlanCache: true})
	for i, script := range equivalenceScripts {
		outC, covC := runEquiv(compiled, script)
		outI, covI := runEquiv(interp, script)
		if outC != outI {
			t.Errorf("script %d: outcomes diverged\ncompiled:\n%s\ninterpreter:\n%s", i, outC, outI)
		}
		if !reflect.DeepEqual(covC, covI) {
			t.Errorf("script %d: coverage diverged: %d vs %d edges", i, len(covC), len(covI))
		}
	}
	if st := compiled.PlanStats(); st.Compiles == 0 {
		t.Fatalf("compiled engine never compiled a plan: %+v", st)
	}
	if st := interp.PlanStats(); st.Compiles != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("DisablePlanCache engine touched the plan cache: %+v", st)
	}
}

// TestPlanCacheReuseAcrossLiterals: literal values are abstracted out of the
// shape hash, so value-mutated statements — the dominant fuzzing mutation —
// hit plans compiled for their siblings.
func TestPlanCacheReuseAcrossLiterals(t *testing.T) {
	e := New(Config{Dialect: sqlt.DialectMySQL})
	run(t, e, `
CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 10), (2, 20);
SELECT b FROM t WHERE a = 1;
`)
	base := e.PlanStats()
	run(t, e, `
CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 10), (2, 20);
SELECT b FROM t WHERE a = 2;
`)
	st := e.PlanStats()
	if st.Hits <= base.Hits {
		t.Fatalf("value-mutated statement missed the cache: before %+v, after %+v", base, st)
	}
	if st.Compiles != base.Compiles {
		t.Fatalf("value-mutated statement recompiled: before %+v, after %+v", base, st)
	}
}

// TestDDLInvalidatesPlans: renaming columns changes the layout, which is
// part of every affected plan's key, so a statement that would have read
// stale slots is recompiled against the new shape and stays equivalent to
// the interpreter.
func TestDDLInvalidatesPlans(t *testing.T) {
	const script = `
CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 10);
SELECT a FROM t WHERE a = 1;
ALTER TABLE t RENAME COLUMN a TO z;
ALTER TABLE t RENAME COLUMN b TO a;
SELECT a FROM t WHERE a = 10;
SELECT z FROM t WHERE a = 10;
`
	compiled := New(Config{Dialect: sqlt.DialectMySQL})
	interp := New(Config{Dialect: sqlt.DialectMySQL, DisablePlanCache: true})
	outC, covC := runEquiv(compiled, script)
	outI, covI := runEquiv(interp, script)
	if outC != outI {
		t.Fatalf("post-DDL outcomes diverged\ncompiled:\n%s\ninterpreter:\n%s", outC, outI)
	}
	if !reflect.DeepEqual(covC, covI) {
		t.Fatalf("post-DDL coverage diverged")
	}
	// The second SELECT must have found the renamed column's data: column
	// "a" is the old b (value 10), so the plan compiled for the original
	// shape cannot have been reused.
	if !strings.Contains(outC, "rows=[10,]") {
		t.Fatalf("post-DDL SELECT did not see the new schema:\n%s", outC)
	}
}

// TestPlanCacheIgnoresUnreadSchema: a compiled program reads only its
// expression shape and its layout, so the cache key holds nothing else. A
// SELECT compiled before an unrelated CREATE TABLE is still a hit after it,
// and a change of column types, which keeps the layout, reuses the program
// and stays equivalent to the interpreter.
func TestPlanCacheIgnoresUnreadSchema(t *testing.T) {
	e := New(Config{Dialect: sqlt.DialectMySQL})
	run(t, e, `
CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 10), (2, 20);
SELECT b FROM t WHERE a = 1;
`)
	base := e.PlanStats()
	run(t, e, `
CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 10), (2, 20);
CREATE TABLE unrelated (x TEXT);
SELECT b FROM t WHERE a = 1;
`)
	if st := e.PlanStats(); st.Compiles != base.Compiles || st.Hits <= base.Hits {
		t.Fatalf("SELECT after an unrelated CREATE TABLE missed the cache: before %+v, after %+v", base, st)
	}

	const typed = `
CREATE TABLE t (a TEXT, b FLOAT);
INSERT INTO t VALUES ('1', 1.5), (' 2', 2.5), ('x', 3.5);
SELECT b FROM t WHERE a = 1;
SELECT b FROM t WHERE a = 2 ORDER BY b DESC;
`
	interp := New(Config{Dialect: sqlt.DialectMySQL, DisablePlanCache: true})
	runEquiv(e, `CREATE TABLE t (a INT, b INT); SELECT b FROM t WHERE a = 2 ORDER BY b DESC;`)
	before := e.PlanStats()
	outC, covC := runEquiv(e, typed)
	outI, covI := runEquiv(interp, typed)
	if st := e.PlanStats(); st.Compiles != before.Compiles {
		t.Fatalf("type-only change recompiled: before %+v, after %+v", before, st)
	}
	if outC != outI {
		t.Fatalf("after a type-only change the outcomes diverged\ncompiled:\n%s\ninterpreter:\n%s", outC, outI)
	}
	if !reflect.DeepEqual(covC, covI) {
		t.Fatalf("after a type-only change the coverage diverged")
	}
}

// TestPlanCacheRevalidatesLayout: with the layout the only schema a
// program depends on, a hit must verify it in full. A program planted under
// the key another layout hashes to — what a signature collision would leave
// there — is recompiled, never handed out.
func TestPlanCacheRevalidatesLayout(t *testing.T) {
	e := New(Config{Dialect: sqlt.DialectMySQL})
	x := sqlparse.MustParseScript(`SELECT a FROM t WHERE a = 1;`)[0].(*sqlast.SelectStmt).Where
	ab := qualifiedMeta("t", []string{"a", "b"}).tabLay
	ba := qualifiedMeta("t", []string{"b", "a"}).tabLay
	planted := e.compiledFor(x, ab)
	h := newHash128()
	shapeHash(&h, x)
	l1, l2 := ba.signature()
	e.plans.m[planKey{s1: h.h1, s2: h.h2, l1: l1, l2: l2}] = planted
	before := e.PlanStats()
	p := e.compiledFor(x, ba)
	if p == planted || !p.lay.equal(&ba) {
		t.Fatalf("cache handed out the program compiled for (a, b) to layout (b, a)")
	}
	if st := e.PlanStats(); st.Compiles != before.Compiles+1 {
		t.Fatalf("colliding entry was not recompiled: before %+v, after %+v", before, st)
	}
}

// TestBinderSlotCounts: the binder walks the compiler's preorder, so every
// literal and fallback slot the compiler allocated must be populated.
func TestBinderSlotCounts(t *testing.T) {
	e := New(Config{Dialect: sqlt.DialectMySQL})
	run(t, e, `CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (1, 2);`)
	tbl := e.cat.Tables["t"]
	if tbl == nil {
		t.Fatal("table t missing")
	}
	stmt := sqlparse.MustParseScript(
		`SELECT a FROM t WHERE a = 1 AND b IN (2, 3) AND LENGTH('x') = (SELECT 1);`)[0].(*sqlast.SelectStmt)
	p, m := e.preparedEval(stmt.Where, e.tableLayout(tbl), nil)
	if len(m.lits) != p.nlits || len(m.falls) != p.nfalls {
		t.Fatalf("binder slots: lits %d/%d, falls %d/%d", len(m.lits), p.nlits, len(m.falls), p.nfalls)
	}
	if p.nlits == 0 {
		t.Fatal("expected literal slots")
	}
	if p.nfalls == 0 {
		t.Fatal("expected fallback slots (function call, subquery)")
	}
}

// TestCompiledEvalZeroAllocPerRow pins the compiled hot path's allocation
// contract: evaluating a slot-read comparison over bound rows allocates
// nothing. This is the per-row cost the plan cache exists to reach.
func TestCompiledEvalZeroAllocPerRow(t *testing.T) {
	e := New(Config{Dialect: sqlt.DialectMySQL})
	run(t, e, `CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (1, 2);`)
	tbl := e.cat.Tables["t"]
	stmt := sqlparse.MustParseScript(`SELECT a FROM t WHERE a > 0 AND b < 10;`)[0].(*sqlast.SelectStmt)
	p, m := e.preparedEval(stmt.Where, e.tableLayout(tbl), nil)
	row := []Value{Int(1), Int(2)}
	// Warm the tracer's touched edges so steady-state probes only bump counts.
	m.bindRow(row)
	if _, err := p.code(m, 1); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(500, func() {
		e.stepsUsed = 0 // per-statement watchdog budget, reset by ExecStmt in production
		m.bindRow(row)
		if _, err := p.code(m, 1); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Fatalf("compiled per-row eval allocates: %.1f allocs/op, want 0", got)
	}
}
