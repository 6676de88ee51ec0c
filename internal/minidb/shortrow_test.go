package minidb

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/seqfuzz/lego/internal/coverage"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// shortRowSetup fills t and u; runShortRows then cuts t's second row to two
// of the three columns, the shape a trigger that reshapes the table
// mid-scan leaves behind.
const shortRowSetup = `CREATE TABLE t (a INT, b INT, c INT);
INSERT INTO t VALUES (1, 10, 100), (2, 20, 200), (3, 30, 300);
CREATE TABLE u (a INT, b INT);
INSERT INTO u VALUES (1, 4), (2, 3);`

// runShortRows runs stmts on e against the short-row table and renders the
// outcome, the table's rows afterwards and the coverage the statements
// produced.
func runShortRows(e *Engine, stmts sqlast.TestCase) (string, []coverage.EdgeState) {
	e.RunTestCase(sqlparse.MustParseScript(shortRowSetup))
	tbl := e.cat.Tables["t"]
	tbl.Rows[1] = tbl.Rows[1][:2]
	tr := e.Tracer()
	tr.Reset()
	out := Outcome{Results: make([]*Result, len(stmts)), Errs: make([]error, len(stmts))}
	for i, s := range stmts {
		out.Executed++
		out.Results[i], out.Errs[i] = e.ExecStmt(s)
		if out.Errs[i] != nil {
			out.Errors++
		}
	}
	m := coverage.NewMap()
	m.Accumulate(tr)
	return renderOutcome(out) + fmt.Sprintf("table: %v\n", tbl.Rows), m.Export()
}

// setOpOrderedByName builds `SELECT a, b FROM u UNION ALL SELECT a FROM u`
// with `ORDER BY b, a DESC` on the outer query, so the sort sees rows of
// the right arm that are shorter than the output columns. The parser binds
// ORDER BY to the rightmost SELECT, so SQL text cannot produce this AST.
func setOpOrderedByName() *sqlast.SelectStmt {
	q := sqlparse.MustParseScript(`SELECT a, b FROM u UNION ALL SELECT a FROM u;`)[0].(*sqlast.SelectStmt)
	ordered := sqlparse.MustParseScript(`SELECT a FROM u ORDER BY b, a DESC;`)[0].(*sqlast.SelectStmt)
	q.OrderBy = ordered.OrderBy
	return q
}

// TestShortRowsMatchInterpreter pins the per-row fallbacks of the compiled
// paths: a row shorter than a program's layout binds fewer names than the
// program reads, so it must take the interpreter, and the outcome and the
// coverage must match a DisablePlanCache engine's. The short rows are
// built directly: ALTER TABLE backfills every row, and the set-operation
// sort is reachable only through a hand-built AST.
func TestShortRowsMatchInterpreter(t *testing.T) {
	cases := []struct {
		name  string
		stmts sqlast.TestCase
	}{
		{"delete-where", sqlparse.MustParseScript(`DELETE FROM t WHERE c > 150;`)},
		{"delete-order-by", sqlparse.MustParseScript(`DELETE FROM t WHERE a > 1 ORDER BY c DESC LIMIT 1;`)},
		{"update-where", sqlparse.MustParseScript(`UPDATE t SET a = a + 1 WHERE c < 250;`)},
		{"update-order-by", sqlparse.MustParseScript(`UPDATE t SET b = b + 1 WHERE a < 3 ORDER BY c LIMIT 2;`)},
		{"update-set", sqlparse.MustParseScript(`UPDATE t SET a = c + 1 WHERE a = 2; UPDATE t SET b = a * 2 WHERE b > 5;`)},
		{"setop-order-by", sqlast.TestCase{setOpOrderedByName()}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			compiled := New(Config{Dialect: sqlt.DialectMySQL})
			interp := New(Config{Dialect: sqlt.DialectMySQL, DisablePlanCache: true})
			outC, covC := runShortRows(compiled, c.stmts)
			outI, covI := runShortRows(interp, c.stmts)
			if outC != outI {
				t.Fatalf("outcomes diverged\ncompiled:\n%s\ninterpreter:\n%s", outC, outI)
			}
			if !reflect.DeepEqual(covC, covI) {
				t.Fatalf("coverage diverged: %d vs %d edges", len(covC), len(covI))
			}
			if st := compiled.PlanStats(); st.Compiles == 0 {
				t.Fatalf("compiled engine never compiled a plan: %+v", st)
			}
		})
	}
}
