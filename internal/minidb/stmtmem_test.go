package minidb_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// stepCase runs tc on e one statement at a time from a reset engine,
// checking the statement-memory invariants (minidb.CheckStmtMemory) after
// every statement and the whole column-metadata cache after the case, and
// renders what each statement returned. A result's column names belong to
// the caller, so before the check stepCase overwrites them, as a caller
// may: were they the engine's shared metadata, the checks would catch it.
// A panic — a seeded bug or an injected fault — ends the case, as it ends
// RunTestCase.
func stepCase(t *testing.T, e *minidb.Engine, tc sqlast.TestCase) (out string, panicked bool) {
	t.Helper()
	e.RunTestCase(nil)
	var sb strings.Builder
	for i, s := range tc {
		minidb.SetStmtIndex(e, i)
		var res *minidb.Result
		var err error
		p := func() (p any) {
			defer func() { p = recover() }()
			res, err = e.ExecStmt(s)
			return nil
		}()
		switch {
		case p != nil:
			fmt.Fprintf(&sb, "%d: panic: %v\n", i, p)
		case err != nil:
			fmt.Fprintf(&sb, "%d: err=%v\n", i, err)
		default:
			fmt.Fprintf(&sb, "%d: cols=%v affected=%d rows=%v\n", i, res.Cols, res.Affected, res.Rows)
			for c := range res.Cols {
				res.Cols[c] = "overwritten by the caller"
			}
		}
		if cerr := minidb.CheckStmtMemory(e); cerr != nil {
			t.Fatalf("after statement %d (%s): %v\nSQL:\n%s", i, s.SQL(), cerr, tc.SQL())
		}
		if p != nil {
			panicked = true
			break
		}
	}
	if err := minidb.CheckColMetaCache(e); err != nil {
		t.Fatalf("after the case: %v\nSQL:\n%s", err, tc.SQL())
	}
	return sb.String(), panicked
}

// TestStmtMemoryOnOracleCorpus is the differential oracle for the shared
// column-metadata cache and the INSERT scratch stacks: after every
// statement of the oracle corpus, on one long-lived engine per dialect with
// hazards armed, each table's cached metadata must equal a freshly built
// copy and the scratch stacks must be empty — after successes, SQL errors
// and seeded-bug panics alike — and after every case no cache entry may
// have been written through.
func TestStmtMemoryOnOracleCorpus(t *testing.T) {
	panics := 0
	for _, d := range sqlt.Dialects() {
		t.Run(d.String(), func(t *testing.T) {
			e := minidb.New(minidb.Config{Dialect: d, EnableHazards: true})
			for _, tc := range oracleCases(d) {
				if _, p := stepCase(t, e, tc); p {
					panics++
				}
			}
		})
	}
	if panics == 0 {
		t.Errorf("no seeded bug fired: the corpus no longer covers the panic path")
	}
}

// insertPathsSQL drives every INSERT path through the scratch stacks:
// multi-row VALUES, a row failing a constraint after earlier rows were
// stored, a column list, an arity error, INSERT … SELECT, and an AFTER
// trigger whose body is itself a multi-row INSERT.
const insertPathsSQL = `
CREATE TABLE t (a INT PRIMARY KEY, b INT NOT NULL);
CREATE TABLE log (m INT);
CREATE TRIGGER tg AFTER INSERT ON t FOR EACH ROW INSERT INTO log VALUES (1), (2);
INSERT INTO t VALUES (1, 1), (2, 2), (3, 3);
INSERT INTO t VALUES (4, 4), (5, NULL);
INSERT INTO t VALUES (6, 6), (1, 1);
INSERT INTO t (b, a) VALUES (7, 7), (8, 8);
INSERT INTO t VALUES (9);
INSERT INTO t SELECT a + 100, b FROM t WHERE a < 3;
SELECT COUNT(*) FROM log;
SELECT * FROM t WHERE a > 5;
`

// stmtMemCases target the schema changes the column-metadata cache must
// see through, the column-list renames that write into result column
// slices, and the INSERT paths the scratch stacks must survive. Each runs
// on a long-lived engine (so the cache carries entries across cases) and
// on a fresh one, and the two must agree; want lists fragments the
// long-lived run's output must contain. A case runs in PostgreSQL and
// MariaDB unless it names its dialects, with the seeded bugs disarmed
// unless it arms them.
var stmtMemCases = []struct {
	name     string
	dialects []sqlt.Dialect
	hazards  bool
	sql      string
	want     []string
}{
	{
		name: "alter-columns",
		sql: `
CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 10), (2, 20);
SELECT a, b FROM t WHERE a = 1;
ALTER TABLE t ADD COLUMN c INT DEFAULT 7;
SELECT * FROM t WHERE c = 7;
UPDATE t SET b = b + 1 WHERE c = 7;
ALTER TABLE t RENAME COLUMN b TO z;
SELECT z FROM t WHERE z > 15;
SELECT b FROM t WHERE a = 1;
ALTER TABLE t DROP COLUMN a;
SELECT * FROM t WHERE z > 0;
DELETE FROM t WHERE z = 11;
SELECT * FROM t;
`,
		want: []string{
			"4: cols=[a b c] affected=0 rows=[[1 10 7] [2 20 7]]",
			"7: cols=[z] affected=0 rows=[[21]]",
			`8: err=column "b" does not exist`,
			"12: cols=[z c] affected=0 rows=[[21 7]]",
		},
	},
	{
		name:     "rename-table",
		dialects: []sqlt.Dialect{sqlt.DialectMySQL, sqlt.DialectMariaDB},
		sql: `
CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 2);
SELECT t.a FROM t WHERE t.b = 2;
RENAME TABLE t TO u;
SELECT u.a FROM u WHERE u.b = 2;
SELECT t.a FROM u WHERE u.b = 2;
CREATE TABLE t (b INT, a INT);
INSERT INTO t VALUES (5, 6);
SELECT t.a, t.b FROM t WHERE t.a = 6;
`,
		want: []string{
			"4: cols=[a] affected=0 rows=[[1]]",
			"8: cols=[a b] affected=0 rows=[[6 5]]",
		},
	},
	{
		name: "drop-and-recreate",
		sql: `
CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 2);
SELECT * FROM t WHERE b = 2;
DROP TABLE t;
CREATE TABLE t (x TEXT, a INT, y INT);
INSERT INTO t VALUES ('p', 3, 4);
SELECT * FROM t WHERE a = 3;
UPDATE t SET y = a WHERE x = 'p';
SELECT y FROM t;
`,
		want: []string{
			"6: cols=[x a y] affected=0 rows=[[p 3 4]]",
			"8: cols=[y] affected=0 rows=[[3]]",
		},
	},
	{
		name: "rollback-restores-pre-alter-table",
		sql: `
CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 2);
BEGIN;
ALTER TABLE t ADD COLUMN c INT;
SELECT * FROM t WHERE a = 1;
ROLLBACK;
SELECT * FROM t WHERE a = 1;
BEGIN;
SAVEPOINT sp;
ALTER TABLE t DROP COLUMN b;
SELECT * FROM t WHERE a = 1;
ROLLBACK TO SAVEPOINT sp;
SELECT * FROM t WHERE b = 2;
COMMIT;
`,
		want: []string{
			"4: cols=[a b c] affected=0 rows=[[1 2 NULL]]",
			"6: cols=[a b] affected=0 rows=[[1 2]]",
			"10: cols=[a] affected=0 rows=[[1]]",
			"12: cols=[a b] affected=0 rows=[[1 2]]",
		},
	},
	{
		name: "column-list-renames",
		sql: `
CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 2);
CREATE VIEW v (x, y) AS SELECT * FROM t;
SELECT x, y FROM v WHERE x = 1;
SELECT v.y FROM v;
WITH w (p, q) AS (SELECT * FROM t) SELECT p, q FROM w WHERE q = 2;
SELECT * FROM t WHERE a = 1;
SELECT s.a FROM (SELECT * FROM t) AS s WHERE s.b = 2;
`,
		want: []string{
			"3: cols=[x y] affected=0 rows=[[1 2]]",
			"4: cols=[y] affected=0 rows=[[2]]",
			"5: cols=[p q] affected=0 rows=[[1 2]]",
			"6: cols=[a b] affected=0 rows=[[1 2]]",
			"7: cols=[a] affected=0 rows=[[1]]",
		},
	},
	{
		name:     "table-statement",
		dialects: []sqlt.Dialect{sqlt.DialectPostgres},
		sql: `
CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 2);
TABLE t;
SELECT a FROM t WHERE b = 2;
`,
		want: []string{
			"2: cols=[a b] affected=0 rows=[[1 2]]",
			"3: cols=[a] affected=0 rows=[[1]]",
		},
	},
	{
		name: "insert-paths",
		sql:  insertPathsSQL,
		want: []string{
			"3: cols=[] affected=3",
			`4: err=null value in column "b" violates not-null constraint`,
			"5: err=duplicate key value violates unique constraint",
			"7: err=INSERT has 1 values but 2 target columns",
			// Every stored row of t fired the trigger once: 3+1+1+2+2.
			"9: cols=[count] affected=0 rows=[[18]]",
			"10: cols=[a b] affected=0 rows=[[6 6] [7 7] [8 8] [101 1] [102 2]]",
		},
	},
	{
		// A table may be named "": its rowScope keys are ".col", while a
		// relation with an empty qualifier binds no qualified keys.
		name:     "empty-table-name",
		dialects: []sqlt.Dialect{sqlt.DialectPostgres},
		sql: `
CREATE TABLE "" (a INT, b INT CHECK (b > 0));
INSERT INTO "" VALUES (1, 1), (2, 2);
SELECT "".a FROM "" WHERE "".b = 2;
UPDATE "" SET a = 5 WHERE a = 1;
DELETE FROM "" WHERE b = 2;
SELECT * FROM "";
INSERT INTO "" VALUES (3, 0);
`,
		want: []string{
			"2: cols=[a] affected=0 rows=[[2]]",
			"5: cols=[a b] affected=0 rows=[[5 1]]",
			`6: err=check constraint on "b" failed`,
		},
	},
	{
		// A seeded bug fires inside a trigger body while the outer INSERT
		// still holds two evaluated rows on the scratch stacks.
		name:     "bug-panics-inside-insert",
		dialects: []sqlt.Dialect{sqlt.DialectPostgres},
		hazards:  true,
		sql: `
CREATE TABLE t (a INT);
CREATE TABLE log (m INT);
CREATE RULE r AS ON INSERT TO log DO INSTEAD NOTIFY ch;
CREATE TRIGGER tg AFTER INSERT ON t FOR EACH ROW WITH w AS (INSERT INTO log VALUES (1), (2)) SELECT 1;
INSERT INTO t VALUES (1), (2);
`,
		want: []string{"4: panic: SEGV: BUG #17152"},
	},
}

// TestStmtMemoryTargeted runs stmtMemCases through stepCase's checks on a
// long-lived engine per dialect (whose cache carries entries from earlier
// cases) and on a fresh engine per case.
func TestStmtMemoryTargeted(t *testing.T) {
	for _, d := range sqlt.Dialects() {
		long := map[bool]*minidb.Engine{
			false: minidb.New(minidb.Config{Dialect: d}),
			true:  minidb.New(minidb.Config{Dialect: d, EnableHazards: true}),
		}
		for _, c := range stmtMemCases {
			dialects := c.dialects
			if dialects == nil {
				dialects = []sqlt.Dialect{sqlt.DialectPostgres, sqlt.DialectMariaDB}
			}
			if !slices.Contains(dialects, d) {
				continue
			}
			t.Run(d.String()+"/"+c.name, func(t *testing.T) {
				tc := sqlparse.MustParseScript(c.sql)
				got, _ := stepCase(t, long[c.hazards], tc)
				fresh, _ := stepCase(t, minidb.New(minidb.Config{Dialect: d, EnableHazards: c.hazards}), tc)
				if got != fresh {
					t.Fatalf("long-lived engine diverged from a fresh one\nlong-lived:\n%s\nfresh:\n%s", got, fresh)
				}
				for _, w := range c.want {
					if !strings.Contains(got, w) {
						t.Errorf("output lacks %q:\n%s", w, got)
					}
				}
			})
		}
	}
}

// TestStmtMemoryUnderInjectedFaults checks the invariants when injected
// engine faults panic before or after a statement's dispatch, INSERTs
// with nested trigger INSERTs included, over many fault schedules.
func TestStmtMemoryUnderInjectedFaults(t *testing.T) {
	tc := sqlparse.MustParseScript(insertPathsSQL)
	e := minidb.New(minidb.Config{Dialect: sqlt.DialectMariaDB, FaultRate: 0.2, FaultSeed: 3})
	panics := 0
	for exec := 0; exec < 50; exec++ {
		e.SetExec(exec)
		if _, p := stepCase(t, e, tc); p {
			panics++
		}
	}
	if panics == 0 {
		t.Fatal("no injected fault fired")
	}
}
