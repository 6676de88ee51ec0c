package lego_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/seqfuzz/lego"
)

func TestOpenAndExec(t *testing.T) {
	db := lego.Open(lego.PostgreSQL)
	if _, err := db.Exec("CREATE TABLE t (a INT, b TEXT)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
	res, err = db.Exec("SELECT b FROM t WHERE a = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "y" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if _, err := db.Exec("SELECT * FROM missing"); err == nil {
		t.Fatal("missing table must error")
	}
	if _, err := db.Exec("NOT SQL AT ALL"); err == nil {
		t.Fatal("parse errors must surface")
	}
}

func TestExecScriptStopsAtFirstError(t *testing.T) {
	db := lego.Open(lego.MySQL)
	results, err := db.ExecScript(`
CREATE TABLE t (a INT);
INSERT INTO t VALUES (1);
SELECT * FROM missing;
INSERT INTO t VALUES (2);
`)
	if err == nil {
		t.Fatal("script must fail at the bad statement")
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want the 2 before the error", len(results))
	}
	res, err := db.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "1" {
		t.Fatal("statement after the error must not have run")
	}
}

// TestExecScriptFailedAddColumn: an ADD COLUMN that cannot backfill its
// rows fails as a SQL error, and the table stays queryable through the
// facade afterwards.
func TestExecScriptFailedAddColumn(t *testing.T) {
	db := lego.Open(lego.MySQL)
	_, err := db.ExecScript(`
CREATE TABLE t (a INT);
INSERT INTO t VALUES (1), (2);
ALTER TABLE t ADD COLUMN b INT NOT NULL;
`)
	if err == nil || !strings.Contains(err.Error(), "NOT NULL") {
		t.Fatalf("ALTER error = %v, want the NOT NULL backfill error", err)
	}
	results, err := db.ExecScript(`SELECT * FROM t;`)
	if err != nil {
		t.Fatal(err)
	}
	if got := results[0]; len(got.Columns) != 1 || len(got.Rows) != 2 {
		t.Fatalf("table after the failed ALTER: columns %v, rows %v", got.Columns, got.Rows)
	}
}

// TestExecScriptResultsStayIntact runs a script long enough that the
// engine's result arena fills several blocks, then checks every returned
// result. It also checks that TABLE's column names are the caller's own
// copy: writing to them must not reach the engine's shared table metadata.
func TestExecScriptResultsStayIntact(t *testing.T) {
	db := lego.Open(lego.PostgreSQL)
	var sb strings.Builder
	sb.WriteString("CREATE TABLE t (a INT, b TEXT);\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, "INSERT INTO t VALUES (%d, 'v%d');\n", i, i)
		fmt.Fprintf(&sb, "SELECT b, a FROM t WHERE a = %d;\n", i)
	}
	sb.WriteString("TABLE t;\n")
	results, err := db.ExecScript(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 202 {
		t.Fatalf("%d results, want 202", len(results))
	}
	if r := results[0]; r.Msg != "CREATE TABLE" {
		t.Fatalf("result 0 = %+v", r)
	}
	for i := 0; i < 100; i++ {
		ins, sel := results[1+2*i], results[2+2*i]
		if ins.Msg != "INSERT" || ins.Affected != 1 {
			t.Fatalf("INSERT %d result = %+v", i, ins)
		}
		want := fmt.Sprintf("[[v%d %d]]", i, i)
		if got := fmt.Sprint(sel.Rows); got != want || fmt.Sprint(sel.Columns) != "[b a]" {
			t.Fatalf("SELECT %d result = %v %s, want [b a] %s", i, sel.Columns, got, want)
		}
	}
	table := results[201]
	if fmt.Sprint(table.Columns) != "[a b]" || len(table.Rows) != 100 {
		t.Fatalf("TABLE result = %v with %d rows", table.Columns, len(table.Rows))
	}
	table.Columns[0] = "clobbered"
	for _, q := range []string{"TABLE t", "SELECT * FROM t WHERE a = 1"} {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Columns) != "[a b]" {
			t.Fatalf("%s after writing to TABLE's columns: %v", q, res.Columns)
		}
	}
}

func TestDialectGatingThroughFacade(t *testing.T) {
	db := lego.Open(lego.Comdb2)
	if _, err := db.Exec("NOTIFY ch"); err == nil {
		t.Fatal("Comdb2 must reject NOTIFY")
	}
	if _, err := db.Exec("PRAGMA cache_info"); err != nil {
		t.Fatalf("Comdb2 must accept PRAGMA: %v", err)
	}
}

func TestFuzzSessionReport(t *testing.T) {
	f := lego.NewFuzzer(lego.Config{Target: lego.MariaDB, Seed: 5})
	rep := f.Fuzz(15000)
	if rep.Statements < 15000 || rep.Executions == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Branches == 0 || rep.Affinities == 0 || rep.SeedPool == 0 {
		t.Fatalf("empty metrics: %+v", rep)
	}
	for _, b := range rep.Bugs {
		if b.ID == "" || b.Component == "" || b.Kind == "" {
			t.Fatalf("bug missing identity: %+v", b)
		}
		if !strings.Contains(b.Reproducer, ";") {
			t.Fatalf("reproducer must be a SQL script: %q", b.Reproducer)
		}
	}
	// incremental fuzzing accumulates
	rep2 := f.Fuzz(30000)
	if rep2.Statements < 30000 || rep2.Branches < rep.Branches {
		t.Fatal("state must accumulate across Fuzz calls")
	}
}

func TestLegoMinusThroughFacade(t *testing.T) {
	rep := lego.NewFuzzer(lego.Config{
		Target: lego.MySQL, Seed: 5, DisableSequenceAlgorithms: true,
	}).Fuzz(10000)
	if rep.Affinities != 0 {
		t.Fatalf("LEGO- must not discover affinities, got %d", rep.Affinities)
	}
}

func TestDisableHazards(t *testing.T) {
	rep := lego.NewFuzzer(lego.Config{
		Target: lego.MariaDB, Seed: 5, DisableHazards: true,
	}).Fuzz(20000)
	if len(rep.Bugs) != 0 {
		t.Fatalf("disarmed session found bugs: %v", rep.Bugs)
	}
}

func TestParseTypeSequence(t *testing.T) {
	seq, err := lego.ParseTypeSequence("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")
	if err != nil {
		t.Fatal(err)
	}
	if seq != "CREATE TABLE -> INSERT -> SELECT" {
		t.Fatalf("seq = %q", seq)
	}
	if _, err := lego.ParseTypeSequence("???"); err == nil {
		t.Fatal("bad SQL must error")
	}
}

func TestStatementTypes(t *testing.T) {
	if lego.StatementTypes(lego.Comdb2) != 24 {
		t.Fatal("Comdb2 profile size")
	}
	if lego.StatementTypes(lego.PostgreSQL) <= lego.StatementTypes(lego.MySQL) {
		t.Fatal("PostgreSQL must have the largest profile")
	}
}

// ExampleOpen demonstrates direct SQL use of the substrate engine.
func ExampleOpen() {
	db := lego.Open(lego.PostgreSQL)
	db.Exec("CREATE TABLE t (a INT, b TEXT)")
	db.Exec("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
	res, _ := db.Exec("SELECT b FROM t ORDER BY a DESC")
	for _, row := range res.Rows {
		fmt.Println(row[0])
	}
	// Output:
	// y
	// x
}

// ExampleParseTypeSequence shows the paper's core abstraction.
func ExampleParseTypeSequence() {
	seq, _ := lego.ParseTypeSequence(`
CREATE TABLE t1 (v1 INT, v2 INT);
INSERT INTO t1 VALUES (1, 1);
SELECT v2 FROM t1 ORDER BY v1;
`)
	fmt.Println(seq)
	// Output:
	// CREATE TABLE -> INSERT -> SELECT
}
