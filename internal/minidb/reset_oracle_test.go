package minidb_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/coverage"
	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/instantiate"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// mergeScript runs a MERGE whose ON predicate and SET value are correlated
// subqueries over both the target and the source row, so every row pair
// of the reused per-statement scope map is read from inside a nested query.
const mergeScript = `
CREATE TABLE tgt (id INT, v INT);
CREATE TABLE src (id INT, v INT);
INSERT INTO tgt VALUES (1, 10), (2, 20), (3, 30);
INSERT INTO src VALUES (1, 100), (3, 300), (4, 400);
MERGE INTO tgt USING src ON tgt.id = (SELECT s2.id FROM src s2 WHERE s2.id = src.id AND s2.v > tgt.v) WHEN MATCHED THEN UPDATE SET v = (SELECT COUNT(*) FROM src s3 WHERE s3.v > src.v) + tgt.v WHEN NOT MATCHED THEN INSERT VALUES (src.id, (SELECT MAX(s4.v) FROM src s4 WHERE s4.id < src.id));
SELECT id, v FROM tgt ORDER BY id;
`

// runCase executes tc on e with a reset tracer and renders everything a
// caller can observe: per-statement results and errors, the crash report
// (or a re-raised organic panic), and the coverage the run produced.
func runCase(e *minidb.Engine, tc sqlast.TestCase) (string, []coverage.EdgeState) {
	tr := e.Tracer()
	tr.Reset()
	var sb strings.Builder
	func() {
		defer func() {
			if r := recover(); r != nil {
				fmt.Fprintf(&sb, "panic: %v\n", r)
			}
		}()
		out := e.RunTestCase(tc)
		fmt.Fprintf(&sb, "executed=%d errors=%d\n", out.Executed, out.Errors)
		if out.Crash != nil {
			fmt.Fprintf(&sb, "crash: %v window=%v\n", out.Crash, out.Crash.Window)
		}
		for i := range out.Results {
			if r := out.Results[i]; r != nil {
				fmt.Fprintf(&sb, "%d: cols=%v affected=%d msg=%q rows=%v\n", i, r.Cols, r.Affected, r.Msg, r.Rows)
			}
			if err := out.Errs[i]; err != nil {
				fmt.Fprintf(&sb, "%d: err=%v\n", i, err)
			}
		}
	}()
	m := coverage.NewMap()
	m.Accumulate(tr)
	return sb.String(), m.Export()
}

// TestReusedEngineMatchesFreshEngine is the differential oracle for the
// in-place reset: one long-lived engine, reset between test cases, must
// behave exactly like a brand-new engine per test case — same results,
// same error strings, same crashes, same coverage. It runs the harness
// seed corpus, the MERGE scope-reuse case and a few thousand instantiated
// test cases in every dialect with hazards armed.
func TestReusedEngineMatchesFreshEngine(t *testing.T) {
	perDialect := 1500
	if testing.Short() {
		perDialect = 200
	}
	for _, d := range sqlt.Dialects() {
		t.Run(d.String(), func(t *testing.T) {
			cfg := minidb.Config{Dialect: d, EnableHazards: true}
			cases := harness.InitialSeeds(d)
			cases = append(cases, sqlparse.MustParseScript(mergeScript))
			rng := rand.New(rand.NewSource(0x5EED + int64(d)))
			lib := instantiate.NewLibrary()
			for _, tc := range cases {
				lib.Harvest(tc)
			}
			in := instantiate.New(rng, lib, d)
			types := d.Types()
			for i := 0; i < perDialect; i++ {
				seq := make(sqlt.Sequence, 1+rng.Intn(8))
				for j := range seq {
					seq[j] = types[rng.Intn(len(types))]
				}
				cases = append(cases, in.TestCase(seq))
			}

			long := minidb.New(cfg)
			crashes := 0
			for i, tc := range cases {
				wantOut, wantCov := runCase(minidb.New(cfg), tc)
				gotOut, gotCov := runCase(long, tc)
				if gotOut != wantOut {
					t.Fatalf("case %d diverged from a fresh engine\nSQL:\n%s\nreused:\n%s\nfresh:\n%s", i, tc.SQL(), gotOut, wantOut)
				}
				if !reflect.DeepEqual(gotCov, wantCov) {
					t.Fatalf("case %d: coverage diverged from a fresh engine (%d vs %d edges)\nSQL:\n%s", i, len(gotCov), len(wantCov), tc.SQL())
				}
				if strings.Contains(gotOut, "crash: ") {
					crashes++
				}
			}
			t.Logf("%d cases, %d crashes", len(cases), crashes)
		})
	}
}

// TestMergeCorrelatedSubqueries pins the values the MERGE scope-reuse case
// computes, so the differential oracle above compares meaningful results.
func TestMergeCorrelatedSubqueries(t *testing.T) {
	e := minidb.New(minidb.Config{Dialect: sqlt.DialectPostgres})
	out := e.RunTestCase(sqlparse.MustParseScript(mergeScript))
	if out.Errors != 0 {
		t.Fatalf("errors: %v", out.Errs)
	}
	if got := out.Results[4].Affected; got != 3 {
		t.Fatalf("MERGE affected %d rows, want 3", got)
	}
	want := "[[1 12] [2 20] [3 31] [4 300]]"
	if got := fmt.Sprint(out.Results[5].Rows); got != want {
		t.Fatalf("MERGE result %s, want %s", got, want)
	}
}
