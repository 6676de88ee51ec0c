// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus the design-choice ablations listed in DESIGN.md.
// Each benchmark re-runs the corresponding experiment at a reduced budget
// and reports the headline metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every result. For the full-scale (paper-layout) output run
// `go run ./cmd/benchall`.
package lego_test

import (
	"fmt"
	"testing"

	"github.com/seqfuzz/lego/internal/coverage"
	"github.com/seqfuzz/lego/internal/experiment"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

func newBenchEngine() *minidb.Engine {
	return minidb.New(minidb.Config{Dialect: sqlt.DialectPostgres})
}

func benchSeed() sqlast.TestCase {
	return sqlparse.MustParseScript(`
CREATE TABLE t1 (v1 INT, v2 INT);
INSERT INTO t1 VALUES (1, 1);
INSERT INTO t1 VALUES (2, 1);
SELECT v2 FROM t1 ORDER BY v1;
SELECT v2 FROM t1 WHERE v1 = 1;
`)
}

func benchBudgets() experiment.Budgets { return experiment.QuickBudgets() }

// BenchmarkTable1 regenerates Table I: bugs found by LEGO in continuous
// fuzzing across the four DBMS profiles (paper: 102 total; 6/21/42/33).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Table1(benchBudgets())
		b.ReportMetric(float64(res.Total), "bugs_total")
		b.ReportMetric(float64(res.PerDialect[sqlt.DialectPostgres]), "bugs_pg")
		b.ReportMetric(float64(res.PerDialect[sqlt.DialectMySQL]), "bugs_mysql")
		b.ReportMetric(float64(res.PerDialect[sqlt.DialectMariaDB]), "bugs_mariadb")
		b.ReportMetric(float64(res.PerDialect[sqlt.DialectComdb2]), "bugs_comdb2")
	}
}

// BenchmarkFigure9 regenerates Figure 9: branch coverage of the four
// fuzzers on the four DBMSs (paper: LEGO +198%/+44%/+120% over
// SQLancer/SQLsmith/SQUIRREL).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Figure9(benchBudgets())
		lego, squirrel, sqlancer := 0, 0, 0
		for _, d := range sqlt.Dialects() {
			lego += res.Branches[d][experiment.FuzzerLEGO]
			squirrel += res.Branches[d][experiment.FuzzerSquirrel]
			sqlancer += res.Branches[d][experiment.FuzzerSQLancer]
		}
		b.ReportMetric(float64(lego), "branches_lego")
		b.ReportMetric(float64(squirrel), "branches_squirrel")
		b.ReportMetric(float64(sqlancer), "branches_sqlancer")
		b.ReportMetric(float64(res.Branches[sqlt.DialectPostgres][experiment.FuzzerSQLsmith]), "branches_sqlsmith_pg")
	}
}

// BenchmarkTable2 regenerates Table II: type-affinities contained in
// generated test cases (paper totals: SQLancer 770, SQUIRREL 119, LEGO
// 3707 — SQLancer embeds more affinities than SQUIRREL despite lower
// coverage).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Table2(benchBudgets())
		tot := res.Totals()
		b.ReportMetric(float64(tot[experiment.FuzzerLEGO]), "affinities_lego")
		b.ReportMetric(float64(tot[experiment.FuzzerSquirrel]), "affinities_squirrel")
		b.ReportMetric(float64(tot[experiment.FuzzerSQLancer]), "affinities_sqlancer")
	}
}

// BenchmarkTable3 regenerates Table III: bugs triggered under the 24-hour-
// equivalent budget (paper: SQLancer 0, SQLsmith 0, SQUIRREL 11, LEGO 52).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Table3(benchBudgets())
		tot := res.Totals()
		b.ReportMetric(float64(tot[experiment.FuzzerLEGO]), "bugs_lego")
		b.ReportMetric(float64(tot[experiment.FuzzerSquirrel]), "bugs_squirrel")
		b.ReportMetric(float64(tot[experiment.FuzzerSQLancer]), "bugs_sqlancer")
		b.ReportMetric(float64(tot[experiment.FuzzerSQLsmith]), "bugs_sqlsmith")
	}
}

// BenchmarkTable4 regenerates Table IV: the LEGO- ablation (paper: LEGO
// improves branches by 20%/15%/25%/7%, correlated with statement-type
// count).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.Table4(benchBudgets())
		for _, d := range sqlt.Dialects() {
			name := map[sqlt.Dialect]string{
				sqlt.DialectPostgres: "pg", sqlt.DialectMySQL: "mysql",
				sqlt.DialectMariaDB: "mariadb", sqlt.DialectComdb2: "comdb2",
			}[d]
			if res.BrMinus[d] > 0 {
				imp := float64(res.BrLego[d]-res.BrMinus[d]) / float64(res.BrMinus[d]) * 100
				b.ReportMetric(imp, "improv_pct_"+name)
			}
		}
	}
}

// BenchmarkLengthStudy regenerates the §VI sequence-length discussion
// (paper: 30/35/27 bugs on MariaDB for LEN=3/5/8).
func BenchmarkLengthStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.LengthStudy(benchBudgets())
		b.ReportMetric(float64(res.Bugs[3]), "bugs_len3")
		b.ReportMetric(float64(res.Bugs[5]), "bugs_len5")
		b.ReportMetric(float64(res.Bugs[8]), "bugs_len8")
	}
}

// BenchmarkAblationRandomSeq compares affinity-gated synthesis against
// uniformly random sequence generation under equal budgets (DESIGN.md §10) —
// the strawman of challenges C1/C2.
func BenchmarkAblationRandomSeq(b *testing.B) {
	bud := benchBudgets()
	for i := 0; i < b.N; i++ {
		gated := experiment.RunCampaign(experiment.FuzzerLEGO, sqlt.DialectMariaDB, bud.DayStmts, bud.Seed, 0)
		random := experiment.RunCampaign(experiment.FuzzerLEGORandomSeq, sqlt.DialectMariaDB, bud.DayStmts, bud.Seed, 0)
		b.ReportMetric(float64(gated.Branches), "branches_affinity_gated")
		b.ReportMetric(float64(random.Branches), "branches_random_seq")
		b.ReportMetric(float64(gated.Bugs()), "bugs_affinity_gated")
		b.ReportMetric(float64(random.Bugs()), "bugs_random_seq")
	}
}

// BenchmarkAblationNoCovGate compares coverage-gated affinity extraction
// against extract-from-everything (DESIGN.md §10).
func BenchmarkAblationNoCovGate(b *testing.B) {
	bud := benchBudgets()
	for i := 0; i < b.N; i++ {
		gated := experiment.RunCampaign(experiment.FuzzerLEGO, sqlt.DialectMySQL, bud.DayStmts, bud.Seed, 0)
		open := experiment.RunCampaign(experiment.FuzzerLEGONoCovGate, sqlt.DialectMySQL, bud.DayStmts, bud.Seed, 0)
		b.ReportMetric(float64(gated.Branches), "branches_cov_gated")
		b.ReportMetric(float64(open.Branches), "branches_no_gate")
		b.ReportMetric(float64(gated.DiscoveredAffinities), "affinities_cov_gated")
		b.ReportMetric(float64(open.DiscoveredAffinities), "affinities_no_gate")
	}
}

// BenchmarkExtensionSplitSeeds measures the paper's §VI future-work
// extension — splitting long retained seeds into overlapping short seeds —
// against stock LEGO under equal budgets.
func BenchmarkExtensionSplitSeeds(b *testing.B) {
	bud := benchBudgets()
	for i := 0; i < b.N; i++ {
		stock := experiment.RunCampaign(experiment.FuzzerLEGO, sqlt.DialectMariaDB, bud.DayStmts, bud.Seed+1, 0)
		split := experiment.RunCampaign(experiment.FuzzerLEGOSplit, sqlt.DialectMariaDB, bud.DayStmts, bud.Seed+1, 0)
		b.ReportMetric(float64(stock.Bugs()), "bugs_stock")
		b.ReportMetric(float64(split.Bugs()), "bugs_split")
		b.ReportMetric(float64(stock.Branches), "branches_stock")
		b.ReportMetric(float64(split.Branches), "branches_split")
	}
}

// BenchmarkShardedFigure9 measures the sharded campaign executor on the
// Figure 9 MariaDB campaign: the same total statement budget run at 1, 2,
// and 4 workers. The branches/bugs metrics are deterministic per worker
// count (rerunning a row reproduces it bit-for-bit); stmts/s is the
// machine-dependent part, and its speedup across rows tracks the host's
// core count because shards only synchronize at epoch barriers.
func BenchmarkShardedFigure9(b *testing.B) {
	bud := benchBudgets()
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var branches, bugs int
			for i := 0; i < b.N; i++ {
				res, _ := experiment.RunShardedCampaign(sqlt.DialectMariaDB, bud.DayStmts, bud.Seed, 0, w, 0, 0, 0)
				branches, bugs = res.Branches, res.Bugs()
			}
			b.ReportMetric(float64(branches), "branches")
			b.ReportMetric(float64(bugs), "bugs")
			b.ReportMetric(float64(bud.DayStmts)*float64(b.N)/b.Elapsed().Seconds(), "stmts/s")
		})
	}
}

// BenchmarkEngineThroughput measures raw substrate speed: statements per
// second on the Figure 1 seed, the denominator of every campaign budget.
func BenchmarkEngineThroughput(b *testing.B) {
	eng := newBenchEngine()
	tc := benchSeed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Tracer().Reset()
		out := eng.RunTestCase(tc)
		if out.Crash != nil {
			b.Fatal("unexpected crash")
		}
	}
	b.ReportMetric(float64(len(tc)), "stmts/exec")
}

// --- hot-path microbenchmarks -------------------------------------------
//
// These isolate the per-candidate costs the campaign numbers are built
// from: cloning (every mutation), rendering (oracle recording and
// checkpointing), execution, and coverage accumulation. All report allocs;
// TestAllocBudgets pins the alloc counts, these pin the wall-clock.

// benchCloneStmt is the join-query shape the mutators clone most.
const benchCloneStmtSQL = `SELECT t1.v1, t2.v2 FROM t1 JOIN t2 ON (t1.v1 = t2.v1) WHERE (t1.v2 > 3) ORDER BY t1.v1 DESC LIMIT 10;`

// BenchmarkCloneStructural measures the structural statement clone that
// backs sqlparse.CloneStatement on the hot path.
func BenchmarkCloneStructural(b *testing.B) {
	s := sqlparse.MustParseScript(benchCloneStmtSQL)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Clone()
	}
}

// BenchmarkCloneByReparse measures the retired render+reparse clone, kept
// as the property-test oracle — the contrast row for BenchmarkCloneStructural.
func BenchmarkCloneByReparse(b *testing.B) {
	s := sqlparse.MustParseScript(benchCloneStmtSQL)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = sqlparse.CloneStatementByReparse(s)
	}
}

// BenchmarkRenderCold measures a full SQL render with a cold memo.
func BenchmarkRenderCold(b *testing.B) {
	s := sqlparse.MustParseScript(benchCloneStmtSQL)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sqlast.InvalidateSQL(s)
		_ = s.SQL()
	}
}

// BenchmarkRenderMemoized measures the cached SQL() path.
func BenchmarkRenderMemoized(b *testing.B) {
	s := sqlparse.MustParseScript(benchCloneStmtSQL)[0]
	_ = s.SQL()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.SQL()
	}
}

// BenchmarkCoverageAccumulate measures one tracer fold into the global map
// at a realistic touched-edge count.
func BenchmarkCoverageAccumulate(b *testing.B) {
	eng := newBenchEngine()
	tc := benchSeed()
	eng.Tracer().Reset()
	if out := eng.RunTestCase(tc); out.Crash != nil {
		b.Fatal("unexpected crash")
	}
	m := coverage.NewMap()
	tr := eng.Tracer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = m.Accumulate(tr)
	}
	b.ReportMetric(float64(tr.Edges()), "edges/op")
}
