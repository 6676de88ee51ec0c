// Package harness provides the execution substrate shared by LEGO and the
// baseline fuzzers: a Runner that executes test cases against a fresh engine
// with coverage accounting, crash deduplication, affinity tallying, and a
// coverage-over-time curve; plus the initial seed corpus.
package harness

import (
	"runtime"
	"sync"

	"github.com/seqfuzz/lego/internal/affinity"
	"github.com/seqfuzz/lego/internal/coverage"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/oracle"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// CurvePoint is one sample of the branch-coverage curve (Figure 9).
type CurvePoint struct {
	Execs int
	Edges int
}

// Runner executes test cases and accumulates campaign state.
type Runner struct {
	Eng    *minidb.Engine
	Cov    *coverage.Map
	Oracle *oracle.Oracle
	// GenAff tallies the type-affinities contained in every *generated*
	// test case (executed by the fuzzer), the Table II metric.
	GenAff *affinity.Map

	Execs int
	// Stmts counts statements executed across all test cases. Campaign
	// budgets are expressed in statements: execution time is proportional
	// to statements, not test cases, so statement budgets model the paper's
	// wall-clock budgets faithfully (a LEN=8 case costs more than a LEN=3
	// case, the trade-off behind the paper's §VI length study).
	Stmts int
	// EnginePanics counts contained organic panics: non-BugReport panics
	// that escaped the engine and were converted into synthetic PANIC
	// reports instead of killing the campaign.
	EnginePanics int
	Curve        []CurvePoint
	curveEvery   int

	// cfg rebuilds the engine after a contained panic (quarantine) and is
	// recorded in checkpoints.
	cfg minidb.Config

	// retiredPlanStats accumulates plan-cache counters from engines retired
	// by quarantine, so PlanStats covers the whole campaign.
	retiredPlanStats minidb.PlanStats

	// types is the executed case's statement-type sequence, refilled per
	// execution; GenAff.Analyze reads it without keeping it.
	types sqlt.Sequence
}

// NewRunner builds a runner for one campaign.
func NewRunner(d sqlt.Dialect, hazards bool) *Runner {
	return NewRunnerWithConfig(minidb.Config{Dialect: d, EnableHazards: hazards})
}

// NewRunnerWithConfig builds a runner with full engine configuration
// (fault injection, custom limits).
func NewRunnerWithConfig(cfg minidb.Config) *Runner {
	return &Runner{
		Eng:        minidb.New(cfg),
		Cov:        coverage.NewMap(),
		Oracle:     oracle.New(),
		GenAff:     affinity.NewMap(),
		curveEvery: 50,
		cfg:        cfg,
	}
}

// Config returns the engine configuration the runner was built with.
func (r *Runner) Config() minidb.Config { return r.cfg }

// Execute runs one test case against a fresh database. It returns whether
// the execution contributed coverage novelty ("hit new branches",
// Algorithm 1) and how many brand-new edges it added; a crash is recorded in
// the oracle and reported in the third return.
//
// Execute never lets a panic escape: seeded *BugReport panics are captured
// by the engine itself, and any other (organic) panic is contained here —
// converted into a synthetic PANIC report, recorded with its reproducer,
// and followed by an engine quarantine. This is the in-process equivalent
// of AFL++'s fork-per-testcase isolation: a target crash must never kill
// the fuzzer (paper §IV).
func (r *Runner) Execute(tc sqlast.TestCase) (novel bool, newEdges int, crash *minidb.BugReport) {
	// Capture the tracer up front: a quarantine mid-case replaces the
	// engine (and its tracer), but the coverage gathered before the panic
	// is still valid feedback.
	tr := r.Eng.Tracer()
	tr.Reset()
	r.Eng.SetExec(r.Execs)
	out := r.runContained(tc)
	novel, newEdges = r.Cov.Accumulate(tr)
	r.types = r.types[:0]
	for _, s := range tc {
		r.types = append(r.types, s.Type())
	}
	r.GenAff.Analyze(r.types)
	r.Execs++
	r.Stmts += out.Executed
	if out.Crash != nil {
		r.Oracle.Record(out.Crash, tc, r.Execs)
		crash = out.Crash
	}
	if r.Execs%r.curveEvery == 0 || r.Execs == 1 {
		r.Curve = append(r.Curve, CurvePoint{Execs: r.Execs, Edges: r.Cov.EdgeCount()})
	}
	return novel, newEdges, crash
}

// runContained executes the test case, recovering any panic the engine
// re-raised and converting it into an organic BugReport outcome.
func (r *Runner) runContained(tc sqlast.TestCase) (out minidb.Outcome) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		buf := make([]byte, 64<<10)
		buf = buf[:runtime.Stack(buf, false)]
		r.EnginePanics++
		// The outcome assembled by RunTestCase is lost when it panics; the
		// engine's statement progress recovers how much work was charged.
		out.Executed = r.Eng.StmtProgress()
		out.Crash = minidb.OrganicReport(rec, r.Eng.Dialect(), r.Eng.TypeWindow(), buf)
		r.quarantine()
	}()
	return r.Eng.RunTestCase(tc)
}

// quarantine discards the possibly-corrupt engine after an organic panic
// and rebuilds a fresh one from the campaign configuration. Engine faults
// are keyed by the execution ordinal Execute passes in, so the rebuilt
// engine continues the fault schedule without any carried state.
func (r *Runner) quarantine() {
	r.retiredPlanStats.Add(r.Eng.PlanStats())
	r.Eng = minidb.New(r.cfg)
}

// PlanStats reports the campaign's plan-cache counters, including engines
// retired by quarantine.
func (r *Runner) PlanStats() minidb.PlanStats {
	s := r.retiredPlanStats
	s.Add(r.Eng.PlanStats())
	return s
}

// Branches returns the branch-coverage metric (distinct edges).
func (r *Runner) Branches() int { return r.Cov.EdgeCount() }

// Fuzzer is one fuzzing strategy driving a Runner.
type Fuzzer interface {
	// Name is the display name used in tables and figures.
	Name() string
	// Step performs one fuzzing iteration; the budget callback reports
	// whether the campaign budget is exhausted and Step should bail early.
	Step(exhausted func() bool)
	// Runner exposes the campaign state for metric collection.
	Runner() *Runner
}

// initialSeedSQL is the shared seed corpus. Every statement uses types in
// all four dialect profiles, so the same seeds bootstrap every target — as
// the paper uses each fuzzer's default seed corpus. The first seed is
// Figure 1's running example.
var initialSeedSQL = []string{
	`CREATE TABLE t1 (v1 INT, v2 INT);
INSERT INTO t1 VALUES (1, 1);
INSERT INTO t1 VALUES (2, 1);
SELECT v2 FROM t1 ORDER BY v1;
SELECT v2 FROM t1 WHERE v1 = 1;`,

	`CREATE TABLE t0 (c0 INT, c1 VARCHAR(100));
INSERT INTO t0 VALUES (1, 'name1');
UPDATE t0 SET c1 = 'name2' WHERE c0 = 1;
SELECT * FROM t0;`,

	`CREATE TABLE t2 (c0 INT, c1 INT);
CREATE INDEX i0 ON t2 (c0);
INSERT INTO t2 VALUES (1, 10), (2, 20);
SELECT c1 FROM t2 WHERE c0 = 1;
DELETE FROM t2 WHERE c1 > 15;
INSERT INTO t2 VALUES (3, 30);`,

	`CREATE TABLE t3 (a INT, b INT);
INSERT INTO t3 VALUES (5, 5);
BEGIN;
UPDATE t3 SET b = 6;
COMMIT;
SELECT a, b FROM t3;`,

	`SET SESSION sql_mode = 'default';
CREATE TABLE t4 (x INT, y INT);
INSERT INTO t4 VALUES (1, 2);
SET SESSION opt_level = 2;
SELECT y FROM t4 WHERE x = 1;`,

	`CREATE TABLE ta (id INT, v INT);
CREATE TABLE tb (id INT, w INT);
INSERT INTO ta VALUES (1, 10);
INSERT INTO tb VALUES (1, 100);
SELECT ta.v, tb.w FROM ta JOIN tb ON ta.id = tb.id;`,

	`CREATE TABLE t5 (a INT, b INT);
INSERT INTO t5 VALUES (1, 2);
UPDATE t5 SET a = 3;
UPDATE t5 SET b = 4 WHERE a = 3;
DELETE FROM t5 WHERE b > 10;
SELECT * FROM t5;`,

	`CREATE TABLE t6 (k INT, s VARCHAR(100));
INSERT INTO t6 VALUES (1, 'a');
DELETE FROM t6 WHERE k = 1;
INSERT INTO t6 VALUES (2, 'b');
SELECT s FROM t6;`,

	`CREATE TABLE t7 (n INT);
INSERT INTO t7 VALUES (1);
INSERT INTO t7 VALUES (2);
INSERT INTO t7 VALUES (3);
SELECT SUM(n) FROM t7;`,
}

// InitialSeeds parses the default seed corpus, keeping only seeds whose
// every statement the dialect accepts.
func InitialSeeds(d sqlt.Dialect) []sqlast.TestCase {
	var out []sqlast.TestCase
	for _, tc := range parsedSeedCorpus() {
		okForDialect := true
		for _, s := range tc {
			if !d.Supports(s.Type()) {
				okForDialect = false
				break
			}
		}
		if okForDialect {
			out = append(out, tc.Clone())
		}
	}
	return out
}

// seedCorpus caches the parsed seed corpus: the scripts are process
// constants, so they are parsed exactly once and every caller — including
// each of N shard workers — receives structural clones instead of paying a
// reparse.
var seedCorpus struct {
	once sync.Once
	tcs  []sqlast.TestCase
}

func parsedSeedCorpus() []sqlast.TestCase {
	seedCorpus.once.Do(func() {
		seedCorpus.tcs = make([]sqlast.TestCase, len(initialSeedSQL))
		for i, sql := range initialSeedSQL {
			seedCorpus.tcs[i] = sqlparse.MustParseScript(sql)
		}
	})
	return seedCorpus.tcs
}
