// Package lego is the public API of the LEGO reproduction: a sequence-
// oriented DBMS fuzzer (Liang et al., "Sequence-Oriented DBMS Fuzzing",
// ICDE 2023) together with the full substrate it runs on — an in-memory
// multi-dialect SQL engine with AFL-style branch-coverage feedback and a
// seeded memory-safety bug corpus.
//
// # Quick start
//
//	f := lego.NewFuzzer(lego.Config{Target: lego.MariaDB})
//	report := f.Fuzz(200000) // statement budget
//	fmt.Println(report.Branches, report.Bugs)
//
// # What the fuzzer does
//
// LEGO's contribution is generating test cases with abundant SQL Type
// Sequences. Each iteration proactively mutates a seed's statement types
// (substitution / insertion / deletion), extracts type-affinities from
// mutants that covered new branches, and progressively synthesizes every
// new type sequence containing a newly discovered affinity, instantiating
// each into executable SQL via an AST structure library with dependency
// fixing. See DESIGN.md for the module map and EXPERIMENTS.md for the
// reproduction of the paper's tables and figures.
package lego

import (
	"fmt"

	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/core"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/oracle"
	"github.com/seqfuzz/lego/internal/shard"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
	"github.com/seqfuzz/lego/internal/triage"
)

// Target selects the DBMS dialect profile to fuzz, mirroring the paper's
// four evaluation targets.
type Target = sqlt.Dialect

// The four target profiles.
const (
	PostgreSQL = sqlt.DialectPostgres
	MySQL      = sqlt.DialectMySQL
	MariaDB    = sqlt.DialectMariaDB
	Comdb2     = sqlt.DialectComdb2
)

// Config configures a fuzzing session.
type Config struct {
	// Target is the DBMS profile to fuzz (default PostgreSQL).
	Target Target
	// Seed makes the whole session deterministic (default 1).
	Seed int64
	// MaxSequenceLength is Algorithm 3's LEN cap (default 5).
	MaxSequenceLength int
	// DisableSequenceAlgorithms runs the LEGO- ablation: conventional
	// intra-statement mutation only.
	DisableSequenceAlgorithms bool
	// DisableHazards turns off the seeded bug corpus; the engine then never
	// crashes and the session measures pure coverage.
	DisableHazards bool
	// SplitLongSeeds enables the paper's §VI future-work extension: long
	// retained seeds are additionally split into overlapping short seeds.
	SplitLongSeeds bool
	// FaultRate arms deterministic engine faults: each statement panics
	// with a non-seeded (organic) fault at this probability, exercising the
	// harness's crash containment. The schedule is keyed by (Seed,
	// execution, statement), so reruns and resumes see the same faults.
	// Contained panics surface as Report.EnginePanics and as deduplicated
	// PANIC bugs. Zero disables injection.
	FaultRate float64
	// Triage runs the crash triage pipeline when a Fuzz call ends: every
	// unique crash is re-verified on a fresh quarantined engine and
	// classified STABLE/FLAKY/LOST, and its reproducer is minimized with
	// ddmin (accepting only candidates that crash with the same call
	// stack). Results land in Bug.Status, Bug.OriginalLen,
	// Bug.MinimizedLen, and Bug.Replays, and persist in checkpoints.
	Triage bool
	// TriageReplays is the number of verification replays per crash
	// (default 3).
	TriageReplays int
	// TriageBudget caps the ddmin candidate replays spent minimizing one
	// crash (default 256), so triage is bounded even on pathological
	// reproducers.
	TriageBudget int
	// Workers runs the campaign as N parallel shards — each a complete
	// private fuzzer seeded Seed+shardID — that merge deterministically at
	// epoch barriers: coverage OR-folds, seeds and affinities and crashes
	// cross-pollinate, all in fixed shard order. The report and checkpoint
	// depend only on (Config, Workers, EpochStmts), never on goroutine
	// scheduling. Workers below 1 (the default 0) means one worker, whose
	// campaign is the plain single-threaded fuzzing loop: its epochs end on
	// iteration boundaries, so EpochStmts does not change its results.
	Workers int
	// EpochStmts is the per-shard statement budget between merge barriers
	// (default 2000). Like Seed, it is part of a campaign's identity: a
	// checkpoint only resumes under the same value.
	EpochStmts int
	// ChaosRate arms the deterministic chaos plane: worker panics, epoch
	// stalls, and checkpoint I/O faults are injected with this
	// per-decision probability, on a schedule that is a pure function of
	// (ChaosRate, ChaosSeed). Failed epochs are retried from the last
	// barrier snapshot; shards that exhaust MaxEpochRetries are quarantined
	// and the campaign degrades gracefully. Zero (the default) injects
	// nothing and leaves reports and checkpoints byte-identical to an
	// unsupervised session.
	ChaosRate float64
	// ChaosSeed selects the fault schedule (default: Seed). Like Seed it is
	// campaign identity: a chaotic checkpoint only resumes under the same
	// schedule.
	ChaosSeed int64
	// MaxEpochRetries is the cumulative per-shard retry budget in epoch
	// re-runs (default 3; negative means quarantine on first failure).
	MaxEpochRetries int
	// DisablePlanCache turns off the engine's compiled-plan execution layer
	// and runs every expression through the tree-walking interpreter.
	// Campaign reports and checkpoints are byte-identical either way (the
	// compiled path fires identical coverage by contract); the flag exists
	// for throughput baselining and as an escape hatch.
	DisablePlanCache bool
}

// Bug describes one deduplicated crash.
type Bug struct {
	// ID is the stable identifier of the seeded bug (CVE/MDEV/BUG style).
	ID string
	// Component is the engine component the bug lives in.
	Component string
	// Kind is the memory-safety class (SEGV, UAF, BOF, ...).
	Kind string
	// Reproducer is the shortest known SQL script that triggers the crash:
	// the first-seen script, shortened whenever the same stack recurs with
	// fewer statements, and ddmin-minimized when triage is enabled.
	Reproducer string
	// FoundAtExec is the execution count at discovery.
	FoundAtExec int

	// Status is the triage classification: "STABLE" (every verification
	// replay reproduced the same call stack on a fresh engine), "FLAKY"
	// (some did), or "LOST" (none did). Empty when triage did not run.
	Status string
	// OriginalLen and MinimizedLen are the reproducer's statement counts
	// before and after minimization (zero when triage did not run).
	OriginalLen  int
	MinimizedLen int
	// Replays is how many of Config.TriageReplays verification replays
	// reproduced the crash.
	Replays int
}

// Report summarizes a fuzzing session.
type Report struct {
	// Executions is the number of test cases executed.
	Executions int
	// Statements is the number of SQL statements executed.
	Statements int
	// Branches is the branch-coverage metric (distinct coverage edges).
	Branches int
	// Affinities is the number of type-affinities discovered (zero when
	// sequence algorithms are disabled).
	Affinities int
	// SeedPool is the final corpus size.
	SeedPool int
	// EnginePanics counts organic engine panics that the harness contained
	// (converted to synthetic PANIC bugs) instead of dying. Always zero
	// unless the engine has a genuine defect or Config.FaultRate is set.
	EnginePanics int
	// Interrupted reports that the run ended on FuzzOptions.Stop with
	// budget remaining: the report covers a gracefully shut-down partial
	// campaign, not a completed one.
	Interrupted bool
	// Bugs lists the unique crashes found, in discovery order.
	Bugs []Bug

	// Workers is the campaign's starting worker topology (at least 1).
	Workers int
	// Quarantined lists the shards whose retry budget was exhausted; the
	// campaign finished degraded to Workers-len(Quarantined) workers.
	Quarantined []int
	// Incidents is the supervised campaign's failure journal: every worker
	// failure (injected or organic) and how the supervisor resolved it, in
	// occurrence order. Deterministic for a fixed (Config, ChaosRate,
	// ChaosSeed).
	Incidents []Incident
	// SaveFaults counts checkpoint saves eaten by injected I/O faults (the
	// campaign skipped them and kept running; the previous generation
	// remained on disk).
	SaveFaults int
}

// Incident is one entry of a supervised campaign's failure journal.
type Incident struct {
	// Epoch is the barrier interval the failure struck in; Shard the failed
	// worker.
	Epoch, Shard int
	// Kind classifies the failure: WORKER_PANIC or EPOCH_STALL (injected by
	// the chaos plane), or ORGANIC_PANIC (a real panic the supervisor
	// contained).
	Kind string
	// Retries is the shard's cumulative retry tally after this incident;
	// Outcome is RETRIED or QUARANTINED.
	Retries int
	Outcome string
	// Detail carries the fault's coordinates or the normalized panic stack.
	Detail string
}

// Fuzzer is a LEGO fuzzing session against one target. Every session runs
// on the sharded executor; a single-worker session is its one-shard case.
type Fuzzer struct {
	ex  *shard.Executor
	cfg Config
	// resumeWarning is set when ResumeFuzzer had to fall back to the
	// rotated .bak checkpoint generation.
	resumeWarning string
}

func (cfg Config) options() shard.Options {
	return shard.Options{
		Core: core.Options{
			Dialect:                   cfg.Target,
			Seed:                      cfg.Seed,
			MaxLen:                    cfg.MaxSequenceLength,
			DisableSequenceAlgorithms: cfg.DisableSequenceAlgorithms,
			Hazards:                   !cfg.DisableHazards,
			SplitLongSeeds:            cfg.SplitLongSeeds,
			FaultRate:                 cfg.FaultRate,
			DisablePlanCache:          cfg.DisablePlanCache,
		},
		Workers:         cfg.Workers,
		EpochStmts:      cfg.EpochStmts,
		ChaosRate:       cfg.ChaosRate,
		ChaosSeed:       cfg.ChaosSeed,
		MaxEpochRetries: cfg.MaxEpochRetries,
	}
}

// NewFuzzer builds a fuzzing session on the sharded executor,
// with Workers below 1 taken as one worker.
func NewFuzzer(cfg Config) *Fuzzer {
	return &Fuzzer{ex: shard.New(cfg.options()), cfg: cfg}
}

// ResumeFuzzer rebuilds a fuzzing session from a checkpoint file written by
// FuzzWithCheckpoint. cfg must describe the same campaign (target, seed,
// sequence length, worker topology, chaos schedule); the restored session
// continues exactly where the checkpoint left off, with the same schedule
// and discoveries as an uninterrupted run. When the primary checkpoint is
// corrupt or truncated, the rotated last-good <path>.bak generation is used
// instead and ResumeWarning reports the substitution.
func ResumeFuzzer(cfg Config, path string) (*Fuzzer, error) {
	st, warning, err := checkpoint.LoadWithFallback(path)
	if err != nil {
		return nil, err
	}
	ex, err := shard.Resume(cfg.options(), st)
	if err != nil {
		return nil, err
	}
	return &Fuzzer{ex: ex, cfg: cfg, resumeWarning: warning}, nil
}

// ResumeWarning is non-empty when ResumeFuzzer could not read the primary
// checkpoint and restored the rotated .bak generation; it describes what was
// lost. Callers should surface it to the operator.
func (f *Fuzzer) ResumeWarning() string { return f.resumeWarning }

// FuzzOptions configures one FuzzWithOptions call.
type FuzzOptions struct {
	// CheckpointPath, when non-empty, persists campaign state there
	// (atomically, checksummed, with a .bak rotation) at the first epoch
	// barrier after every CheckpointEvery test-case executions and once
	// when the run ends — including a run ended by Stop, so an interrupted
	// campaign loses no work.
	CheckpointPath  string
	CheckpointEvery int
	// Stop requests graceful shutdown: when the channel is closed the
	// campaign finishes the epoch in flight (with one worker, the epoch
	// ends with the fuzzing iteration in flight), stops at its barrier, flushes
	// its final checkpoint, still runs triage (when Config.Triage is set),
	// and returns a partial report with Interrupted set. Because the stop
	// lands on an epoch barrier — a state an uninterrupted campaign also
	// passes through — resuming the flushed checkpoint and finishing the
	// budget reproduces the uninterrupted campaign exactly. A nil channel
	// never stops.
	Stop <-chan struct{}
}

// Fuzz runs until budgetStmts SQL statements have been executed and returns
// the session report. It may be called repeatedly; state accumulates.
func (f *Fuzzer) Fuzz(budgetStmts int) Report {
	rep, _ := f.FuzzWithOptions(budgetStmts, FuzzOptions{})
	return rep
}

// FuzzWithCheckpoint runs like Fuzz but additionally writes the campaign
// state to path every everyExecs test-case executions (atomically, with a
// checksum) and once more when the budget is exhausted, so the campaign can
// be resumed with ResumeFuzzer after a crash or shutdown.
func (f *Fuzzer) FuzzWithCheckpoint(budgetStmts int, path string, everyExecs int) (Report, error) {
	return f.FuzzWithOptions(budgetStmts, FuzzOptions{CheckpointPath: path, CheckpointEvery: everyExecs})
}

// FuzzWithOptions is the full-featured campaign entry point behind Fuzz and
// FuzzWithCheckpoint: statement budget plus optional checkpointing and
// graceful shutdown. When Config.Triage is set, the triage pipeline runs
// after the loop ends (completed or interrupted) and the checkpoint is
// re-flushed so the triage results persist.
//
// Saves route through the executor's filesystem, so an armed chaos plane can
// inject checkpoint I/O faults; the executor skips and counts eaten saves
// (the previous generation stays on disk), and real disk errors still abort.
func (f *Fuzzer) FuzzWithOptions(budgetStmts int, opts FuzzOptions) (Report, error) {
	var save func(*checkpoint.State) error
	if opts.CheckpointPath != "" {
		save = func(st *checkpoint.State) error {
			return checkpoint.SaveFS(f.ex.FS(), opts.CheckpointPath, st)
		}
	}
	interrupted, err := f.ex.Run(budgetStmts, shard.RunOptions{
		EveryExecs: opts.CheckpointEvery,
		Save:       save,
		Stop:       opts.Stop,
	})
	if err == nil && f.cfg.Triage {
		f.ex.Triage(triage.Config{Replays: f.cfg.TriageReplays, Budget: f.cfg.TriageBudget})
		if save != nil {
			err = f.ex.Save(save)
		}
	}
	rep := f.report()
	rep.Interrupted = interrupted
	return rep, err
}

// report summarizes the campaign from its merged global view: totals across
// shards, the OR-folded coverage, the global oracle, and the supervision
// plane's journal and degradation record.
func (f *Fuzzer) report() Report {
	var incidents []Incident
	for _, in := range f.ex.Incidents() {
		incidents = append(incidents, Incident(in))
	}
	return Report{
		Executions:   f.ex.Execs(),
		Statements:   f.ex.Stmts(),
		Branches:     f.ex.Branches(),
		Affinities:   f.ex.Affinities(),
		SeedPool:     f.ex.PoolLen(),
		EnginePanics: f.ex.EnginePanics(),
		Bugs:         bugsFrom(f.ex.Oracle().Crashes()),
		Workers:      f.ex.Workers(),
		Quarantined:  f.ex.QuarantinedShards(),
		Incidents:    incidents,
		SaveFaults:   f.ex.SaveFaults(),
	}
}

func bugsFrom(crashes []*oracle.Crash) []Bug {
	var bugs []Bug
	for _, c := range crashes {
		bugs = append(bugs, Bug{
			ID:          c.Report.ID,
			Component:   c.Report.Component,
			Kind:        c.Report.Kind,
			Reproducer:  c.Reproducer.SQL(),
			FoundAtExec: c.FoundAtExec,

			Status:       c.Status,
			OriginalLen:  c.OriginalLen,
			MinimizedLen: c.MinimizedLen,
			Replays:      c.Replays,
		})
	}
	return bugs
}

// DB is a standalone handle on the substrate engine, for direct SQL use
// (examples, the REPL, and downstream experimentation).
type DB struct {
	eng *minidb.Engine
}

// Open creates a fresh in-memory database with the given dialect profile.
// Hazards are disarmed: Open'd databases never crash.
func Open(t Target) *DB {
	return &DB{eng: minidb.New(minidb.Config{Dialect: t})}
}

// Result is the outcome of one statement.
type Result struct {
	// Columns names the result columns (queries only).
	Columns []string
	// Rows holds result rows rendered as strings.
	Rows [][]string
	// Affected is the row count touched by DML.
	Affected int
	// Msg is the informational tag of non-query statements.
	Msg string
}

// Exec parses and executes one SQL statement.
func (db *DB) Exec(sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	res, err := db.eng.ExecStmt(stmt)
	if err != nil {
		return nil, err
	}
	return convertResult(res), nil
}

// ExecScript executes a semicolon-separated script, stopping at the first
// error.
func (db *DB) ExecScript(sql string) ([]*Result, error) {
	tc, err := sqlparse.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	var out []*Result
	for _, stmt := range tc {
		res, err := db.eng.ExecStmt(stmt)
		if err != nil {
			return out, fmt.Errorf("%s: %w", stmt.Type(), err)
		}
		out = append(out, convertResult(res))
	}
	return out, nil
}

func convertResult(res *minidb.Result) *Result {
	out := &Result{Columns: res.Cols, Affected: res.Affected, Msg: res.Msg}
	for _, row := range res.Rows {
		srow := make([]string, len(row))
		for i, v := range row {
			srow[i] = v.String()
		}
		out.Rows = append(out.Rows, srow)
	}
	return out
}

// ParseTypeSequence parses a SQL script and returns its SQL Type Sequence
// in the paper's arrow notation — a convenience for exploring the core
// abstraction.
func ParseTypeSequence(sql string) (string, error) {
	tc, err := sqlparse.ParseScript(sql)
	if err != nil {
		return "", err
	}
	return tc.Types().String(), nil
}

// StatementTypes returns the number of statement types a target accepts
// (the "Types" column of the paper's Table IV).
func StatementTypes(t Target) int { return t.NumStatementTypes() }
