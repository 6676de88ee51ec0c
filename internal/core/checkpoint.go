package core

import (
	"fmt"

	"github.com/seqfuzz/lego/internal/affinity"
	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/corpus"
	"github.com/seqfuzz/lego/internal/coverage"
	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/oracle"
	"github.com/seqfuzz/lego/internal/seqsynth"
	"github.com/seqfuzz/lego/internal/sqlparse"
	"github.com/seqfuzz/lego/internal/sqlt"
	"github.com/seqfuzz/lego/internal/triage"
)

// This file converts live campaign state to and from checkpoint.State.
// Snapshot must be taken at a Step boundary (RunWithOptions only
// checkpoints between iterations): everything the fuzzing loop reads — pool,
// library, affinities, synthesizer, coverage, oracle, counters, and the RNG
// stream position — is captured, so a Resume'd campaign replays the exact
// schedule the uninterrupted campaign would have run.

// Snapshot serializes the fuzzer's complete campaign state.
func (f *Fuzzer) Snapshot() *checkpoint.State {
	st := &checkpoint.State{
		Dialect:      uint8(f.opts.Dialect),
		Seed:         f.opts.Seed,
		MaxLen:       f.opts.MaxLen,
		Execs:        f.runner.Execs,
		Stmts:        f.runner.Stmts,
		EnginePanics: f.runner.EnginePanics,
		RNG:          f.src.State(),
	}

	for _, s := range f.pool.All() {
		st.Pool = append(st.Pool, checkpoint.PoolSeed{
			SQL: s.TC.SQL(), NewEdges: s.NewEdges, Picked: s.Picked,
		})
	}
	st.Affinity = exportPairs(f.aff)
	st.GenAffinity = exportPairs(f.runner.GenAff)
	for _, e := range f.runner.Cov.Export() {
		st.Coverage = append(st.Coverage, checkpoint.Edge{Idx: e.Idx, Mask: e.Mask})
	}
	st.Crashes = ExportCrashes(f.runner.Oracle)
	st.Curve = ExportCurve(f.runner.Curve)

	st.Library = map[uint16][]string{}
	for t, sqls := range f.lib.Export() {
		st.Library[uint16(t)] = sqls
	}

	synth := f.synth.Export()
	for _, seq := range synth.Seqs {
		st.SynthSeqs = append(st.SynthSeqs, exportSeq(seq))
	}
	for _, t := range synth.Starts {
		st.SynthStarts = append(st.SynthStarts, uint16(t))
	}
	st.SynthRot = synth.Rot
	for _, p := range f.pending {
		st.Pending = append(st.Pending, [2]uint16{uint16(p.From), uint16(p.To)})
	}
	return st
}

// Resume rebuilds a fuzzer from a checkpoint. opts must describe the same
// campaign the checkpoint was taken from (dialect, seed, MaxLen); a
// mismatch is an error, since the restored schedule would silently diverge
// from the original.
func Resume(opts Options, st *checkpoint.State) (*Fuzzer, error) {
	opts.fill()
	if sqlt.Dialect(st.Dialect) != opts.Dialect {
		return nil, fmt.Errorf("resume: checkpoint is for dialect %s, options say %s",
			sqlt.Dialect(st.Dialect), opts.Dialect)
	}
	if st.Seed != opts.Seed || st.MaxLen != opts.MaxLen {
		return nil, fmt.Errorf("resume: checkpoint campaign (seed %d, len %d) does not match options (seed %d, len %d)",
			st.Seed, st.MaxLen, opts.Seed, opts.MaxLen)
	}

	f := newFuzzer(opts)
	f.src.SetState(st.RNG)
	f.runner.Execs = st.Execs
	f.runner.Stmts = st.Stmts
	f.runner.EnginePanics = st.EnginePanics

	var seeds []*corpus.Seed
	for i, ps := range st.Pool {
		tc, err := sqlparse.ParseScript(ps.SQL)
		if err != nil {
			return nil, fmt.Errorf("resume: pool seed %d: %w", i, err)
		}
		seeds = append(seeds, &corpus.Seed{TC: tc, NewEdges: ps.NewEdges, Picked: ps.Picked})
	}
	f.pool.Import(seeds)

	importPairs(f.aff, st.Affinity)
	importPairs(f.runner.GenAff, st.GenAffinity)

	var edges []coverage.EdgeState
	for _, e := range st.Coverage {
		edges = append(edges, coverage.EdgeState{Idx: e.Idx, Mask: e.Mask})
	}
	f.runner.Cov.Import(edges)

	crashes, err := ImportCrashes(opts.Dialect, st.Crashes)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	f.runner.Oracle.Import(crashes)

	f.runner.Curve = ImportCurve(st.Curve)

	lib := map[sqlt.Type][]string{}
	for t, sqls := range st.Library {
		lib[sqlt.Type(t)] = sqls
	}
	if err := f.lib.Import(lib); err != nil {
		return nil, fmt.Errorf("resume: library: %w", err)
	}

	var synth seqsynth.State
	for _, seq := range st.SynthSeqs {
		synth.Seqs = append(synth.Seqs, importSeq(seq))
	}
	for _, t := range st.SynthStarts {
		synth.Starts = append(synth.Starts, sqlt.Type(t))
	}
	synth.Rot = st.SynthRot
	f.synth.Import(synth)

	for _, p := range st.Pending {
		f.pending = append(f.pending, affinity.Pair{From: sqlt.Type(p[0]), To: sqlt.Type(p[1])})
	}
	return f, nil
}

// RunOptions configures one RunWithOptions campaign leg.
type RunOptions struct {
	// EveryExecs is the checkpoint cadence in test-case executions; Save is
	// additionally called once when the leg ends. Zero (with a nil Save)
	// disables checkpointing.
	EveryExecs int
	// Save persists a snapshot; a non-nil error aborts the leg.
	Save func(*checkpoint.State) error
	// Stop requests a graceful shutdown: once the channel is closed, the
	// leg finishes the fuzzing iteration in flight, stops at the iteration
	// boundary, takes its final snapshot, and returns with interrupted =
	// true. The boundary matters: mid-iteration state (a partially drained
	// synthesis queue, RNG draws already spent on an unfinished mutation
	// round) is a state an uninterrupted campaign never pauses in, so
	// stopping there would make the resumed schedule diverge from the
	// uninterrupted one. Iteration boundaries are exactly the states an
	// uninterrupted campaign also passes through. A nil channel never
	// stops.
	Stop <-chan struct{}
}

// RunWithOptions is the full-featured campaign loop behind Run: it drives
// the fuzzer until the statement budget is consumed or opts.Stop is closed,
// checkpointing on the configured cadence and once at the end. Snapshots
// are taken only at iteration boundaries, where campaign state is fully
// consistent. interrupted reports that the leg ended on the stop
// channel with budget left — the caller can tell a completed campaign from
// a gracefully shut-down one.
func (f *Fuzzer) RunWithOptions(budgetStmts int, opts RunOptions) (runner *harness.Runner, interrupted bool, err error) {
	stopped := func() bool {
		if opts.Stop == nil {
			return false
		}
		select {
		case <-opts.Stop:
			return true
		default:
			return false
		}
	}
	// Step receives only the budget predicate: the budget may run out
	// mid-iteration (that is where the campaign ends, so any state is
	// final), but the stop channel is polled strictly between iterations —
	// see RunOptions.Stop for why.
	exhausted := func() bool { return f.runner.Stmts >= budgetStmts }
	lastSaved := f.runner.Execs
	for !exhausted() && !stopped() {
		f.Step(exhausted)
		if opts.Save != nil && opts.EveryExecs > 0 && f.runner.Execs-lastSaved >= opts.EveryExecs {
			if err := opts.Save(f.Snapshot()); err != nil {
				return f.runner, false, err
			}
			lastSaved = f.runner.Execs
		}
	}
	interrupted = f.runner.Stmts < budgetStmts && stopped()
	if opts.Save != nil {
		if err := opts.Save(f.Snapshot()); err != nil {
			return f.runner, interrupted, err
		}
	}
	return f.runner, interrupted, nil
}

// Triage runs the crash triage pipeline over the campaign oracle: every
// unique crash is re-verified and minimized on a fresh quarantined engine
// built from the campaign's own configuration (see internal/triage). Crash
// entries are updated in place, so a Snapshot taken afterwards persists the
// triage results.
func (f *Fuzzer) Triage(cfg triage.Config) triage.Summary {
	return triage.New(f.runner.Config(), cfg).Run(f.runner.Oracle)
}

// ExportCrashes converts an oracle's deduplicated crashes to checkpoint
// form, in discovery order. Shared by single-shard snapshots and the sharded
// executor's global-oracle export.
func ExportCrashes(o *oracle.Oracle) []checkpoint.Crash {
	var out []checkpoint.Crash
	for _, c := range o.Crashes() {
		out = append(out, checkpoint.Crash{
			ID:          c.Report.ID,
			Component:   c.Report.Component,
			Kind:        c.Report.Kind,
			Stack:       append([]string(nil), c.Report.Stack...),
			Window:      exportSeq(c.Report.Window),
			Reproducer:  c.Reproducer.SQL(),
			FoundAtExec: c.FoundAtExec,
			Hits:        c.Hits,

			Status:       c.Status,
			OriginalLen:  c.OriginalLen,
			MinimizedLen: c.MinimizedLen,
			Replays:      c.Replays,
		})
	}
	return out
}

// ImportCrashes is ExportCrashes's inverse: it re-parses the reproducers and
// rebuilds oracle entries in checkpoint order.
func ImportCrashes(d sqlt.Dialect, crashes []checkpoint.Crash) ([]*oracle.Crash, error) {
	var out []*oracle.Crash
	for i, c := range crashes {
		tc, err := sqlparse.ParseScript(c.Reproducer)
		if err != nil {
			return nil, fmt.Errorf("crash %d reproducer: %w", i, err)
		}
		out = append(out, &oracle.Crash{
			Report: &minidb.BugReport{
				ID:        c.ID,
				Dialect:   d,
				Component: c.Component,
				Kind:      c.Kind,
				Stack:     append([]string(nil), c.Stack...),
				Window:    importSeq(c.Window),
			},
			Reproducer:  tc,
			FoundAtExec: c.FoundAtExec,
			Hits:        c.Hits,

			Status:       c.Status,
			OriginalLen:  c.OriginalLen,
			MinimizedLen: c.MinimizedLen,
			Replays:      c.Replays,
		})
	}
	return out, nil
}

// ExportCurve and ImportCurve convert the coverage-over-time curve between
// its live and checkpoint forms.
func ExportCurve(curve []harness.CurvePoint) []checkpoint.CurvePoint {
	var out []checkpoint.CurvePoint
	for _, p := range curve {
		out = append(out, checkpoint.CurvePoint{Execs: p.Execs, Edges: p.Edges})
	}
	return out
}

// ImportCurve is ExportCurve's inverse.
func ImportCurve(curve []checkpoint.CurvePoint) []harness.CurvePoint {
	var out []harness.CurvePoint
	for _, p := range curve {
		out = append(out, harness.CurvePoint{Execs: p.Execs, Edges: p.Edges})
	}
	return out
}

func exportPairs(m *affinity.Map) [][2]uint16 {
	var out [][2]uint16
	for _, p := range m.Pairs() {
		out = append(out, [2]uint16{uint16(p.From), uint16(p.To)})
	}
	return out
}

func importPairs(m *affinity.Map, pairs [][2]uint16) {
	for _, p := range pairs {
		m.Add(sqlt.Type(p[0]), sqlt.Type(p[1]))
	}
}

func exportSeq(seq sqlt.Sequence) []uint16 {
	var out []uint16
	for _, t := range seq {
		out = append(out, uint16(t))
	}
	return out
}

func importSeq(raw []uint16) sqlt.Sequence {
	var out sqlt.Sequence
	for _, t := range raw {
		out = append(out, sqlt.Type(t))
	}
	return out
}
