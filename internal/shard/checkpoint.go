package shard

import (
	"fmt"

	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/core"
)

// Snapshot captures the whole sharded campaign as a checkpoint state: one
// complete per-worker state per shard (in shard-index order) plus the
// merged global view at the top level. Snapshots are only taken at epoch
// barriers, so the nested shard states are exactly the states an
// uninterrupted campaign passes through.
//
// The supervision fields are written only when used — chaos identity only
// when the chaos plane is armed, the retry budget only when it matters for
// resume identity — so a campaign that never engages supervision writes
// none of them.
func (e *Executor) Snapshot() *checkpoint.State {
	shards := make([]*checkpoint.State, len(e.shards))
	for i, sh := range e.shards {
		ss := sh.Snapshot()
		ss.Quarantined = e.quarantined[i]
		ss.Retries = e.retries[i]
		shards[i] = ss
	}
	st := &checkpoint.State{
		// Campaign identity comes from shard 0 (all shards agree on
		// everything but the RNG stream, which each nested state carries).
		Dialect: shards[0].Dialect,
		Seed:    shards[0].Seed,
		MaxLen:  shards[0].MaxLen,

		// Global aggregates: counters are totals, the curve is the
		// barrier-sampled global curve, and the crashes are the merged
		// oracle — the only copy that carries triage results.
		Execs:        e.Execs(),
		Stmts:        e.Stmts(),
		EnginePanics: e.EnginePanics(),
		Curve:        core.ExportCurve(e.curve),
		Crashes:      core.ExportCrashes(e.oracle),

		Workers:    len(e.shards),
		EpochStmts: e.opts.EpochStmts,
		Epoch:      e.epoch,
		Shards:     shards,

		Incidents: e.incidents,
	}
	if e.opts.ChaosRate != 0 {
		st.ChaosRate = e.opts.ChaosRate
		st.ChaosSeed = e.opts.ChaosSeed
	}
	if e.opts.ChaosRate != 0 || len(e.incidents) > 0 {
		// The retry budget shapes the schedule only once failures exist (or
		// can exist); record it exactly then, so Resume can insist on it.
		st.MaxEpochRetries = e.opts.MaxEpochRetries
	}
	return st
}

// Resume rebuilds a sharded campaign from a checkpoint. The topology
// (Workers, EpochStmts) is part of the campaign's identity — resuming under
// a different one would move every epoch barrier — so mismatches fail
// loudly, like core.Resume does for seed and dialect. Every campaign
// checkpoint nests one state per shard, a one-worker campaign included; a
// flat state without shards is a worker state, not a campaign, and is
// rejected.
func Resume(opts Options, st *checkpoint.State) (*Executor, error) {
	opts.fill()
	if st.Workers != opts.Workers || len(st.Shards) != st.Workers {
		return nil, fmt.Errorf("shard: resume: checkpoint has %d workers (%d shard states), options request %d",
			st.Workers, len(st.Shards), opts.Workers)
	}
	if st.EpochStmts != opts.EpochStmts {
		return nil, fmt.Errorf("shard: resume: checkpoint epoch budget is %d statements, options request %d", st.EpochStmts, opts.EpochStmts)
	}
	// The chaos identity is campaign identity: the fault schedule shapes the
	// incident journal and, through retries, every shard's RNG consumption,
	// so resuming under a different schedule would silently diverge.
	if st.ChaosRate != opts.ChaosRate {
		return nil, fmt.Errorf("shard: resume: checkpoint chaos rate is %v, options request %v", st.ChaosRate, opts.ChaosRate)
	}
	if st.ChaosRate != 0 && st.ChaosSeed != opts.ChaosSeed {
		return nil, fmt.Errorf("shard: resume: checkpoint chaos seed is %d, options request %d", st.ChaosSeed, opts.ChaosSeed)
	}
	if st.MaxEpochRetries != 0 && st.MaxEpochRetries != opts.MaxEpochRetries {
		return nil, fmt.Errorf("shard: resume: checkpoint retry budget is %d epochs, options request %d", st.MaxEpochRetries, opts.MaxEpochRetries)
	}

	e := newExecutor(opts)
	e.epoch = st.Epoch
	e.retries = make([]int, opts.Workers)
	e.quarantined = make([]bool, opts.Workers)
	e.incidents = st.Incidents
	for i, ss := range st.Shards {
		f, err := core.Resume(e.coreOpts(i), ss)
		if err != nil {
			return nil, fmt.Errorf("shard: resume shard %d: %w", i, err)
		}
		e.shards = append(e.shards, f)
		e.quarantined[i] = ss.Quarantined
		e.retries[i] = ss.Retries
	}

	// Snapshots are taken post-barrier, so every shard's pool deltas have
	// already been donated and every shard's coverage equals the global
	// OR-fold; rebuilding the global map by merging the shards is exact.
	e.poolMark = make([]int, len(e.shards))
	for i, sh := range e.shards {
		e.poolMark[i] = sh.Pool().Len()
		e.global.Merge(sh.Runner().Cov)
	}

	// The top-level crash list is the merged global oracle and the only
	// copy carrying triage results; prefer it over re-merging the shards,
	// which would resurrect pre-triage fields.
	if len(st.Crashes) > 0 {
		crashes, err := core.ImportCrashes(opts.Core.Dialect, st.Crashes)
		if err != nil {
			return nil, fmt.Errorf("shard: resume: %w", err)
		}
		e.oracle.Import(crashes)
	} else {
		for _, sh := range e.shards {
			e.oracle.Merge(sh.Runner().Oracle)
		}
	}
	e.curve = core.ImportCurve(st.Curve)
	// The restored states are barrier states; if supervision is armed, the
	// first runEpoch re-snapshots them lazily before any worker runs.
	return e, nil
}
