package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/seqfuzz/lego/internal/chaos"
	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/shard"
	"github.com/seqfuzz/lego/internal/triage"
)

// runTraced runs one traced repetition and returns its digest, timings and
// per-layer metrics. spansPath, when set, receives every span as CSV.
func runTraced(w workload, seed int64, budget int, dir, spansPath string) (repResult, error) {
	if w.sharded() {
		return runShardedTraced(w, seed, budget, dir, spansPath)
	}
	var r repResult
	rec := newRecorder()
	t0 := time.Now()
	f := newTracedFuzzer(w.coreOptions(seed), rec)
	r.SetupS = time.Since(t0).Seconds()
	setupStmts := f.runner.Stmts

	u := sampleUsage()
	err := f.run(budget)
	u.finish(&r)
	if err != nil {
		return r, err
	}

	t := rec.now()
	sum := triage.New(f.runner.Config(), triageConfig).Run(f.runner.Oracle)
	rec.add(kTriage, t)
	r.MaxRSSMB = maxRSSMB()

	runner := f.runner
	r.Digest = digest{
		Execs:      runner.Execs,
		Stmts:      runner.Stmts,
		Branches:   runner.Branches(),
		Affinities: f.aff.Count(),
		Bugs:       bugIDs(runner.Oracle),
	}
	r.Problems = triageProblems(runner.Oracle)

	s := rec.summarize()
	r.TriageS = float64(s.total[kTriage]) / 1e9
	r.Layers = map[string]float64{}
	f.layers(r.Layers, s, runner.Stmts-setupStmts)
	triageLayers(r.Layers, sum, s.total[kTriage])
	if spansPath != "" {
		if err := rec.writeSpans(spansPath); err != nil {
			return r, err
		}
	}
	return r, nil
}

// runShardedTraced drives the sharded campaign one epoch per Executor.Run
// leg, with spans around each leg, each Executor.Snapshot and each save.
// Saves follow Run's own cadence (after a barrier once EveryExecs
// executions have passed, and once at the end), so the campaign and its
// checkpoints are the untraced run's. Executor internals are unexported,
// so the in-shard layers come from a traced single-threaded replay of shard
// 0's stream at the per-shard budget.
func runShardedTraced(w workload, seed int64, budget int, dir, spansPath string) (repResult, error) {
	var r repResult
	rec := newRecorder()
	t0 := time.Now()
	ex := shard.New(w.shardOptions(seed))
	r.SetupS = time.Since(t0).Seconds()

	path := filepath.Join(dir, "campaign.ckpt")
	faults := 0
	save := func() error {
		t := rec.now()
		st := ex.Snapshot()
		rec.add(kSnapshot, t)
		t = rec.now()
		err := checkpoint.SaveFS(ex.FS(), path, st)
		rec.add(kSave, t)
		if errors.Is(err, chaos.ErrInjected) {
			faults++
			return nil
		}
		return err
	}

	u := sampleUsage()
	legStmts := w.workers * shard.DefaultEpochStmts
	lastSaved := ex.Execs()
	for k := 1; ; k++ {
		leg := min(k*legStmts, budget)
		t := rec.now()
		_, err := ex.Run(leg, shard.RunOptions{})
		rec.add(kLeg, t)
		if err != nil {
			return r, fmt.Errorf("campaign: %w", err)
		}
		if w.ckptEvery > 0 && ex.Execs()-lastSaved >= w.ckptEvery {
			if err := save(); err != nil {
				return r, fmt.Errorf("checkpoint: %w", err)
			}
			lastSaved = ex.Execs()
		}
		if leg == budget {
			break
		}
	}
	if err := save(); err != nil {
		return r, fmt.Errorf("checkpoint: %w", err)
	}
	u.finish(&r)

	t := rec.now()
	sum := ex.Triage(triageConfig)
	rec.add(kTriage, t)
	if err := checkpoint.SaveFS(ex.FS(), path, ex.Snapshot()); err != nil && !errors.Is(err, chaos.ErrInjected) {
		return r, fmt.Errorf("final checkpoint: %w", err)
	}
	r.MaxRSSMB = maxRSSMB()

	r.Digest = shardDigest(ex)
	r.EnginePanics = ex.EnginePanics()
	r.Problems = triageProblems(ex.Oracle())
	sha, err := fileSHA(path)
	if err != nil {
		return r, err
	}
	r.Checkpoint = sha

	s := rec.summarize()
	r.TriageS = float64(s.total[kTriage]) / 1e9
	r.Layers = map[string]float64{}
	triageLayers(r.Layers, sum, s.total[kTriage])
	r.Layers["shard.leg_ms_p50"] = nsToMS(percentile(s.durs[kLeg], 0.50))
	r.Layers["shard.leg_ms_p99"] = nsToMS(percentile(s.durs[kLeg], 0.99))
	r.Layers["shard.incidents"] = float64(len(ex.Incidents()))
	r.Layers["shard.quarantined"] = float64(len(ex.QuarantinedShards()))
	r.Layers["checkpoint.snapshot_ms"] = nsToMS(median(s.durs[kSnapshot]))
	r.Layers["checkpoint.write_ms"] = nsToMS(median(s.durs[kSave]))
	r.Layers["checkpoint.save_faults"] = float64(faults)
	fi, err := os.Stat(path)
	if err != nil {
		return r, fmt.Errorf("final checkpoint: %w", err)
	}
	r.Layers["checkpoint.bytes"] = float64(fi.Size())
	loads, err := timeLoads(path, 5)
	if err != nil {
		return r, err
	}
	r.Layers["checkpoint.load_ms"] = median(loads)
	if spansPath != "" {
		if err := rec.writeSpans(spansPath); err != nil {
			return r, err
		}
	}

	// In-shard layers: shard 0's stream, single-threaded, traced.
	replay := newRecorder()
	f := newTracedFuzzer(w.coreOptions(seed), replay)
	setupStmts := f.runner.Stmts
	if err := f.run(budget / w.workers); err != nil {
		return r, err
	}
	f.layers(r.Layers, replay.summarize(), f.runner.Stmts-setupStmts)
	return r, nil
}

func triageLayers(out map[string]float64, sum triage.Summary, ns int64) {
	out["triage.ms_per_bug"] = ratioF(nsToMS(float64(ns)), sum.Triaged)
	out["triage.replays_per_bug"] = ratio(sum.Steps, sum.Triaged)
	out["triage.stable_ratio"] = ratio(sum.Stable, sum.Triaged)
}
