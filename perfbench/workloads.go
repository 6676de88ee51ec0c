package main

import (
	"fmt"

	"github.com/seqfuzz/lego/internal/core"
	"github.com/seqfuzz/lego/internal/shard"
	"github.com/seqfuzz/lego/internal/sqlt"
	"github.com/seqfuzz/lego/internal/triage"
)

// workload is one named campaign configuration. Every workload is a closed
// loop with a single client: the fuzzer builds its next test case only after
// the previous one has finished, and the campaign's RNG seed is the only
// input the benchmark varies.
type workload struct {
	name    string
	dialect sqlt.Dialect
	// budget is each campaign's statement budget, and campaigns the number
	// of campaigns (seeds derived from the workload seed) in one run.
	budget    int
	campaigns int
	// workers > 1 (or chaosRate > 0) selects the supervised sharded
	// executor, as `legofuzz -workers N -chaos-rate R` does.
	workers    int
	chaosRate  float64
	maxRetries int
	// ckptEvery is the sharded run's checkpoint cadence in test-case
	// executions; it also saves once at the end and once after triage.
	ckptEvery int
}

// workloads lists the benchmark's workloads; README.md records why each
// exists and why a run is a set of short campaigns rather than one long one.
var workloads = []workload{
	// The default user path, single-threaded: engine execution is the
	// largest share of a step.
	{
		name:      "mariadb-long",
		dialect:   sqlt.DialectMariaDB,
		budget:    120_000,
		campaigns: 16,
		workers:   1,
	},
	// Mutation (AST clone included) weighs twice its MariaDB share, and
	// campaigns find the most crashes for triage to work on.
	{
		name:      "comdb2-triage",
		dialect:   sqlt.DialectComdb2,
		budget:    200_000,
		campaigns: 12,
		workers:   1,
	},
	// legofuzz -workers 2 -chaos-rate 0.004 -max-epoch-retries 16
	// -checkpoint … -checkpoint-every 1000: the only workload with barrier
	// merges, supervision snapshots and checkpoint writes. The retry budget
	// keeps every shard out of quarantine (the output check requires it).
	// BENCHMARK.json does not list it (its wall clock follows CPU steal on
	// either vCPU, too unsteady for a bound); it runs as the shard probe of
	// the other workloads' traced runs, and by name.
	{
		name:       "mariadb-sharded-chaos",
		dialect:    sqlt.DialectMariaDB,
		budget:     200_000,
		campaigns:  5,
		workers:    2,
		chaosRate:  0.004,
		maxRetries: 16,
		ckptEvery:  1000,
	},
}

// shardProbe is the workload whose campaign supplies the shard and
// checkpoint layers to the traced runs of single-threaded workloads.
const shardProbe = "mariadb-sharded-chaos"

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) sharded() bool { return w.workers > 1 || w.chaosRate > 0 }

// coreOptions mirrors lego.Config.options for a default-flag legofuzz run:
// hazards armed, every other knob at its default.
func (w workload) coreOptions(seed int64) core.Options {
	if seed == 0 {
		seed = 1
	}
	return core.Options{Dialect: w.dialect, Seed: seed, Hazards: true}
}

func (w workload) shardOptions(seed int64) shard.Options {
	return shard.Options{
		Core:            w.coreOptions(seed),
		Workers:         w.workers,
		ChaosRate:       w.chaosRate,
		MaxEpochRetries: w.maxRetries,
	}
}

// triageConfig is legofuzz's default -triage-replays/-triage-budget.
var triageConfig = triage.Config{Replays: 3, Budget: 256}
