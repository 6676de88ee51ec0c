package main

import (
	"strings"
	"testing"
)

// tinyBudget keeps each test campaign well under a second.
const tinyBudget = 20_000

// TestWorkloadsTinyBudget runs every workload twice at a tiny budget and
// applies the benchmark's output check: identical digests (and, sharded,
// identical final checkpoint bytes), every triaged bug STABLE, no shard
// quarantined.
func TestWorkloadsTinyBudget(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := runUntraced(w, 7, tinyBudget, t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runUntraced(w, 7, tinyBudget, t.TempDir(), true)
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest.Stmts < tinyBudget || a.Digest.Execs == 0 || a.Digest.Branches == 0 {
				t.Fatalf("campaign did not run its budget: %s", a.Digest)
			}
			if a.Digest.String() != b.Digest.String() {
				t.Fatalf("digests differ across runs of one seed:\n%s\n%s", a.Digest, b.Digest)
			}
			if a.Checkpoint != b.Checkpoint || (w.sharded() && a.Checkpoint == "") {
				t.Fatalf("final checkpoints differ: %q vs %q", a.Checkpoint, b.Checkpoint)
			}
			for _, r := range []repResult{a, b} {
				if len(r.Problems) > 0 || len(r.Digest.Quarantined) > 0 {
					t.Fatalf("output check failed: %v, quarantined %v", r.Problems, r.Digest.Quarantined)
				}
				if r.SetupS <= 0 || r.CampaignS <= 0 || r.CPUS <= 0 || r.Mallocs == 0 || r.MaxRSSMB <= 0 {
					t.Fatalf("cost fields not measured: %+v", r)
				}
			}
			if b.Layers["minidb.reset_ns"] <= 0 || b.Layers["minidb.reset_allocs"] <= 0 {
				t.Fatalf("reset probe missing: %v", b.Layers)
			}
		})
	}
}

// TestTracedFidelity checks that the traced driver runs the same program
// as the untraced campaign: identical digests on both dialects (and the
// same final checkpoint on the sharded workload), with every per-layer
// metric reported.
func TestTracedFidelity(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			u, err := runUntraced(w, 3, tinyBudget, t.TempDir(), true)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runTraced(w, 3, tinyBudget, t.TempDir(), "")
			if err != nil {
				t.Fatal(err)
			}
			if u.Digest.String() != tr.Digest.String() {
				t.Fatalf("traced run diverged:\nuntraced %s\ntraced   %s", u.Digest, tr.Digest)
			}
			if u.Checkpoint != tr.Checkpoint {
				t.Fatalf("traced final checkpoint %q, untraced %q", tr.Checkpoint, u.Checkpoint)
			}
			for k, v := range u.Layers {
				tr.Layers[k] = v
			}
			for name := range layerUnits {
				switch {
				case name == "triage_s", name == "shard.cpu_per_wall", name == "trace.overhead_ratio":
					continue // computed by the parent from both runs
				case !w.sharded() && (strings.HasPrefix(name, "shard.") || strings.HasPrefix(name, "checkpoint.")):
					continue // the parent takes these from the shard probe
				}
				if _, ok := tr.Layers[name]; !ok {
					t.Errorf("per-layer metric %s not reported", name)
				}
			}
			for _, name := range []string{"core.step_ns_p50", "mutate.ns_per_call", "minidb.exec_ns_per_stmt",
				"coverage.accumulate_ns", "triage.ms_per_bug"} {
				if tr.Layers[name] <= 0 {
					t.Errorf("per-layer time %s = %v, want > 0", name, tr.Layers[name])
				}
			}
			if !w.sharded() {
				return
			}
			for _, name := range []string{"shard.leg_ms_p50", "checkpoint.write_ms", "checkpoint.load_ms"} {
				if tr.Layers[name] <= 0 {
					t.Errorf("per-layer time %s = %v, want > 0", name, tr.Layers[name])
				}
			}
		})
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
	if got := percentile(xs, 0.99); got != 5 {
		t.Fatalf("p99 = %v", got)
	}
	if got := percentile(xs, 0.5); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
}
