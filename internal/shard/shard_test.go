package shard

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/core"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// testOptions is a small but bug-bearing campaign: hazards armed so crashes
// cross-pollinate, fault injection armed so the per-shard fault schedules
// are exercised, and an epoch short enough that a few-thousand-statement
// budget crosses several barriers.
func testOptions(workers int) Options {
	return Options{
		Core: core.Options{
			Dialect:   sqlt.DialectMariaDB,
			Seed:      21,
			Hazards:   true,
			FaultRate: 0.002,
		},
		Workers:    workers,
		EpochStmts: 500,
	}
}

func snapshotJSON(t *testing.T, e *Executor) []byte {
	t.Helper()
	b, err := json.Marshal(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardedDoubleRunDeterminism is the tentpole acceptance test: two
// sharded campaigns with identical options must produce byte-identical
// checkpoints — coverage, pools, RNG positions, crashes, curve — no matter
// how the per-epoch goroutines were scheduled. Run it under -race to also
// certify that shards share no mutable state between barriers.
func TestShardedDoubleRunDeterminism(t *testing.T) {
	const budget = 8000
	a := New(testOptions(4))
	b := New(testOptions(4))
	if _, err := a.Run(budget, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(budget, RunOptions{}); err != nil {
		t.Fatal(err)
	}

	if a.Execs() == 0 || a.Branches() == 0 {
		t.Fatalf("campaign did no work: execs=%d branches=%d", a.Execs(), a.Branches())
	}
	if a.Epoch() < 3 {
		t.Fatalf("budget crossed only %d barriers; the test needs several to be meaningful", a.Epoch())
	}
	sa, sb := snapshotJSON(t, a), snapshotJSON(t, b)
	if string(sa) != string(sb) {
		t.Fatalf("identical sharded campaigns diverged\nrun A: %.400s\nrun B: %.400s", sa, sb)
	}
}

// TestBarrierInvariants: after a barrier every shard holds the global
// OR-fold of coverage, the same seed set, the same affinity union, and the
// same deduplicated crash keys — the post-barrier symmetry the executor's
// determinism argument rests on.
func TestBarrierInvariants(t *testing.T) {
	e := New(testOptions(3))
	if _, err := e.Run(6000, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	for i, sh := range e.Shards() {
		if got := sh.Runner().Branches(); got != e.Branches() {
			t.Errorf("shard %d coverage %d edges != global %d", i, got, e.Branches())
		}
		if got := sh.Pool().Len(); got != e.Shards()[0].Pool().Len() {
			t.Errorf("shard %d pool size %d != shard 0's %d", i, got, e.Shards()[0].Pool().Len())
		}
		if got := sh.Affinities(); got != e.Affinities() {
			t.Errorf("shard %d affinities %d != global %d", i, got, e.Affinities())
		}
		if got := sh.Runner().Oracle.Count(); got != e.Oracle().Count() {
			t.Errorf("shard %d distinct crashes %d != global %d", i, got, e.Oracle().Count())
		}
	}
	if e.Oracle().Count() == 0 {
		t.Fatal("hazard campaign found no crashes; pollination untested")
	}
	// Adopted crashes carry zero hits, so the global per-crash hit tally
	// equals the sum of real observations — no double counting.
	var shardHits, globalHits int
	for _, sh := range e.Shards() {
		for _, c := range sh.Runner().Oracle.Crashes() {
			shardHits += c.Hits
		}
	}
	for _, c := range e.Oracle().Crashes() {
		globalHits += c.Hits
	}
	if shardHits != globalHits {
		t.Errorf("global hit tally %d != sum of shard observations %d", globalHits, shardHits)
	}
}

// TestShardedStopResumeEquivalence: a campaign stopped at an epoch barrier
// and resumed from its checkpoint (through a real file round trip) must
// finish in exactly the state of the campaign that was never interrupted,
// because barriers are states uninterrupted campaigns also pass through.
// A stop channel closed before Run starts stops the leg before any
// statement runs, and the final flush still happens.
func TestShardedStopResumeEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		// budget is longer for one worker, whose barriers land on iteration
		// boundaries: its first iteration alone can run 10k statements.
		budget int
		// stopAt closes the stop channel from the first save taken at or
		// after this epoch; a negative value closes it before Run starts.
		stopAt int
	}{
		{"workers-1", 1, 30000, 2},
		{"workers-3", 3, 8000, 2},
		{"workers-1-pre-closed", 1, 30000, -1},
		{"workers-3-pre-closed", 3, 8000, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := New(testOptions(tc.workers))
			if _, err := ref.Run(tc.budget, RunOptions{}); err != nil {
				t.Fatal(err)
			}

			interrupted := New(testOptions(tc.workers))
			before := interrupted.Stmts()
			stop := make(chan struct{})
			if tc.stopAt < 0 {
				close(stop)
			}
			closed := tc.stopAt < 0
			var last *checkpoint.State
			saves := 0
			wasStopped, err := interrupted.Run(tc.budget, RunOptions{
				EveryExecs: 1, // checkpoint at every barrier
				Save: func(st *checkpoint.State) error {
					saves++
					last = st
					if !closed && interrupted.Epoch() >= tc.stopAt {
						closed = true
						close(stop)
					}
					return nil
				},
				Stop: stop,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !wasStopped {
				t.Fatal("campaign ran to completion before the stop request landed")
			}
			if last == nil || last.Stmts != interrupted.Stmts() {
				t.Fatalf("final flush missing or stale after %d saves", saves)
			}
			if tc.stopAt < 0 && (saves != 1 || interrupted.Stmts() != before) {
				t.Fatalf("pre-closed stop: %d saves and %d statements run, want only the final flush and none",
					saves, interrupted.Stmts()-before)
			}

			path := t.TempDir() + "/sharded.ckpt"
			if err := checkpoint.Save(path, last); err != nil {
				t.Fatal(err)
			}
			loaded, err := checkpoint.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := Resume(testOptions(tc.workers), loaded)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Execs() != interrupted.Execs() || resumed.Epoch() != interrupted.Epoch() {
				t.Fatalf("restored campaign at execs=%d epoch=%d, want execs=%d epoch=%d",
					resumed.Execs(), resumed.Epoch(), interrupted.Execs(), interrupted.Epoch())
			}
			if _, err := resumed.Run(tc.budget, RunOptions{}); err != nil {
				t.Fatal(err)
			}

			a, b := snapshotJSON(t, ref), snapshotJSON(t, resumed)
			if string(a) != string(b) {
				t.Fatalf("resumed campaign diverged from uninterrupted run\nref:     %.400s\nresumed: %.400s", a, b)
			}
		})
	}
}

// TestResumeRejectsMismatchedTopology: Workers and EpochStmts identify the
// campaign the way Seed does — resuming under a different topology would
// silently move every barrier, so it must fail loudly instead.
func TestResumeRejectsMismatchedTopology(t *testing.T) {
	e := New(testOptions(2))
	if _, err := e.Run(2000, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()

	wrongWorkers := testOptions(3)
	if _, err := Resume(wrongWorkers, st); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("resume with wrong worker count: got %v, want workers mismatch error", err)
	}
	wrongEpoch := testOptions(2)
	wrongEpoch.EpochStmts = 999
	if _, err := Resume(wrongEpoch, st); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("resume with wrong epoch budget: got %v, want epoch mismatch error", err)
	}
}

// TestCurveIsBarrierSampled: the global curve carries one point per
// progressing barrier, with strictly increasing exec counts and a final
// point matching the campaign totals.
func TestCurveIsBarrierSampled(t *testing.T) {
	e := New(testOptions(2))
	if _, err := e.Run(4000, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	curve := e.Curve()
	if len(curve) < 2 {
		t.Fatalf("curve has %d points, want at least the initial and a barrier sample", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Execs <= curve[i-1].Execs {
			t.Fatalf("curve execs not strictly increasing at %d: %+v", i, curve)
		}
	}
	last := curve[len(curve)-1]
	if last.Execs != e.Execs() || last.Edges != e.Branches() {
		t.Fatalf("final curve point %+v, want execs=%d edges=%d", last, e.Execs(), e.Branches())
	}
}
