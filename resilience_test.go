package lego_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/seqfuzz/lego"
)

// TestFacadeCheckpointResume drives the public durability API end to end:
// a checkpointed campaign resumed from disk must report exactly what the
// uninterrupted campaign reports.
func TestFacadeCheckpointResume(t *testing.T) {
	cfg := lego.Config{Target: lego.MariaDB, Seed: 21, FaultRate: 0.001}
	path := filepath.Join(t.TempDir(), "camp.ckpt")

	// First leg, checkpointed.
	first := lego.NewFuzzer(cfg)
	repA, err := first.FuzzWithCheckpoint(10000, path, 200)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same fuzzer keeps going.
	repRef := first.Fuzz(25000)

	// Resume from disk and run the same second leg.
	resumed, err := lego.ResumeFuzzer(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	repB := resumed.Fuzz(25000)

	if repA.Statements < 10000 {
		t.Fatalf("first leg ran only %d statements", repA.Statements)
	}
	if repRef.Executions != repB.Executions ||
		repRef.Statements != repB.Statements ||
		repRef.Branches != repB.Branches ||
		repRef.Affinities != repB.Affinities ||
		repRef.EnginePanics != repB.EnginePanics ||
		len(repRef.Bugs) != len(repB.Bugs) {
		t.Fatalf("resumed campaign diverged:\nref:     %+v\nresumed: %+v", repRef, repB)
	}
	for i := range repRef.Bugs {
		if repRef.Bugs[i].ID != repB.Bugs[i].ID ||
			repRef.Bugs[i].FoundAtExec != repB.Bugs[i].FoundAtExec {
			t.Fatalf("bug %d differs: %+v vs %+v", i, repRef.Bugs[i], repB.Bugs[i])
		}
	}
}

// TestFacadeFaultCampaignReportsPanics: Config.FaultRate must surface
// contained panics through Report.EnginePanics and as ORGANIC bugs.
func TestFacadeFaultCampaignReportsPanics(t *testing.T) {
	f := lego.NewFuzzer(lego.Config{Target: lego.PostgreSQL, Seed: 2, FaultRate: 0.002})
	rep := f.Fuzz(20000)
	if rep.EnginePanics == 0 {
		t.Fatal("fault campaign must report contained panics")
	}
	organic := 0
	for _, b := range rep.Bugs {
		if strings.HasPrefix(b.ID, "ORGANIC-") {
			organic++
			if b.Kind != "PANIC" || b.Reproducer == "" {
				t.Fatalf("malformed organic bug: %+v", b)
			}
		}
	}
	if organic == 0 {
		t.Fatal("contained panics must surface as ORGANIC bugs")
	}
}

// TestFacadeTriageMariaDB is the acceptance test for the triage pipeline on
// the default MariaDB target: every reported bug must be replay-verified
// STABLE with a minimized reproducer no longer than the original, strictly
// shorter for at least the long multi-statement discoveries.
func TestFacadeTriageMariaDB(t *testing.T) {
	f := lego.NewFuzzer(lego.Config{Target: lego.MariaDB, Triage: true, TriageReplays: 3})
	rep := f.Fuzz(60000)
	if len(rep.Bugs) == 0 {
		t.Fatal("campaign found no bugs")
	}
	shrunk := 0
	for _, b := range rep.Bugs {
		if b.Status != "STABLE" {
			t.Fatalf("%s: status %q, want STABLE (hazards are deterministic)", b.ID, b.Status)
		}
		if b.Replays != 3 {
			t.Fatalf("%s: %d/3 replays reproduced", b.ID, b.Replays)
		}
		if b.MinimizedLen > b.OriginalLen {
			t.Fatalf("%s: minimized %d > original %d", b.ID, b.MinimizedLen, b.OriginalLen)
		}
		if got := len(strings.Split(strings.TrimSpace(b.Reproducer), "\n")); got != b.MinimizedLen {
			t.Fatalf("%s: reported reproducer has %d statements, MinimizedLen says %d",
				b.ID, got, b.MinimizedLen)
		}
		if b.MinimizedLen < b.OriginalLen {
			shrunk++
		}
		// Replay the *reported* SQL from scratch: parse and execute it the
		// way a human reading the bug report would.
		tc, err := lego.ParseTypeSequence(b.Reproducer)
		if err != nil || tc == "" {
			t.Fatalf("%s: reported reproducer does not parse: %v", b.ID, err)
		}
	}
	if shrunk == 0 {
		t.Fatal("no reproducer got strictly shorter; minimization did nothing")
	}
}

// TestFacadeInterruptedResume: a campaign stopped via FuzzOptions.Stop (the
// CLI's SIGINT path) must flush a resumable checkpoint, report Interrupted,
// and — resumed from that checkpoint — reach the same final bug set as a
// campaign that was never interrupted.
func TestFacadeInterruptedResume(t *testing.T) {
	cfg := lego.Config{Target: lego.MariaDB, Seed: 17, Triage: true}
	const budget = 120000

	// Reference: uninterrupted.
	ref := lego.NewFuzzer(cfg)
	repRef := ref.Fuzz(budget)

	// Interrupted: stop lands at some nondeterministic point mid-run; the
	// final-state equivalence must hold wherever it lands (and trivially if
	// the run finished first).
	path := filepath.Join(t.TempDir(), "sig.ckpt")
	stop := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(stop)
	}()
	intr := lego.NewFuzzer(cfg)
	repI, err := intr.FuzzWithOptions(budget, lego.FuzzOptions{
		CheckpointPath:  path,
		CheckpointEvery: 500,
		Stop:            stop,
	})
	if err != nil {
		t.Fatal(err)
	}
	if repI.Interrupted && repI.Statements >= budget {
		t.Fatalf("interrupted report claims a full budget: %d", repI.Statements)
	}

	resumed, err := lego.ResumeFuzzer(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	repB := resumed.Fuzz(budget)

	if repRef.Executions != repB.Executions || repRef.Statements != repB.Statements ||
		repRef.Branches != repB.Branches || len(repRef.Bugs) != len(repB.Bugs) {
		t.Fatalf("resumed campaign diverged:\nref:     %+v\nresumed: %+v", repRef, repB)
	}
	for i := range repRef.Bugs {
		if repRef.Bugs[i].ID != repB.Bugs[i].ID ||
			repRef.Bugs[i].FoundAtExec != repB.Bugs[i].FoundAtExec ||
			repRef.Bugs[i].Status != repB.Bugs[i].Status {
			t.Fatalf("bug %d differs: %+v vs %+v", i, repRef.Bugs[i], repB.Bugs[i])
		}
	}
}

// TestFacadeResumeFallsBackToBackup: a corrupted primary checkpoint must not
// kill the resume — the rotated .bak generation is used and the session
// carries a warning.
func TestFacadeResumeFallsBackToBackup(t *testing.T) {
	cfg := lego.Config{Target: lego.MySQL, Seed: 8}
	path := filepath.Join(t.TempDir(), "camp.ckpt")
	f := lego.NewFuzzer(cfg)
	// Two checkpoint generations: a periodic save plus the final flush.
	if _, err := f.FuzzWithCheckpoint(6000, path, 100); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("scribbled over by a dying disk"), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := lego.ResumeFuzzer(cfg, path)
	if err != nil {
		t.Fatalf("resume must fall back to the .bak generation: %v", err)
	}
	if w := resumed.ResumeWarning(); !strings.Contains(w, ".bak") {
		t.Fatalf("fallback must carry a warning naming the backup, got %q", w)
	}
	// The restored campaign is live: it can keep fuzzing.
	rep := resumed.Fuzz(8000)
	if rep.Statements < 8000 {
		t.Fatalf("resumed campaign ran only %d statements", rep.Statements)
	}
}

// TestFacadeChaosCampaign drives the chaos plane through the public API: a
// supervised campaign under a fixed (ChaosRate, ChaosSeed) must complete,
// journal its incidents in the report, and produce the exact same report —
// incidents included — when run again.
func TestFacadeChaosCampaign(t *testing.T) {
	cfg := lego.Config{
		Target:     lego.MariaDB,
		Seed:       21,
		Workers:    3,
		EpochStmts: 500,
		ChaosRate:  0.08,
		ChaosSeed:  7,
	}
	// A chaotic campaign may quarantine a shard and finish below budget —
	// that is the documented degradation, not a failure — but it must make
	// real progress.
	run := func() lego.Report {
		rep := lego.NewFuzzer(cfg).Fuzz(12000)
		if rep.Statements < 6000 {
			t.Fatalf("chaotic campaign ran only %d statements", rep.Statements)
		}
		return rep
	}
	repA := run()
	repB := run()

	if repA.Workers != 3 {
		t.Fatalf("report claims %d workers, config asked for 3", repA.Workers)
	}
	if len(repA.Incidents) == 0 {
		t.Fatal("chaos at rate 0.08 over 24 shard-epochs injected nothing; the plane is not armed")
	}
	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("chaotic campaign is not deterministic:\nA: %+v\nB: %+v", repA, repB)
	}
	for _, in := range repA.Incidents {
		if in.Kind == "" || in.Outcome == "" || in.Detail == "" {
			t.Fatalf("incomplete incident record: %+v", in)
		}
	}
}

// TestFacadeChaosQuarantineDegrades: with every epoch failing and the retry
// budget at its floor, all shards quarantine — and the public API still
// returns a completed report describing the degraded topology instead of an
// error.
func TestFacadeChaosQuarantineDegrades(t *testing.T) {
	rep := lego.NewFuzzer(lego.Config{
		Target:          lego.MariaDB,
		Seed:            5,
		Workers:         2,
		EpochStmts:      400,
		ChaosRate:       1,
		ChaosSeed:       3,
		MaxEpochRetries: -1, // quarantine on first failure
	}).Fuzz(8000)

	if len(rep.Quarantined) != 2 {
		t.Fatalf("rate-1 chaos with no retries must quarantine both shards, got %v", rep.Quarantined)
	}
	if rep.Workers != 2 {
		t.Fatalf("report must keep the starting topology, got %d workers", rep.Workers)
	}
	for _, in := range rep.Incidents {
		if in.Outcome != "QUARANTINED" {
			t.Fatalf("no-retry campaign journaled a non-quarantine outcome: %+v", in)
		}
	}
}

// TestFacadeChaosSingleWorkerSupervised: ChaosRate > 0 with the default
// worker count arms the same supervision as a sharded campaign — a
// single-worker campaign's failed epochs are journaled and retried too.
func TestFacadeChaosSingleWorkerSupervised(t *testing.T) {
	rep := lego.NewFuzzer(lego.Config{
		Target:     lego.MySQL,
		Seed:       9,
		EpochStmts: 300,
		ChaosRate:  0.2,
		ChaosSeed:  4,
	}).Fuzz(6000)
	if rep.Workers != 1 {
		t.Fatalf("single-worker chaos campaign reports %d workers", rep.Workers)
	}
	if len(rep.Incidents) == 0 {
		t.Fatal("rate-0.2 chaos over 20 epochs injected nothing on the single-worker path")
	}
}

// TestFacadeTriageFlushCountsSaveFault: the checkpoint flush after triage
// goes through the executor's save path, so a fault the chaos plane injects
// into it is counted like any other eaten save. At ChaosRate 1 every save
// faults, and triage adds exactly one save.
func TestFacadeTriageFlushCountsSaveFault(t *testing.T) {
	run := func(triage bool) lego.Report {
		f := lego.NewFuzzer(lego.Config{
			Target:     lego.MySQL,
			Seed:       6,
			EpochStmts: 300,
			ChaosRate:  1,
			Triage:     triage,
		})
		rep, err := f.FuzzWithCheckpoint(3000, filepath.Join(t.TempDir(), "c.ckpt"), 50)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	off, on := run(false), run(true)
	if off.SaveFaults == 0 {
		t.Fatal("rate-1 chaos ate no save; the fault plane is not armed")
	}
	if on.SaveFaults != off.SaveFaults+1 {
		t.Fatalf("SaveFaults with triage = %d, want %d (without triage) + 1", on.SaveFaults, off.SaveFaults)
	}
}

// TestFacadeResumeErrors: bad paths and mismatched configs fail loudly.
func TestFacadeResumeErrors(t *testing.T) {
	if _, err := lego.ResumeFuzzer(lego.Config{Target: lego.MySQL}, "/nonexistent/file.ckpt"); err == nil {
		t.Fatal("missing checkpoint must error")
	}

	path := filepath.Join(t.TempDir(), "c.ckpt")
	f := lego.NewFuzzer(lego.Config{Target: lego.MySQL, Seed: 3})
	if _, err := f.FuzzWithCheckpoint(2000, path, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := lego.ResumeFuzzer(lego.Config{Target: lego.Comdb2, Seed: 3}, path); err == nil {
		t.Fatal("dialect mismatch must error")
	}
}
