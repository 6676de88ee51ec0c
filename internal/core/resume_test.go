package core

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// snapshotJSON renders a campaign snapshot for byte-exact comparison.
func snapshotJSON(t *testing.T, f *Fuzzer) []byte {
	t.Helper()
	b, err := json.Marshal(f.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeterministicResume is the acceptance test for checkpoint/resume:
// a campaign checkpointed mid-flight and resumed in a brand-new fuzzer must
// reach the *identical* final state — schedule, coverage, affinities, bugs,
// RNG position — as the campaign that kept running. Fault injection is armed
// so the injector stream is part of what must survive the round trip.
func TestDeterministicResume(t *testing.T) {
	opts := Options{Dialect: sqlt.DialectMariaDB, Seed: 11, Hazards: true, FaultRate: 0.002}

	// Reference campaign: run to 8k statements, snapshot, keep running.
	ref := New(opts)
	ref.Run(8000)
	mid := ref.Snapshot()
	ref.Run(20000)

	// Interrupted campaign: restore the mid-flight snapshot into a fresh
	// fuzzer (via a real file round trip) and run the same second leg.
	path := t.TempDir() + "/camp.ckpt"
	if err := checkpoint.Save(path, mid); err != nil {
		t.Fatal(err)
	}
	loaded, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(opts, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.runner.Execs != mid.Execs || resumed.runner.Stmts != mid.Stmts {
		t.Fatalf("restored counters %d/%d != snapshot %d/%d",
			resumed.runner.Execs, resumed.runner.Stmts, mid.Execs, mid.Stmts)
	}
	resumed.Run(20000)

	if ref.runner.Execs != resumed.runner.Execs ||
		ref.runner.Stmts != resumed.runner.Stmts ||
		ref.runner.Branches() != resumed.runner.Branches() ||
		ref.Affinities() != resumed.Affinities() ||
		ref.runner.Oracle.Count() != resumed.runner.Oracle.Count() ||
		ref.pool.Len() != resumed.pool.Len() {
		t.Fatalf("resumed campaign diverged:\nref:     execs=%d stmts=%d branches=%d aff=%d bugs=%d pool=%d\nresumed: execs=%d stmts=%d branches=%d aff=%d bugs=%d pool=%d",
			ref.runner.Execs, ref.runner.Stmts, ref.runner.Branches(), ref.Affinities(), ref.runner.Oracle.Count(), ref.pool.Len(),
			resumed.runner.Execs, resumed.runner.Stmts, resumed.runner.Branches(), resumed.Affinities(), resumed.runner.Oracle.Count(), resumed.pool.Len())
	}

	// The strong form: the complete serialized states must be byte-equal.
	a, b := snapshotJSON(t, ref), snapshotJSON(t, resumed)
	if string(a) != string(b) {
		t.Fatalf("final snapshots differ\nref:     %.400s\nresumed: %.400s", a, b)
	}
}

// TestResumeRejectsMismatchedCampaign: resuming under different options
// would silently produce a diverged schedule; it must fail instead.
func TestResumeRejectsMismatchedCampaign(t *testing.T) {
	f := New(Options{Dialect: sqlt.DialectPostgres, Seed: 2})
	f.Run(2000)
	st := f.Snapshot()

	cases := []Options{
		{Dialect: sqlt.DialectMySQL, Seed: 2},               // wrong dialect
		{Dialect: sqlt.DialectPostgres, Seed: 3},            // wrong seed
		{Dialect: sqlt.DialectPostgres, Seed: 2, MaxLen: 8}, // wrong length cap
	}
	for i, o := range cases {
		if _, err := Resume(o, st); err == nil {
			t.Fatalf("case %d: mismatched resume must fail", i)
		}
	}
}

// TestFaultInjectedCampaignSurvives is the acceptance test for containment:
// a full-budget campaign against an engine that keeps panicking organically
// must complete (no fuzzer death), count its contained panics, and surface
// them as deduplicated PANIC bugs with reproducers.
func TestFaultInjectedCampaignSurvives(t *testing.T) {
	f := New(Options{Dialect: sqlt.DialectMySQL, Seed: 9, Hazards: true, FaultRate: 0.001})
	runner := f.Run(30000) // would panic the test process if containment leaked

	if runner.Stmts < 30000 {
		t.Fatalf("campaign died early: %d statements", runner.Stmts)
	}
	if runner.EnginePanics == 0 {
		t.Fatal("rate-0.001 over 30k statements must inject faults")
	}

	organic := 0
	hits := 0
	for _, c := range runner.Oracle.Crashes() {
		if !strings.HasPrefix(c.Report.ID, "ORGANIC-") {
			continue
		}
		organic++
		hits += c.Hits
		if c.Report.Kind != "PANIC" {
			t.Fatalf("organic bug kind = %q", c.Report.Kind)
		}
		if len(c.Report.Stack) == 0 {
			t.Fatal("organic bug lacks a stack")
		}
		if c.Reproducer.SQL() == "" {
			t.Fatal("organic bug lacks a reproducer")
		}
	}
	// Two injection sites -> at most two unique organic bugs, however many
	// times they fired: that is the dedup working.
	if organic < 1 || organic > 2 {
		t.Fatalf("organic unique bugs = %d (want 1..2): %v", organic, runner.Oracle.IDs())
	}
	if hits != runner.EnginePanics {
		t.Fatalf("organic hits %d != contained panics %d", hits, runner.EnginePanics)
	}
	t.Logf("contained %d panics into %d unique organic bugs", runner.EnginePanics, organic)
}

// TestMaxLenClampPreventsPanic: MaxLen 1 used to panic randomSequences
// (Intn(0)); Options.fill clamps it to the smallest affinity-carrying
// length.
func TestMaxLenClampPreventsPanic(t *testing.T) {
	o := Options{MaxLen: 1}
	o.fill()
	if o.MaxLen != 2 {
		t.Fatalf("MaxLen clamped to %d, want 2", o.MaxLen)
	}
	// End to end: the RandomSequences ablation exercises the Intn that
	// panicked before the clamp.
	f := New(Options{Dialect: sqlt.DialectPostgres, Seed: 1, MaxLen: 1, RandomSequences: true})
	f.Run(3000)
	if f.opts.MaxLen != 2 {
		t.Fatalf("fuzzer MaxLen = %d", f.opts.MaxLen)
	}
}
