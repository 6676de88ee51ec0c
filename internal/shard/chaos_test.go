package shard

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/chaos"
	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/harness"
)

// chaosOptions arms the chaos plane on top of the standard test campaign.
func chaosOptions(workers int, rate float64) Options {
	o := testOptions(workers)
	o.ChaosRate = rate
	o.ChaosSeed = 7
	return o
}

// TestChaosDoubleRunDeterminism is the supervision tentpole's acceptance
// test: two campaigns under the same (ChaosRate, ChaosSeed) see the same
// injected failures, make the same retry/quarantine decisions, and produce
// byte-identical checkpoints — incident journal included.
func TestChaosDoubleRunDeterminism(t *testing.T) {
	const budget = 8000
	a, b := New(chaosOptions(4, 0.08)), New(chaosOptions(4, 0.08))
	if _, err := a.Run(budget, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(budget, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(a.Incidents()) == 0 {
		t.Fatal("chaotic campaign saw no incidents; raise the rate so supervision is exercised")
	}
	sa, sb := snapshotJSON(t, a), snapshotJSON(t, b)
	if string(sa) != string(sb) {
		t.Fatalf("identical chaotic campaigns diverged\nrun A: %.400s\nrun B: %.400s", sa, sb)
	}
}

// TestChaosStopResumeEquivalence: interrupting a chaotic campaign at a
// barrier and resuming it must replay exactly the faults the uninterrupted
// campaign would have seen from there — the payoff of keying every chaos
// decision by its campaign coordinates instead of a sequential stream.
func TestChaosStopResumeEquivalence(t *testing.T) {
	const budget = 8000
	opts := chaosOptions(2, 0.08)

	ref := New(opts)
	if _, err := ref.Run(budget, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(ref.Incidents()) == 0 {
		t.Fatal("reference chaotic campaign saw no incidents; the equivalence below would be vacuous")
	}

	interrupted := New(opts)
	stop := make(chan struct{})
	closed := false
	wasStopped, err := interrupted.Run(budget, RunOptions{
		EveryExecs: 1,
		Save: func(st *checkpoint.State) error {
			if !closed && interrupted.Epoch() >= 2 {
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

	path := filepath.Join(t.TempDir(), "chaotic.ckpt")
	if err := checkpoint.Save(path, interrupted.Snapshot()); err != nil {
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
	if _, err := resumed.Run(budget, RunOptions{}); err != nil {
		t.Fatal(err)
	}

	a, b := snapshotJSON(t, ref), snapshotJSON(t, resumed)
	if string(a) != string(b) {
		t.Fatalf("resumed chaotic campaign diverged from uninterrupted run\nref:     %.400s\nresumed: %.400s", a, b)
	}
}

// TestQuarantineDegradesGracefully: under a rate-1 schedule every attempt
// fails, so every shard burns its retry budget and quarantines — and the
// campaign must still complete normally, reporting the degraded topology
// and a journal whose last word on each shard is QUARANTINED.
func TestQuarantineDegradesGracefully(t *testing.T) {
	o := chaosOptions(3, 1.0)
	o.MaxEpochRetries = 2
	e := New(o)
	interrupted, err := e.Run(6000, RunOptions{})
	if err != nil {
		t.Fatalf("degraded campaign must complete without error, got %v", err)
	}
	if interrupted {
		t.Fatal("nothing requested a stop")
	}
	if e.ActiveWorkers() != 0 || len(e.QuarantinedShards()) != 3 {
		t.Fatalf("want all 3 shards quarantined, got active=%d quarantined=%v",
			e.ActiveWorkers(), e.QuarantinedShards())
	}
	// Each shard: MaxEpochRetries retried incidents, then one quarantine.
	perShard := map[int][]string{}
	for _, in := range e.Incidents() {
		perShard[in.Shard] = append(perShard[in.Shard], in.Outcome)
	}
	for i := 0; i < 3; i++ {
		got := perShard[i]
		want := []string{harness.IncidentRetried, harness.IncidentRetried, harness.IncidentQuarantined}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("shard %d outcomes = %v, want %v", i, got, want)
		}
	}
	// The campaign holds the shards' last-good (initial-barrier) states and
	// its checkpoint still round-trips.
	st := e.Snapshot()
	for i, ss := range st.Shards {
		if !ss.Quarantined || ss.Retries != 2 {
			t.Fatalf("shard %d checkpoint entry: quarantined=%v retries=%d", i, ss.Quarantined, ss.Retries)
		}
	}
	path := filepath.Join(t.TempDir(), "degraded.ckpt")
	if err := checkpoint.Save(path, st); err != nil {
		t.Fatal(err)
	}
	loaded, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Version != checkpoint.Version {
		t.Fatalf("supervised checkpoint stamped v%d, want v%d", loaded.Version, checkpoint.Version)
	}
	resumed, err := Resume(o, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ActiveWorkers() != 0 || len(resumed.Incidents()) != len(e.Incidents()) {
		t.Fatalf("resumed degraded campaign lost supervision state: active=%d incidents=%d",
			resumed.ActiveWorkers(), len(resumed.Incidents()))
	}
	// Resuming a fully quarantined campaign completes immediately.
	if _, err := resumed.Run(6000, RunOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestOrganicPanicRetriedAndJournaled: a real panic escaping a worker — no
// chaos involved — is contained by the supervisor's recover, journaled with
// a normalized stack, and retried from the barrier snapshot; after the
// clean retry the campaign's fuzzing output is identical to a run that
// never panicked.
func TestOrganicPanicRetriedAndJournaled(t *testing.T) {
	const budget = 6000
	clean := New(testOptions(2))
	if _, err := clean.Run(budget, RunOptions{}); err != nil {
		t.Fatal(err)
	}

	faulty := New(testOptions(2))
	fired := false
	faulty.testFault = func(epoch, shard, attempt int) {
		if epoch == 1 && shard == 1 && attempt == 0 {
			fired = true
			panic("synthetic harness bug: wiring test")
		}
	}
	if _, err := faulty.Run(budget, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("test fault never fired; coordinates drifted")
	}
	incidents := faulty.Incidents()
	if len(incidents) != 1 {
		t.Fatalf("want exactly one incident, got %v", incidents)
	}
	in := incidents[0]
	if in.Kind != harness.IncidentOrganicPanic || in.Outcome != harness.IncidentRetried ||
		in.Epoch != 1 || in.Shard != 1 || in.Retries != 1 {
		t.Fatalf("organic incident misrecorded: %+v", in)
	}
	if !strings.Contains(in.Detail, "shard.") {
		t.Fatalf("incident detail should carry the normalized panic stack, got %q", in.Detail)
	}
	if faulty.ActiveWorkers() != 2 {
		t.Fatalf("one contained panic must not degrade the topology: active=%d", faulty.ActiveWorkers())
	}

	// Modulo the supervision bookkeeping, the retried campaign computed
	// exactly what the clean one did: the retry replayed the epoch from the
	// barrier snapshot bit-for-bit.
	got, want := faulty.Snapshot(), clean.Snapshot()
	got.Incidents = nil
	got.MaxEpochRetries = 0
	for _, ss := range got.Shards {
		ss.Retries = 0
	}
	a, b := mustJSON(t, got), mustJSON(t, want)
	if a != b {
		t.Fatalf("retried campaign diverged from clean run\nretried: %.400s\nclean:   %.400s", a, b)
	}
}

// TestUnsupervisedPanicPropagates: with supervision disarmed no barrier
// snapshot exists to re-run a failed epoch from, so a worker must not
// contain a panic — it reaches the caller (in a campaign, it crashes the
// process) with its own value and stack, not a restore error. Armed, the
// same panic becomes an organic-panic failure.
func TestUnsupervisedPanicPropagates(t *testing.T) {
	e := New(testOptions(1))
	e.shards[0] = nil // the worker's first use of its fuzzer panics
	rec := func() (rec any) {
		defer func() { rec = recover() }()
		e.runWorker(0, 500, 500, plan{})
		return nil
	}()
	if err, ok := rec.(runtime.Error); !ok || !strings.Contains(err.Error(), "nil pointer") {
		t.Fatalf("unsupervised worker panic: got %v, want the original nil dereference", rec)
	}

	e.testFault = func(epoch, shard, attempt int) {}
	if fail := e.runWorker(0, 500, 500, plan{}); fail == nil || fail.kind != harness.IncidentOrganicPanic {
		t.Fatalf("supervised worker panic: got %+v, want an organic-panic failure", fail)
	}
}

// TestChaosOffIsByteIdenticalToUnsupervised: with the chaos plane disarmed
// and no failures, the supervision machinery must leave no trace — the
// checkpoint file carries none of the supervision fields, exactly what
// pre-supervision builds wrote.
func TestChaosOffIsByteIdenticalToUnsupervised(t *testing.T) {
	e := New(testOptions(2))
	if _, err := e.Run(4000, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()
	if len(st.Incidents) != 0 || st.ChaosRate != 0 || st.ChaosSeed != 0 || st.MaxEpochRetries != 0 {
		t.Fatalf("unsupervised snapshot carries supervision fields: %+v", st)
	}
	path := filepath.Join(t.TempDir(), "plain.ckpt")
	if err := checkpoint.Save(path, st); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"chaos_rate", "chaos_seed", "max_epoch_retries", "incidents", "quarantined", "retries"} {
		if bytes.Contains(data, []byte(`"`+key+`"`)) {
			t.Fatalf("unsupervised checkpoint carries supervision field %q", key)
		}
	}
}

// TestResumeRejectsMismatchedChaos: the chaos identity is campaign identity;
// resuming a chaotic checkpoint under a different (or absent) schedule must
// fail loudly, like a wrong seed or topology does.
func TestResumeRejectsMismatchedChaos(t *testing.T) {
	opts := chaosOptions(2, 0.08)
	e := New(opts)
	if _, err := e.Run(3000, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	st := e.Snapshot()

	if _, err := Resume(testOptions(2), st); err == nil || !strings.Contains(err.Error(), "chaos rate") {
		t.Fatalf("resume without chaos: got %v, want chaos rate mismatch", err)
	}
	wrongSeed := opts
	wrongSeed.ChaosSeed = 8
	if _, err := Resume(wrongSeed, st); err == nil || !strings.Contains(err.Error(), "chaos seed") {
		t.Fatalf("resume with wrong chaos seed: got %v, want chaos seed mismatch", err)
	}
	wrongBudget := opts
	wrongBudget.MaxEpochRetries = 9
	if _, err := Resume(wrongBudget, st); err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("resume with wrong retry budget: got %v, want retry budget mismatch", err)
	}
}

// TestInjectedSaveFaultsDoNotChangeTheCampaign: routing checkpoint saves
// through a rate-1 chaotic filesystem eats every save, yet the campaign's
// computed state is byte-identical to one that never saved at all — a
// chaotic filesystem changes what lands on disk, never what the campaign
// computes.
func TestInjectedSaveFaultsDoNotChangeTheCampaign(t *testing.T) {
	const budget = 4000
	ref := New(testOptions(2))
	if _, err := ref.Run(budget, RunOptions{}); err != nil {
		t.Fatal(err)
	}

	e := New(testOptions(2))
	cfs := chaos.NewFS(chaos.New(1.0, 9), checkpoint.OS)
	path := filepath.Join(t.TempDir(), "eaten.ckpt")
	if _, err := e.Run(budget, RunOptions{
		EveryExecs: 1,
		Save: func(st *checkpoint.State) error {
			return checkpoint.SaveFS(cfs, path, st)
		},
	}); err != nil {
		t.Fatalf("injected save faults must not abort the campaign: %v", err)
	}
	if e.SaveFaults() == 0 {
		t.Fatal("rate-1 chaotic filesystem ate no saves")
	}
	a, b := snapshotJSON(t, ref), snapshotJSON(t, e)
	if string(a) != string(b) {
		t.Fatalf("save faults changed the campaign\nref:    %.400s\nfaulty: %.400s", a, b)
	}
}

func mustJSON(t *testing.T, st *checkpoint.State) string {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
