package lego_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/seqfuzz/lego"
)

// TestFacadeDoubleRunDeterminism is the facade-level statement of the
// repo's load-bearing invariant: two campaigns built from identical Configs
// produce byte-identical reports and byte-identical checkpoint files. The
// resume-equivalence tests in resilience_test.go check that one campaign
// can be split and replayed; this one checks that two independent campaigns
// cannot diverge at all — the property legolint's analyzers (detrange,
// globalrand, walltime) enforce statically.
func TestFacadeDoubleRunDeterminism(t *testing.T) {
	cfg := lego.Config{
		Target:    lego.MariaDB,
		Seed:      33,
		FaultRate: 0.001, // exercise organic-panic containment paths too
		Triage:    true,  // and the triage/minimization bookkeeping
	}

	run := func() (lego.Report, []byte) {
		path := filepath.Join(t.TempDir(), "camp.ckpt")
		f := lego.NewFuzzer(cfg)
		rep, err := f.FuzzWithOptions(15000, lego.FuzzOptions{
			CheckpointPath:  path,
			CheckpointEvery: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return rep, data
	}

	repA, ckptA := run()
	repB, ckptB := run()

	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("reports diverged:\nA: %+v\nB: %+v", repA, repB)
	}
	// Byte-exact claim: the rendered reports must match down to formatting.
	if sa, sb := fmt.Sprintf("%#v", repA), fmt.Sprintf("%#v", repB); sa != sb {
		t.Fatalf("rendered reports diverged:\nA: %s\nB: %s", sa, sb)
	}
	if !bytes.Equal(ckptA, ckptB) {
		t.Fatalf("checkpoint files diverged: %d vs %d bytes", len(ckptA), len(ckptB))
	}

	// The campaign must have actually done something worth comparing.
	if repA.Statements < 15000 || len(repA.Bugs) == 0 {
		t.Fatalf("campaign too shallow to witness determinism: %+v", repA)
	}
}

// TestFacadeShardedDoubleRunDeterminism extends the invariant to parallel
// campaigns: two sharded sessions with identical Configs — including the
// shard topology — produce byte-identical reports and checkpoint files, no
// matter how the per-epoch goroutines were scheduled. This is the facade-
// level acceptance test for the epoch-barrier executor.
func TestFacadeShardedDoubleRunDeterminism(t *testing.T) {
	cfg := lego.Config{
		Target:     lego.MariaDB,
		Seed:       33,
		FaultRate:  0.001,
		Triage:     true,
		Workers:    4,
		EpochStmts: 500,
	}

	run := func() (lego.Report, []byte) {
		path := filepath.Join(t.TempDir(), "camp.ckpt")
		f := lego.NewFuzzer(cfg)
		rep, err := f.FuzzWithOptions(12000, lego.FuzzOptions{
			CheckpointPath:  path,
			CheckpointEvery: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return rep, data
	}

	repA, ckptA := run()
	repB, ckptB := run()

	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("sharded reports diverged:\nA: %+v\nB: %+v", repA, repB)
	}
	if sa, sb := fmt.Sprintf("%#v", repA), fmt.Sprintf("%#v", repB); sa != sb {
		t.Fatalf("rendered sharded reports diverged:\nA: %s\nB: %s", sa, sb)
	}
	if !bytes.Equal(ckptA, ckptB) {
		t.Fatalf("sharded checkpoint files diverged: %d vs %d bytes", len(ckptA), len(ckptB))
	}
	if repA.Statements < 12000 || len(repA.Bugs) == 0 {
		t.Fatalf("campaign too shallow to witness determinism: %+v", repA)
	}
}

// TestFacadeWorkersOneIsSingleThreaded: Workers 0 ≡ Workers 1 — a Config
// that never mentions Workers runs the same one-worker campaign, so its
// report and checkpoint bytes are identical to an explicit Workers: 1.
func TestFacadeWorkersOneIsSingleThreaded(t *testing.T) {
	run := func(workers int) (lego.Report, []byte) {
		path := filepath.Join(t.TempDir(), "camp.ckpt")
		f := lego.NewFuzzer(lego.Config{Target: lego.PostgreSQL, Seed: 9, Workers: workers})
		rep, err := f.FuzzWithOptions(6000, lego.FuzzOptions{CheckpointPath: path, CheckpointEvery: 500})
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return rep, data
	}
	repDefault, ckptDefault := run(0)
	repOne, ckptOne := run(1)
	if !reflect.DeepEqual(repDefault, repOne) {
		t.Fatalf("Workers:1 changed the report:\ndefault: %+v\nworkers=1: %+v", repDefault, repOne)
	}
	if !bytes.Equal(ckptDefault, ckptOne) {
		t.Fatal("Workers:1 changed the checkpoint bytes")
	}
}

// TestFacadePlanCacheTransparent is the plan cache's acceptance test: a
// campaign run with the compiled plan cache (the default) is byte-identical
// — report and checkpoint file — to the same campaign run on the pure
// interpreter (DisablePlanCache). The cache is a throughput optimization
// with zero observable footprint: same results, same errors, same coverage
// sites in the same order, same RNG consumption.
func TestFacadePlanCacheTransparent(t *testing.T) {
	run := func(disable bool) (lego.Report, []byte) {
		path := filepath.Join(t.TempDir(), "camp.ckpt")
		f := lego.NewFuzzer(lego.Config{
			Target:           lego.MariaDB,
			Seed:             33,
			FaultRate:        0.001,
			Triage:           true,
			DisablePlanCache: disable,
		})
		rep, err := f.FuzzWithOptions(15000, lego.FuzzOptions{
			CheckpointPath:  path,
			CheckpointEvery: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return rep, data
	}

	repOn, ckptOn := run(false)
	repOff, ckptOff := run(true)

	if !reflect.DeepEqual(repOn, repOff) {
		t.Fatalf("plan cache changed the report:\ncache-on:  %+v\ncache-off: %+v", repOn, repOff)
	}
	if sa, sb := fmt.Sprintf("%#v", repOn), fmt.Sprintf("%#v", repOff); sa != sb {
		t.Fatalf("plan cache changed the rendered report:\ncache-on:  %s\ncache-off: %s", sa, sb)
	}
	if !bytes.Equal(ckptOn, ckptOff) {
		t.Fatalf("plan cache changed the checkpoint bytes: %d vs %d", len(ckptOn), len(ckptOff))
	}
	if repOn.Statements < 15000 || len(repOn.Bugs) == 0 {
		t.Fatalf("campaign too shallow to witness equivalence: %+v", repOn)
	}
}

// TestFacadeDoubleRunDeterminismNoSeqAlgorithms covers the ablation
// configuration, whose schedule flows through different code paths
// (mutation only, no affinity/synthesis) and must be just as reproducible.
func TestFacadeDoubleRunDeterminismNoSeqAlgorithms(t *testing.T) {
	cfg := lego.Config{
		Target:                    lego.Comdb2,
		Seed:                      5,
		DisableSequenceAlgorithms: true,
	}
	run := func() lego.Report {
		return lego.NewFuzzer(cfg).Fuzz(8000)
	}
	repA, repB := run(), run()
	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("ablation reports diverged:\nA: %+v\nB: %+v", repA, repB)
	}
}
