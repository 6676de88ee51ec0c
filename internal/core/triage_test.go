package core

import (
	"testing"

	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/sqlt"
	"github.com/seqfuzz/lego/internal/triage"
)

// TestTriageStateRoundTrips: triage results written into the oracle must
// survive a checkpoint round trip — the bug table of a resumed campaign
// still shows verified, minimized reproducers (format v2).
func TestTriageStateRoundTrips(t *testing.T) {
	opts := Options{Dialect: sqlt.DialectMariaDB, Seed: 3, Hazards: true}
	f := New(opts)
	f.Run(25000)
	if f.runner.Oracle.Count() == 0 {
		t.Fatal("campaign found no bugs")
	}
	sum := f.Triage(triage.Config{Replays: 3})
	if sum.Stable != sum.Triaged {
		t.Fatalf("hazard-only campaign must verify STABLE across the board: %+v", sum)
	}

	path := t.TempDir() + "/triaged.ckpt"
	if err := checkpoint.Save(path, f.Snapshot()); err != nil {
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

	want := f.runner.Oracle.Crashes()
	got := resumed.runner.Oracle.Crashes()
	if len(got) != len(want) {
		t.Fatalf("crash count changed: %d -> %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Status != w.Status || g.OriginalLen != w.OriginalLen ||
			g.MinimizedLen != w.MinimizedLen || g.Replays != w.Replays {
			t.Fatalf("crash %d triage fields lost: want %s %d->%d %d, got %s %d->%d %d",
				i, w.Status, w.OriginalLen, w.MinimizedLen, w.Replays,
				g.Status, g.OriginalLen, g.MinimizedLen, g.Replays)
		}
		if g.Reproducer.SQL() != w.Reproducer.SQL() {
			t.Fatalf("crash %d minimized reproducer changed across resume", i)
		}
	}
}
