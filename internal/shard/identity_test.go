package shard

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/core"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// TestOneWorkerIsCoreRun pins the identity of a one-worker campaign: its
// shard state is byte-equal to a single uninterrupted core.Run over the
// whole budget, with fault injection armed so the keyed engine-fault
// schedule is part of what must agree. A lone worker's epochs end at
// iteration boundaries and the barrier merge of a single shard changes
// nothing, so neither EpochStmts nor a stop at a barrier followed by a
// resume from the flushed checkpoint file may move the schedule.
func TestOneWorkerIsCoreRun(t *testing.T) {
	const budget = 20000
	for _, d := range []sqlt.Dialect{sqlt.DialectMariaDB, sqlt.DialectPostgres} {
		opts := Options{
			Core:       core.Options{Dialect: d, Seed: 5, Hazards: true, FaultRate: 0.002},
			Workers:    1,
			EpochStmts: 700,
		}
		ref := core.New(opts.Core)
		ref.Run(budget)
		if ref.Runner().EnginePanics == 0 {
			t.Fatalf("%s: no engine fault fired; the keyed schedule is untested", d)
		}
		want := stateJSON(t, ref.Snapshot())

		for _, epoch := range []int{700, DefaultEpochStmts} {
			t.Run(fmt.Sprintf("%s/straight-epoch%d", d, epoch), func(t *testing.T) {
				o := opts
				o.EpochStmts = epoch
				e := New(o)
				if _, err := e.Run(budget, RunOptions{}); err != nil {
					t.Fatal(err)
				}
				if got := stateJSON(t, e.Snapshot().Shards[0]); got != want {
					t.Fatalf("one-worker executor diverged from core.Run\ncore:     %.300s\nexecutor: %.300s", want, got)
				}
			})
		}

		t.Run(d.String()+"/stop-resume", func(t *testing.T) {
			e := New(opts)
			stop := make(chan struct{})
			saves := 0
			path := t.TempDir() + "/one.ckpt"
			stopped, err := e.Run(budget, RunOptions{
				EveryExecs: 1,
				Save: func(st *checkpoint.State) error {
					// Stop at the second barrier that made progress: a
					// lone worker's first iteration can span many epochs.
					if saves++; saves == 2 {
						close(stop)
					}
					return checkpoint.Save(path, st)
				},
				Stop: stop,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !stopped {
				t.Fatal("campaign finished before the stop landed")
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
			if got := stateJSON(t, resumed.Snapshot().Shards[0]); got != want {
				t.Fatalf("stopped and resumed one-worker campaign diverged from core.Run\ncore:    %.300s\nresumed: %.300s", want, got)
			}
		})
	}
}

// TestResumeRejectsFlatCheckpoint: a flat worker state (no workers field,
// no nested shards) is not a campaign checkpoint; resuming it must fail
// with an error that names the worker topology.
func TestResumeRejectsFlatCheckpoint(t *testing.T) {
	opts := testOptions(1)
	f := core.New(opts.Core)
	f.Run(2000)
	if _, err := Resume(opts, f.Snapshot()); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("resume of a flat state: got %v, want a workers error", err)
	}
}

func stateJSON(t *testing.T, st *checkpoint.State) string {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
