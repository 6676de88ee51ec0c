package shard

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"github.com/seqfuzz/lego/internal/chaos"
	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/core"
	"github.com/seqfuzz/lego/internal/harness"
)

// This file is the executor's supervision plane: workers run under recover,
// and a worker that fails mid-epoch — an injected chaos fault, or a real
// panic escaping the harness — never takes the campaign down. The epoch is
// the unit of recovery: every merge barrier snapshots every shard (plain
// checkpoint states, the same machinery that serializes campaigns to disk),
// so a failed shard discards its partial epoch, restores the snapshot, and
// re-runs the epoch deterministically. Re-runs draw against a cumulative
// per-shard retry budget; exhausting it quarantines the shard — it keeps its
// last-good state, already merged at a prior barrier, and the campaign
// degrades to fewer workers instead of dying.
//
// Determinism survives supervision because every moving part is keyed, not
// raced: chaos decisions are pure functions of (epoch, shard, attempt),
// failures are collected in per-shard slots behind the WaitGroup barrier and
// processed in shard-index order, and restores rebuild a shard from a
// barrier snapshot bit-for-bit. Same options, same failures, same retries,
// same incident journal.

// plan is the chaos schedule for one (epoch, shard, attempt): whether and
// where the worker panics or stalls. It is computed on the coordinator
// before the worker goroutine spawns, so workers never share the injector.
type plan struct {
	attempt   int
	panicFire bool
	panicFrac float64
	stallFire bool
	stallFrac float64
}

// supervised reports whether anything can make a worker fail mid-epoch:
// the chaos plane is armed, or a test installed a fault hook. Only then
// are barrier snapshots needed for restore.
func (e *Executor) supervised() bool {
	return e.chaos != nil || e.testFault != nil
}

func (e *Executor) plan(epoch, shard, attempt int) plan {
	p := plan{attempt: attempt}
	if e.chaos == nil {
		return p
	}
	p.panicFire, p.panicFrac = e.chaos.WorkerPanic(epoch, shard, attempt)
	p.stallFire, p.stallFrac = e.chaos.EpochStall(epoch, shard, attempt)
	return p
}

// workerFailure is what a worker goroutine reports back instead of crashing
// the process: the incident kind and its deterministic detail.
type workerFailure struct {
	kind   string
	detail string
}

// runEpoch drives every unfinished shard to the next epoch boundary under
// supervision, retrying failed shards from their barrier snapshots until
// each one has either finished the epoch or been quarantined. This is the
// only place the executor spawns goroutines; the WaitGroup barrier in each
// round is the campaign's entire synchronization surface.
func (e *Executor) runEpoch(targets []int) {
	// Barrier snapshots exist to re-run failed epochs, and epochs can only
	// fail under supervision (the chaos plane or the test fault hook). Take
	// them lazily here — the shards are exactly in their post-barrier states
	// — so an unsupervised campaign skips the Snapshot cost entirely.
	if e.supervised() && e.snapEpoch != e.epoch {
		e.refreshSnaps()
		e.snapEpoch = e.epoch
	}
	end := (e.epoch + 1) * e.opts.EpochStmts
	attempts := make([]int, len(e.shards))
	for {
		// Collect this round's runnable shards: not quarantined, epoch
		// budget unfinished. A shard that failed last round was restored to
		// its barrier snapshot, so its statement count is back below the
		// boundary and it re-enters here with a bumped attempt.
		type job struct {
			shard, budget, target int
			p                     plan
		}
		var jobs []job
		for i, sh := range e.shards {
			if e.quarantined[i] {
				continue
			}
			budget := targets[i]
			if end < budget {
				budget = end
			}
			if sh.Runner().Stmts >= budget {
				continue
			}
			jobs = append(jobs, job{i, budget, targets[i], e.plan(e.epoch, i, attempts[i])})
		}
		if len(jobs) == 0 {
			return
		}

		// failures[i] is written only by shard i's goroutine and read only
		// after the barrier: per-slot ownership plus the WaitGroup is the
		// whole synchronization story.
		failures := make([]*workerFailure, len(e.shards))
		var wg sync.WaitGroup
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				failures[j.shard] = e.runWorker(j.shard, j.budget, j.target, j.p)
			}(j)
		}
		wg.Wait()

		// Resolve failures in shard-index order on the coordinator, so the
		// incident journal and the retry bookkeeping are schedule-independent.
		for i := range e.shards {
			f := failures[i]
			if f == nil {
				continue
			}
			e.restore(i)
			in := checkpoint.Incident{Epoch: e.epoch, Shard: i, Kind: f.kind, Detail: f.detail}
			if e.retries[i] < e.opts.MaxEpochRetries {
				e.retries[i]++
				attempts[i]++
				in.Retries = e.retries[i]
				in.Outcome = harness.IncidentRetried
			} else {
				e.quarantined[i] = true
				in.Retries = e.retries[i]
				in.Outcome = harness.IncidentQuarantined
			}
			e.incidents = append(e.incidents, in)
		}
	}
}

// runWorker runs shard i to its epoch budget on the worker goroutine
// (target is its campaign budget), executing the chaos plan and, under
// supervision, containing every panic — injected or organic — as a
// structured failure instead of a dead process. Unsupervised, nothing could
// restore a failed epoch, so a panic is left to crash the process with its
// own value and stack.
//
// Injected failures are deterministic prefixes: a scheduled panic runs the
// worker to panicFrac of its remaining epoch budget and then panics with
// the fault's coordinates; a scheduled stall likewise parks the worker at
// stallFrac, modeling a worker that stops making progress, and reports the
// stall the supervisor's step watchdog would raise at the barrier. Both
// leave the shard mid-epoch — exactly the partial state a restore discards.
func (e *Executor) runWorker(i, budget, target int, p plan) (fail *workerFailure) {
	sh := e.shards[i]
	defer func() {
		if !e.supervised() {
			return
		}
		rec := recover()
		if rec == nil {
			return
		}
		if ip, ok := rec.(chaos.InjectedPanic); ok {
			fail = &workerFailure{kind: harness.IncidentWorkerPanic, detail: ip.Error()}
			return
		}
		// An organic panic: a real bug in the harness or fuzzer, not the
		// engine (the runner contains those). Normalize its stack so the
		// incident is a deterministic, deduplicable record.
		buf := make([]byte, 64<<10)
		buf = buf[:runtime.Stack(buf, false)]
		detail := strings.Join(harness.NormalizeStack(buf), " < ")
		if detail == "" {
			detail = fmt.Sprintf("panic: %v", rec)
		}
		fail = &workerFailure{kind: harness.IncidentOrganicPanic, detail: detail}
	}()

	if e.testFault != nil {
		e.testFault(e.epoch, i, p.attempt)
	}

	start := sh.Runner().Stmts
	span := budget - start
	switch {
	case p.panicFire:
		at := start + int(p.panicFrac*float64(span))
		sh.Run(at)
		panic(chaos.InjectedPanic{Epoch: e.epoch, Shard: i, Attempt: p.attempt})
	case p.stallFire:
		at := start + int(p.stallFrac*float64(span))
		sh.Run(at)
		return &workerFailure{
			kind: harness.IncidentEpochStall,
			detail: fmt.Sprintf("chaos: injected epoch stall (epoch %d, shard %d, attempt %d)",
				e.epoch, i, p.attempt),
		}
	case len(e.shards) == 1 && !e.supervised():
		// A lone worker has no peer whose discoveries it must wait for, so
		// its epoch runs on to the next iteration boundary: barriers then
		// land only on states the continuous loop passes through, and the
		// campaign is core.Run(target) whatever EpochStmts, stop or
		// checkpoint cadence cut its epochs. Under supervision epochs keep
		// their exact budgets: they are the unit the chaos plane keys its
		// faults on and a failed worker re-runs.
		sh.RunLeg(budget, target)
	default:
		// Checkpointing and shutdown are barrier-level concerns: a worker
		// only runs the fuzzing loop to its epoch budget.
		sh.Run(budget)
	}
	return nil
}

// restore discards shard i's partial epoch and rebuilds it from its state
// at the last merge barrier. The snapshot came from this executor's own
// Snapshot machinery under the same options, so a restore failure is a
// programming error, not an operational condition.
func (e *Executor) restore(i int) {
	if e.snaps == nil || e.snaps[i] == nil {
		panic(fmt.Sprintf("shard: restore shard %d: no barrier snapshot (supervision not armed at epoch start?)", i))
	}
	f, err := core.Resume(e.coreOpts(i), e.snaps[i])
	if err != nil {
		panic(fmt.Sprintf("shard: restore shard %d from barrier snapshot: %v", i, err))
	}
	e.shards[i] = f
	e.poolMark[i] = f.Pool().Len()
}

// refreshSnaps re-snapshots every active shard. Quarantined shards keep
// their last-good snapshot: their live state was restored from it and has
// not moved since.
func (e *Executor) refreshSnaps() {
	if e.snaps == nil {
		e.snaps = make([]*checkpoint.State, len(e.shards))
	}
	for i, sh := range e.shards {
		if !e.quarantined[i] || e.snaps[i] == nil {
			e.snaps[i] = sh.Snapshot()
		}
	}
}
