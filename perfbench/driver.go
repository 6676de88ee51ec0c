package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/seqfuzz/lego/internal/affinity"
	"github.com/seqfuzz/lego/internal/core"
	"github.com/seqfuzz/lego/internal/corpus"
	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/instantiate"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/mutate"
	"github.com/seqfuzz/lego/internal/seqsynth"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/xrand"
)

// Defaults core.Options.fill applies to a legofuzz run.
const (
	maxLen              = 5
	instPerSeq          = 2
	maxSeqPerAffinity   = 48
	conventionalPerSeed = 8
	// curveEvery is harness.NewRunner's coverage-curve sampling stride.
	curveEvery = 50
)

// tracedFuzzer is the benchmark-side traced campaign. core.Fuzzer's
// internals are unexported, so it rebuilds the same fuzzer from exported
// parts and runs the loop in the order core.Fuzzer.Step, ingest and
// harness.Runner.Execute run it, with a span around every layer call. Its
// fidelity check is that it ends with exactly the untraced campaign's
// digest.
type tracedFuzzer struct {
	rec    *recorder
	runner *harness.Runner
	pool   *corpus.Pool
	lib    *instantiate.Library
	inst   *instantiate.Instantiator
	mut    *mutate.Mutator
	aff    *affinity.Map
	synth  *seqsynth.Synthesizer

	pending []affinity.Pair

	// Counters kept at the same boundaries as the spans.
	execs, novel       int
	mutCalls, mutNovel int
	instCalls          int
	instNovel          int
	synthSeqs          int
	sqlErrors          int
	mutAlloc           allocMeter
	instAlloc          allocMeter
	execAlloc          allocMeter
}

// newTracedFuzzer mirrors core.New: the same constructors in the same order
// on one shared RNG stream, then the initial seed corpus ingested.
func newTracedFuzzer(opts core.Options, rec *recorder) *tracedFuzzer {
	rng := rand.New(xrand.New(opts.Seed))
	lib := instantiate.NewLibrary()
	inst := instantiate.New(rng, lib, opts.Dialect)
	aff := affinity.NewMap()
	f := &tracedFuzzer{
		rec: rec,
		runner: harness.NewRunnerWithConfig(minidb.Config{
			Dialect:          opts.Dialect,
			EnableHazards:    opts.Hazards,
			FaultRate:        opts.FaultRate,
			FaultSeed:        opts.Seed,
			DisablePlanCache: opts.DisablePlanCache,
		}),
		pool:  corpus.NewPool(rng),
		lib:   lib,
		inst:  inst,
		mut:   mutate.New(rng, inst, opts.Dialect),
		aff:   aff,
		synth: seqsynth.New(aff, maxLen),
	}
	f.synth.MaxPerAffinity = maxSeqPerAffinity
	f.mutAlloc.rec, f.instAlloc.rec, f.execAlloc.rec = rec, rec, rec
	for _, tc := range harness.InitialSeeds(opts.Dialect) {
		_, newEdges := f.execute(tc)
		f.ingest(tc, newEdges)
	}
	return f
}

// execute mirrors harness.Runner.Execute. An organic engine panic cannot
// be contained here (the runner's quarantine is unexported), so it ends the
// traced run as a failure.
func (f *tracedFuzzer) execute(tc sqlast.TestCase) (novel bool, newEdges int) {
	r, rec := f.runner, f.rec
	t := rec.now()
	tr := r.Eng.Tracer()
	tr.Reset()
	rec.add(kReset, t)

	f.execAlloc.before()
	t = rec.now()
	out := r.Eng.RunTestCase(tc)
	rec.add(kExec, t)
	f.execAlloc.after(out.Executed)

	t = rec.now()
	novel, newEdges = r.Cov.Accumulate(tr)
	rec.add(kAccumulate, t)

	t = rec.now()
	r.GenAff.Analyze(tc.Types())
	rec.add(kAnalyze, t)

	r.Execs++
	r.Stmts += out.Executed
	f.execs++
	f.sqlErrors += out.Errors
	if novel {
		f.novel++
	}
	if out.Crash != nil {
		t = rec.now()
		r.Oracle.Record(out.Crash, tc, r.Execs)
		rec.add(kRecord, t)
	}
	if r.Execs%curveEvery == 0 || r.Execs == 1 {
		r.Curve = append(r.Curve, harness.CurvePoint{Execs: r.Execs, Edges: r.Cov.EdgeCount()})
	}
	return novel, newEdges
}

// ingest mirrors core.Fuzzer.ingest with SplitLongSeeds off.
func (f *tracedFuzzer) ingest(tc sqlast.TestCase, newEdges int) {
	rec := f.rec
	t := rec.now()
	f.pool.Add(tc, newEdges)
	rec.add(kPoolAdd, t)
	f.lib.Harvest(tc)
	if len(tc) > 0 {
		f.synth.AddStart(tc[0].Type())
	}
	t = rec.now()
	fresh := f.aff.Analyze(tc.Types())
	rec.add(kAnalyze, t)
	f.pending = append(f.pending, fresh...)
}

func (f *tracedFuzzer) tryExec(tc sqlast.TestCase) bool {
	if len(tc) == 0 {
		return false
	}
	novel, newEdges := f.execute(tc)
	if novel {
		f.ingest(tc, newEdges)
	}
	return novel
}

// mutant times one mutation operator and executes its output.
func (f *tracedFuzzer) mutant(op func() sqlast.TestCase) {
	f.mutAlloc.before()
	t := f.rec.now()
	tc := op()
	f.rec.add(kMutate, t)
	f.mutAlloc.after(1)
	f.mutCalls++
	if f.tryExec(tc) {
		f.mutNovel++
	}
}

// step mirrors core.Fuzzer.Step with the sequence algorithms on.
func (f *tracedFuzzer) step(exhausted func() bool) {
	rec := f.rec
	t := rec.now()
	seed := f.pool.Select()
	rec.add(kSelect, t)
	if seed == nil {
		return
	}

	for i := range seed.TC {
		if exhausted() {
			return
		}
		f.mutant(func() sqlast.TestCase { return f.mut.SubstituteType(seed.TC, i) })
		f.mutant(func() sqlast.TestCase { return f.mut.InsertAfter(seed.TC, i) })
		f.mutant(func() sqlast.TestCase { return f.mut.DeleteAt(seed.TC, i) })
	}

	pending := f.pending
	f.pending = nil
	for _, pair := range pending {
		if exhausted() {
			return
		}
		t = rec.now()
		seqs := f.synth.OnNewAffinity(pair.From, pair.To)
		rec.add(kSynth, t)
		f.synthSeqs += len(seqs)
		for _, seq := range seqs {
			for k := 0; k < instPerSeq; k++ {
				if exhausted() {
					return
				}
				f.instAlloc.before()
				t = rec.now()
				tc := f.inst.TestCase(seq)
				rec.add(kInst, t)
				f.instAlloc.after(1)
				f.instCalls++
				if f.tryExec(tc) {
					f.instNovel++
				}
			}
		}
	}

	for k := 0; k < conventionalPerSeed; k++ {
		if exhausted() {
			return
		}
		f.mutant(func() sqlast.TestCase { return f.mut.MutateValues(seed.TC) })
	}
}

// run mirrors core.Fuzzer.RunWithOptions without saves or stops.
func (f *tracedFuzzer) run(budget int) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("traced campaign: organic engine panic at exec %d: %v", f.runner.Execs+1, rec)
		}
	}()
	r := f.runner
	exhausted := func() bool { return r.Stmts >= budget }
	for !exhausted() {
		i := f.rec.begin(kStep)
		f.step(exhausted)
		f.rec.end(i)
	}
	return nil
}

// layers computes the per-layer metrics of a finished traced campaign.
// campaignStmts is the statement count of the loop (set-up excluded).
func (f *tracedFuzzer) layers(out map[string]float64, s summary, campaignStmts int) {
	r := f.runner
	out["core.step_ns_p50"] = percentile(s.durs[kStep], 0.50)
	out["core.step_ns_p99"] = percentile(s.durs[kStep], 0.99)
	out["core.self_ns_per_stmt"] = ratioF(float64(s.selfTotal), campaignStmts)

	out["corpus.select_ns"] = s.mean(kSelect)
	out["corpus.pool_size"] = float64(f.pool.Len())

	out["mutate.ns_per_call"] = s.mean(kMutate)
	out["mutate.allocs_per_call"] = f.mutAlloc.perSample()
	out["mutate.novel_ratio"] = ratio(f.mutNovel, f.mutCalls)

	out["instantiate.ns_per_testcase"] = s.mean(kInst)
	out["instantiate.allocs_per_testcase"] = f.instAlloc.perSample()
	out["instantiate.novel_ratio"] = ratio(f.instNovel, f.instCalls)

	out["seqsynth.ns_per_affinity"] = s.mean(kSynth)
	out["seqsynth.seqs_per_affinity"] = ratio(f.synthSeqs, s.count[kSynth])

	out["affinity.analyze_ns"] = s.mean(kAnalyze)
	out["affinity.pairs"] = float64(f.aff.Count())

	out["minidb.exec_ns_per_stmt"] = ratioF(float64(s.total[kExec]), r.Stmts)
	out["minidb.allocs_per_stmt"], out["minidb.bytes_per_stmt"] = f.execAlloc.perUnit()
	out["minidb.sql_ok_ratio"] = 1 - ratio(f.sqlErrors, r.Stmts)
	ps := r.PlanStats()
	out["minidb.plan_hit_rate"] = ratioF(float64(ps.Hits), int(ps.Hits+ps.Misses))

	out["coverage.accumulate_ns"] = s.mean(kAccumulate)
	out["coverage.novel_ratio"] = ratio(f.novel, f.execs)

	out["oracle.record_ns"] = s.mean(kRecord)
	out["oracle.crashes"] = float64(r.Oracle.Count())
}

func ratioF(num float64, den int) float64 {
	if den == 0 {
		return 0
	}
	return num / float64(den)
}

// nsToMS converts nanoseconds to milliseconds.
func nsToMS(ns float64) float64 { return ns / float64(time.Millisecond) }
