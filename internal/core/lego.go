// Package core implements LEGO, the sequence-oriented DBMS fuzzer of the
// paper. Each fuzzing iteration runs two steps (Figure 4):
//
//  1. Proactive affinity analysis — a seed is taken from the pool and each
//     of its statements is mutated by substitution, insertion and deletion
//     (Algorithm 1). Mutants that hit new branches are kept and their SQL
//     Type Sequences analyzed for new type-affinities (Algorithm 2).
//  2. Progressive sequence synthesis — every affinity discovered in step 1
//     triggers enumeration of exactly the new SQL Type Sequences containing
//     it (Algorithm 3), each of which is instantiated into executable test
//     cases several times and executed.
//
// Conventional syntax-preserving mutations run on top, as in the paper's
// AFL++ custom-mutator integration (§IV). Setting
// Options.DisableSequenceAlgorithms yields LEGO-, the ablation of §V-D —
// affinity analysis and sequence synthesis are "tightly-coupled", so the
// flag disables them together.
package core

import (
	"math/rand"

	"github.com/seqfuzz/lego/internal/affinity"
	"github.com/seqfuzz/lego/internal/corpus"
	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/instantiate"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/mutate"
	"github.com/seqfuzz/lego/internal/seqsynth"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
	"github.com/seqfuzz/lego/internal/xrand"
)

// Options configures a LEGO fuzzer.
type Options struct {
	// Dialect selects the target DBMS profile.
	Dialect sqlt.Dialect
	// Seed seeds the deterministic RNG.
	Seed int64
	// MaxLen is the sequence-length cap LEN of Algorithm 3 (default 5; the
	// paper's §VI length study sweeps 3/5/8).
	MaxLen int
	// InstPerSeq is how many times each synthesized sequence is
	// instantiated (default 2; "one SQL Type Sequence will be instantiated
	// multiple times").
	InstPerSeq int
	// MaxSeqPerAffinity caps synthesis output per discovered affinity.
	MaxSeqPerAffinity int
	// ConventionalPerSeed is how many sequence-preserving mutants each
	// iteration generates (default 8).
	ConventionalPerSeed int
	// DisableSequenceAlgorithms turns LEGO into LEGO- (§V-D).
	DisableSequenceAlgorithms bool
	// Hazards arms the seeded bug corpus on the target engine.
	Hazards bool
	// FaultRate arms deterministic engine faults (keyed by Seed and the
	// execution ordinal): organic (non-BugReport) panics are raised at this
	// per-statement probability and must be contained by the harness
	// instead of killing the campaign. Zero disables injection.
	FaultRate float64
	// DisablePlanCache turns off the engine's compiled-plan execution
	// layer, running every expression through the tree-walking interpreter.
	// Campaigns are byte-identical either way (the compiled path is
	// coverage-equivalent by contract); this exists for baseline
	// comparison.
	DisablePlanCache bool

	// RandomSequences is an ablation: instead of affinity-gated synthesis
	// (Algorithm 3), step 2 instantiates uniformly random type sequences of
	// length <= MaxLen — the "arbitrarily permuting" strawman of challenge
	// C1/C2.
	RandomSequences bool
	// NoCoverageGate is an ablation: affinities are extracted from every
	// mutant, not only those that hit new branches — removing Algorithm 1's
	// meaningfulness filter.
	NoCoverageGate bool

	// SplitLongSeeds enables the paper's §VI future-work idea: "to detect
	// bugs triggered by long sequences, we plan to split long sequences
	// into several equivalent short sequences." Retained seeds longer than
	// 2×MaxLen are additionally split into overlapping halves, which enter
	// the pool as independent (fast) seeds.
	SplitLongSeeds bool
}

func (o *Options) fill() {
	if o.MaxLen == 0 {
		o.MaxLen = 5
	}
	// Sequences shorter than 2 carry no affinity, and randomSequences draws
	// from [2, MaxLen]; clamp instead of letting MaxLen=1 panic downstream.
	if o.MaxLen < 2 {
		o.MaxLen = 2
	}
	if o.InstPerSeq == 0 {
		o.InstPerSeq = 2
	}
	if o.MaxSeqPerAffinity == 0 {
		o.MaxSeqPerAffinity = 48
	}
	if o.ConventionalPerSeed == 0 {
		o.ConventionalPerSeed = 8
	}
}

// Fuzzer is the LEGO fuzzing engine.
type Fuzzer struct {
	opts   Options
	src    *xrand.Source // exportable RNG state behind rng
	rng    *rand.Rand
	runner *harness.Runner
	pool   *corpus.Pool
	lib    *instantiate.Library
	inst   *instantiate.Instantiator
	mut    *mutate.Mutator

	// sequence-oriented state
	aff   *affinity.Map
	synth *seqsynth.Synthesizer

	// pairs discovered in the current iteration, awaiting synthesis
	pending []affinity.Pair
}

// newFuzzer wires up an empty fuzzer; the caller either ingests the initial
// seed corpus (New) or restores a checkpoint (Resume).
func newFuzzer(opts Options) *Fuzzer {
	opts.fill()
	src := xrand.New(opts.Seed)
	rng := rand.New(src)
	lib := instantiate.NewLibrary()
	inst := instantiate.New(rng, lib, opts.Dialect)
	aff := affinity.NewMap()
	f := &Fuzzer{
		opts: opts,
		src:  src,
		rng:  rng,
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
		synth: seqsynth.New(aff, opts.MaxLen),
	}
	f.synth.MaxPerAffinity = opts.MaxSeqPerAffinity
	return f
}

// New builds a LEGO fuzzer and ingests the initial seed corpus.
func New(opts Options) *Fuzzer {
	f := newFuzzer(opts)
	for _, tc := range harness.InitialSeeds(f.opts.Dialect) {
		_, newEdges, _ := f.runner.Execute(tc)
		f.ingest(tc, newEdges)
	}
	return f
}

// Name implements harness.Fuzzer.
func (f *Fuzzer) Name() string {
	if f.opts.DisableSequenceAlgorithms {
		return "LEGO-"
	}
	return "LEGO"
}

// Runner implements harness.Fuzzer.
func (f *Fuzzer) Runner() *harness.Runner { return f.runner }

// Affinities returns the number of type-affinities discovered so far.
func (f *Fuzzer) Affinities() int { return f.aff.Count() }

// AffinityMap exposes the analyzer's map (read-only use).
func (f *Fuzzer) AffinityMap() *affinity.Map { return f.aff }

// Pool exposes the seed pool.
func (f *Fuzzer) Pool() *corpus.Pool { return f.pool }

// Library exposes the AST structure library.
func (f *Fuzzer) Library() *instantiate.Library { return f.lib }

// ingest retains a test case that contributed coverage: it joins the seed
// pool, its AST structures enter the library, its first statement's type
// becomes a synthesis start, and its type sequence is analyzed for new
// affinities (Algorithm 2), which are queued for synthesis.
func (f *Fuzzer) ingest(tc sqlast.TestCase, newEdges int) {
	f.pool.Add(tc, newEdges)
	f.lib.Harvest(tc)
	if f.opts.SplitLongSeeds && len(tc) > 2*f.opts.MaxLen {
		for _, half := range f.splitSeed(tc) {
			// A degenerate MaxLen/2 overlap can produce an empty half; an
			// empty seed would be selected, mutated into nothing, and skipped
			// by tryExec forever — dead weight in the schedule.
			if len(half) == 0 {
				continue
			}
			f.pool.Add(half, newEdges/2)
		}
	}
	if !f.opts.DisableSequenceAlgorithms {
		if len(tc) > 0 {
			f.synth.AddStart(tc[0].Type())
		}
		fresh := f.aff.Analyze(tc.Types())
		f.pending = append(f.pending, fresh...)
	}
}

// splitSeed cuts a long test case into two overlapping halves and
// re-validates each, so later mutation works on short, fast seeds that
// still carry the long seed's local orderings.
func (f *Fuzzer) splitSeed(tc sqlast.TestCase) []sqlast.TestCase {
	mid := len(tc) / 2
	overlap := f.opts.MaxLen / 2
	lo := mid - overlap
	if lo < 1 {
		lo = 1
	}
	first := tc[:mid+overlap].Clone()
	second := tc[lo:].Clone()
	f.inst.Fixer.Fix(first)
	f.inst.Fixer.Fix(second)
	return []sqlast.TestCase{first, second}
}

// tryExec executes a candidate test case, ingesting it when it covers new
// branches (or unconditionally under the NoCoverageGate ablation).
func (f *Fuzzer) tryExec(tc sqlast.TestCase) {
	if len(tc) == 0 {
		return
	}
	novel, newEdges, _ := f.runner.Execute(tc)
	if novel {
		f.ingest(tc, newEdges)
	} else if f.opts.NoCoverageGate && !f.opts.DisableSequenceAlgorithms {
		// ablation: extract affinities from non-novel mutants too, but do
		// not pollute the seed pool
		fresh := f.aff.Analyze(tc.Types())
		f.pending = append(f.pending, fresh...)
	}
}

// Step performs one fuzzing iteration (Figure 4). The exhausted callback
// lets campaign budgets cut an iteration short.
func (f *Fuzzer) Step(exhausted func() bool) {
	seed := f.pool.Select()
	if seed == nil {
		return
	}

	if !f.opts.DisableSequenceAlgorithms {
		// Step 1: proactive sequence-oriented mutation (Algorithm 1).
		for i := range seed.TC {
			if exhausted() {
				return
			}
			f.tryExec(f.mut.SubstituteType(seed.TC, i))
			f.tryExec(f.mut.InsertAfter(seed.TC, i))
			f.tryExec(f.mut.DeleteAt(seed.TC, i))
		}

		// Step 2: progressive sequence synthesis (Algorithm 3) for every
		// affinity discovered above. Under the RandomSequences ablation the
		// same execution budget goes to uniformly random sequences instead.
		pending := f.pending
		f.pending = nil
		for _, pair := range pending {
			if exhausted() {
				return
			}
			var seqs []sqlt.Sequence
			if f.opts.RandomSequences {
				seqs = f.randomSequences(f.opts.MaxSeqPerAffinity / 4)
			} else {
				seqs = f.synth.OnNewAffinity(pair.From, pair.To)
			}
			for _, seq := range seqs {
				for k := 0; k < f.opts.InstPerSeq; k++ {
					if exhausted() {
						return
					}
					f.tryExec(f.inst.TestCase(seq))
				}
			}
		}
	}

	// Conventional syntax-preserving mutation on top.
	for k := 0; k < f.opts.ConventionalPerSeed; k++ {
		if exhausted() {
			return
		}
		f.tryExec(f.mut.MutateValues(seed.TC))
	}
}

// randomSequences draws n uniformly random type sequences of length 2 to
// MaxLen from the dialect's types (the RandomSequences ablation).
func (f *Fuzzer) randomSequences(n int) []sqlt.Sequence {
	ts := f.opts.Dialect.Types()
	var out []sqlt.Sequence
	for i := 0; i < n; i++ {
		l := 2 + f.rng.Intn(f.opts.MaxLen-1)
		seq := make(sqlt.Sequence, l)
		for j := range seq {
			seq[j] = ts[f.rng.Intn(len(ts))]
		}
		out = append(out, seq)
	}
	return out
}

// Run drives the fuzzer until the statement budget is consumed and returns
// the campaign's runner for metric collection. The budget may run out
// mid-iteration; the abandoned rest of that iteration is never resumed.
func (f *Fuzzer) Run(budgetStmts int) *harness.Runner {
	return f.RunLeg(budgetStmts, budgetStmts)
}

// RunLeg runs whole fuzzing iterations until at least legStmts statements
// have run; only the campaign budget budgetStmts (>= legStmts) cuts an
// iteration short. A leg therefore ends at an iteration boundary, a state
// Run(budgetStmts) also passes through, so a campaign run in legs is
// exactly Run(budgetStmts) however its legs are cut.
func (f *Fuzzer) RunLeg(legStmts, budgetStmts int) *harness.Runner {
	exhausted := func() bool { return f.runner.Stmts >= budgetStmts }
	for f.runner.Stmts < legStmts && !exhausted() {
		f.Step(exhausted)
	}
	return f.runner
}

// RunOptions is the option set of RunWithOptions. It has no fields: the
// sharded executor owns checkpointing and shutdown.
type RunOptions struct{}

// RunWithOptions is Run under its former signature, kept for the campaign
// benchmark (perfbench), which is built against it; it never interrupts and
// never fails.
func (f *Fuzzer) RunWithOptions(budgetStmts int, _ RunOptions) (runner *harness.Runner, interrupted bool, err error) {
	return f.Run(budgetStmts), false, nil
}
