package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// kind names the layer call a span times.
type kind uint8

const (
	kStep       kind = iota // one fuzzing iteration (core.Fuzzer.Step)
	kSelect                 // corpus.Pool.Select
	kPoolAdd                // corpus.Pool.Add
	kMutate                 // one of the four mutate.Mutator operators
	kSynth                  // seqsynth.Synthesizer.OnNewAffinity
	kInst                   // instantiate.Instantiator.TestCase
	kAnalyze                // affinity.Map.Analyze (ingest and the generated-affinity tally)
	kReset                  // Engine.Tracer().Reset
	kExec                   // Engine.RunTestCase
	kAccumulate             // coverage.Map.Accumulate
	kRecord                 // oracle.Oracle.Record
	kTriage                 // triage.Triager.Run / Executor.Triage
	kLeg                    // one epoch-sized slice of campaign work
	kSnapshot               // Executor.Snapshot
	kSave                   // checkpoint.SaveFS
	kMeter                  // runtime.ReadMemStats of an allocation sample
	numKinds
)

var kindNames = [numKinds]string{
	"step", "corpus.select", "corpus.add", "mutate", "seqsynth", "instantiate",
	"affinity.analyze", "coverage.reset", "minidb.exec", "coverage.accumulate",
	"oracle.record", "triage", "leg", "checkpoint.snapshot", "checkpoint.save",
	"meter",
}

// span is one timed layer call. parent is the index of the enclosing step
// span, or -1 outside steps. Times are nanoseconds since the recorder began.
type span struct {
	start, end int64
	parent     int32
	kind       kind
}

// recorder keeps every span in memory; they are summarized, and optionally
// written out, when the run ends.
type recorder struct {
	base  time.Time
	spans []span
	open  int32
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, 1<<16), open: -1}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// add records a finished child span of the open step.
func (r *recorder) add(k kind, start int64) {
	r.spans = append(r.spans, span{start: start, end: r.now(), parent: r.open, kind: k})
}

// begin opens a parent span; end closes it.
func (r *recorder) begin(k kind) int32 {
	r.spans = append(r.spans, span{start: r.now(), parent: -1, kind: k})
	r.open = int32(len(r.spans) - 1)
	return r.open
}

func (r *recorder) end(i int32) {
	r.spans[i].end = r.now()
	r.open = -1
}

// summary aggregates spans per kind.
type summary struct {
	count [numKinds]int
	total [numKinds]int64
	// durs holds every duration of the kinds whose percentiles are
	// reported.
	durs [numKinds][]float64
	// selfTotal is the summed step time not covered by child spans.
	selfTotal int64
}

func (r *recorder) summarize() summary {
	var s summary
	children := map[int32]int64{}
	for _, sp := range r.spans {
		d := sp.end - sp.start
		s.count[sp.kind]++
		s.total[sp.kind] += d
		switch sp.kind {
		case kStep, kLeg, kSnapshot, kSave:
			s.durs[sp.kind] = append(s.durs[sp.kind], float64(d))
		}
		if sp.parent >= 0 {
			children[sp.parent] += d
		}
	}
	for i, sp := range r.spans {
		if sp.kind == kStep {
			s.selfTotal += sp.end - sp.start - children[int32(i)]
		}
	}
	return s
}

// mean is the average duration of one kind's spans in nanoseconds.
func (s summary) mean(k kind) float64 {
	if s.count[k] == 0 {
		return 0
	}
	return float64(s.total[k]) / float64(s.count[k])
}

// writeSpans dumps every span as CSV: kind,parent,start_ns,end_ns.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind,parent,start_ns,end_ns")
	for _, sp := range r.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d\n", kindNames[sp.kind], sp.parent, sp.start, sp.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// allocMeter samples heap allocations around every sampleEvery-th call of
// a layer. runtime.ReadMemStats stops the world, so bracketing every call
// would distort the spans; a fixed stride keeps the sample deterministic.
// The reads get spans of their own, so they count as neither the layer's
// time nor the step's self time.
type allocMeter struct {
	rec            *recorder
	calls, samples int
	mallocs, bytes uint64
	units          int // statements covered by the sampled calls
	m0             runtime.MemStats
	sampling       bool
}

const sampleEvery = 128

func (a *allocMeter) before() {
	a.calls++
	a.sampling = a.calls%sampleEvery == 0
	if a.sampling {
		t := a.rec.now()
		runtime.ReadMemStats(&a.m0)
		a.rec.add(kMeter, t)
	}
}

func (a *allocMeter) after(units int) {
	if !a.sampling {
		return
	}
	var m1 runtime.MemStats
	t := a.rec.now()
	runtime.ReadMemStats(&m1)
	a.rec.add(kMeter, t)
	a.samples++
	a.mallocs += m1.Mallocs - a.m0.Mallocs
	a.bytes += m1.TotalAlloc - a.m0.TotalAlloc
	a.units += units
}

// perSample is the mean allocation count of a sampled call.
func (a *allocMeter) perSample() float64 {
	return ratio(int(a.mallocs), a.samples)
}

// perUnit is the mean allocation count and bytes per statement of the
// sampled calls.
func (a *allocMeter) perUnit() (allocs, bytes float64) {
	if a.units == 0 {
		return 0, 0
	}
	return float64(a.mallocs) / float64(a.units), float64(a.bytes) / float64(a.units)
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// percentile returns the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = max(m, x)
	}
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
