package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"github.com/seqfuzz/lego/internal/chaos"
	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/core"
	"github.com/seqfuzz/lego/internal/minidb"
	"github.com/seqfuzz/lego/internal/oracle"
	"github.com/seqfuzz/lego/internal/shard"
	"github.com/seqfuzz/lego/internal/triage"
)

// setupSamples is how many times a repetition builds its fuzzer; setup_s is
// the median, and the last fuzzer built runs the campaign.
const setupSamples = 11

// digest is a campaign's observable outcome. Two runs of one workload and
// seed must produce identical digests.
type digest struct {
	Execs       int      `json:"execs"`
	Stmts       int      `json:"stmts"`
	Branches    int      `json:"branches"`
	Affinities  int      `json:"affinities"`
	Bugs        []string `json:"bugs"`
	Incidents   int      `json:"incidents"`
	Quarantined []int    `json:"quarantined"`
}

func (d digest) String() string {
	return fmt.Sprintf("execs=%d stmts=%d branches=%d affinities=%d incidents=%d quarantined=%v bugs=%v",
		d.Execs, d.Stmts, d.Branches, d.Affinities, d.Incidents, d.Quarantined, d.Bugs)
}

// repResult is what one repetition (one child process) reports.
type repResult struct {
	Digest digest `json:"digest"`
	// Checkpoint is the SHA-256 of the final checkpoint file (sharded
	// workload only).
	Checkpoint string `json:"checkpoint,omitempty"`

	SetupS    float64 `json:"setup_s"`
	CampaignS float64 `json:"campaign_s"`
	TriageS   float64 `json:"triage_s"`
	// CPUS is process user+sys CPU over the campaign.
	CPUS     float64 `json:"cpu_s"`
	Mallocs  uint64  `json:"mallocs"`
	Bytes    uint64  `json:"bytes"`
	GCs      uint64  `json:"gcs"`
	MaxRSSMB float64 `json:"max_rss_mb"`

	// EnginePanics counts test cases whose organic engine panic the
	// harness contained: each is a failed test case.
	EnginePanics int `json:"engine_panics"`
	// Problems lists output-check failures found inside the repetition.
	Problems []string `json:"problems,omitempty"`
	// Layers holds per-layer metrics (traced runs and layer probes).
	Layers map[string]float64 `json:"layers,omitempty"`
}

// usage samples the process's resource counters.
type usage struct {
	wall time.Time
	cpu  time.Duration
	mem  runtime.MemStats
}

func sampleUsage() usage {
	var u usage
	runtime.ReadMemStats(&u.mem)
	u.cpu = processCPU()
	u.wall = time.Now()
	return u
}

// finish fills the campaign's cost fields from the usage window [u, now].
func (u usage) finish(r *repResult) {
	end := time.Now()
	cpu := processCPU()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.CampaignS = end.Sub(u.wall).Seconds()
	r.CPUS = (cpu - u.cpu).Seconds()
	r.Mallocs = mem.Mallocs - u.mem.Mallocs
	r.Bytes = mem.TotalAlloc - u.mem.TotalAlloc
	r.GCs = uint64(mem.NumGC - u.mem.NumGC)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set in MiB (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// timeSetups builds the fuzzer setupSamples times and returns the last one
// with the median build time; a GC afterwards keeps the discarded builds out
// of the campaign's window.
func timeSetups[T any](build func() T) (T, float64) {
	var last T
	samples := make([]float64, setupSamples)
	for i := range samples {
		t0 := time.Now()
		last = build()
		samples[i] = time.Since(t0).Seconds()
	}
	runtime.GC()
	return last, median(samples)
}

// runUntraced runs one repetition of the workload the way legofuzz runs it
// (core.New/RunWithOptions/Triage under the lego facade, or shard.New/Run
// with checkpoint saves through the executor's filesystem), timing set-up,
// campaign and triage separately. With probes set it also measures the
// standalone layer probes, after every timed region.
func runUntraced(w workload, seed int64, budget int, dir string, probes bool) (repResult, error) {
	if w.sharded() {
		return runShardedUntraced(w, seed, budget, dir, probes)
	}
	var r repResult
	f, setup := timeSetups(func() *core.Fuzzer { return core.New(w.coreOptions(seed)) })
	r.SetupS = setup

	u := sampleUsage()
	runner, _, err := f.RunWithOptions(budget, core.RunOptions{})
	u.finish(&r)
	if err != nil {
		return r, fmt.Errorf("campaign: %w", err)
	}

	r.TriageS = timeTriage(runner.Oracle, func() { f.Triage(triageConfig) }, runner.Config())
	r.MaxRSSMB = maxRSSMB()

	r.Digest = digest{
		Execs:      runner.Execs,
		Stmts:      runner.Stmts,
		Branches:   runner.Branches(),
		Affinities: f.Affinities(),
		Bugs:       bugIDs(runner.Oracle),
	}
	r.EnginePanics = runner.EnginePanics
	r.Problems = triageProblems(runner.Oracle)

	if probes {
		r.Layers = map[string]float64{}
		probeReset(r.Layers, runner.Config())
	}
	return r, nil
}

func runShardedUntraced(w workload, seed int64, budget int, dir string, probes bool) (repResult, error) {
	var r repResult
	ex, setup := timeSetups(func() *shard.Executor { return shard.New(w.shardOptions(seed)) })
	r.SetupS = setup

	path := filepath.Join(dir, "campaign.ckpt")
	save := func(st *checkpoint.State) error { return checkpoint.SaveFS(ex.FS(), path, st) }
	u := sampleUsage()
	_, err := ex.Run(budget, shard.RunOptions{EveryExecs: w.ckptEvery, Save: save})
	u.finish(&r)
	if err != nil {
		return r, fmt.Errorf("campaign: %w", err)
	}

	r.TriageS = timeTriage(ex.Oracle(), func() { ex.Triage(triageConfig) }, ex.Shards()[0].Runner().Config())
	// The facade re-flushes the checkpoint after triage so its results
	// persist; an injected save fault leaves the previous generation.
	if err := save(ex.Snapshot()); err != nil && !errors.Is(err, chaos.ErrInjected) {
		return r, fmt.Errorf("final checkpoint: %w", err)
	}
	r.MaxRSSMB = maxRSSMB()

	r.Digest = shardDigest(ex)
	r.EnginePanics = ex.EnginePanics()
	r.Problems = triageProblems(ex.Oracle())
	sum, err := fileSHA(path)
	if err != nil {
		return r, err
	}
	r.Checkpoint = sum

	if probes {
		r.Layers = map[string]float64{}
		probeReset(r.Layers, ex.Shards()[0].Runner().Config())
	}
	return r, nil
}

func shardDigest(ex *shard.Executor) digest {
	return digest{
		Execs:       ex.Execs(),
		Stmts:       ex.Stmts(),
		Branches:    ex.Branches(),
		Affinities:  ex.Affinities(),
		Bugs:        bugIDs(ex.Oracle()),
		Incidents:   len(ex.Incidents()),
		Quarantined: ex.QuarantinedShards(),
	}
}

// triageSamples is how many times a repetition times the triage of its
// crash set; one triage takes only milliseconds.
const triageSamples = 15

// timeTriage times the campaign's triage call and, on copies of the crash
// set as it stood before triage, triageSamples-1 more triage passes on the
// same engine configuration; it returns the fastest in seconds. A GC before
// each sample keeps the campaign's garbage out of the timing.
func timeTriage(o *oracle.Oracle, run func(), cfg minidb.Config) float64 {
	before := o.Crashes()
	copies := make([][]*oracle.Crash, triageSamples-1)
	for i := range copies {
		for _, c := range before {
			cc := *c
			cc.Reproducer = c.Reproducer.Clone()
			copies[i] = append(copies[i], &cc)
		}
	}
	samples := make([]float64, 0, triageSamples)
	runtime.GC()
	t0 := time.Now()
	run()
	samples = append(samples, time.Since(t0).Seconds())
	for _, crashes := range copies {
		c := oracle.New()
		c.Import(crashes)
		runtime.GC()
		t0 := time.Now()
		triage.New(cfg, triageConfig).Run(c)
		samples = append(samples, time.Since(t0).Seconds())
	}
	return minOf(samples)
}

// bugIDs lists the unique bugs in discovery order.
func bugIDs(o *oracle.Oracle) []string {
	var out []string
	for _, c := range o.Crashes() {
		out = append(out, c.Report.ID)
	}
	return out
}

// triageProblems is the triage output check: every bug must be STABLE and
// its minimized reproducer no longer than the original.
func triageProblems(o *oracle.Oracle) []string {
	var out []string
	for _, c := range o.Crashes() {
		if c.Status != "STABLE" || c.MinimizedLen > c.OriginalLen {
			out = append(out, fmt.Sprintf("bug %s: status %q, reproducer %d -> %d statements",
				c.Report.ID, c.Status, c.OriginalLen, c.MinimizedLen))
		}
	}
	return out
}

func fileSHA(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("final checkpoint: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// probeReset times Engine.RunTestCase(nil), which performs only the
// engine's per-test-case reset, on a separate engine built with the
// campaign's configuration.
func probeReset(layers map[string]float64, cfg minidb.Config) {
	const warm, n = 200, 2000
	eng := minidb.New(cfg)
	for i := 0; i < warm; i++ {
		eng.RunTestCase(nil)
	}
	samples := make([]float64, n)
	for i := range samples {
		t0 := time.Now()
		eng.RunTestCase(nil)
		samples[i] = float64(time.Since(t0).Nanoseconds())
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		eng.RunTestCase(nil)
	}
	runtime.ReadMemStats(&m1)
	layers["minidb.reset_ns"] = median(samples)
	layers["minidb.reset_allocs"] = float64(m1.Mallocs-m0.Mallocs) / n
}

// timeLoads times n checkpoint.Load calls of path, in milliseconds.
func timeLoads(path string, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := checkpoint.Load(path); err != nil {
			return nil, fmt.Errorf("checkpoint load probe: %w", err)
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
