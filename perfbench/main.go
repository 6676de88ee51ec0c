// Command perfbench is the repository's campaign benchmark. It runs one
// named workload through the calls legofuzz makes and prints every
// end-to-end metric (untraced, -trace 0) or every per-layer metric (traced,
// -trace 1) by name with its unit, the failed/attempted counts and a host
// record; the last line of its standard output is one JSON object.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload mariadb-long --seed 1 --seconds 45 --trace 0
//	bash perfbench/run.sh --workload comdb2-triage --seed 3 --seconds 45 --trace 1
//
// Each repetition runs in a fresh child process of this binary, so peak RSS,
// heap growth and GC pacing belong to one campaign. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hardLimit bounds a whole run, children included.
const hardLimit = 170 * time.Second

type options struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
	budget  int
	workdir string
	spans   string
	commit  string
}

func main() {
	name := flag.String("workload", "", "workload name: mariadb-long, comdb2-triage or mariadb-sharded-chaos")
	seed := flag.Int64("seed", 1, "workload seed; the run's campaign seeds derive from it (with -child: the campaign seed)")
	seconds := flag.Int("seconds", 45, "time a run is sized for; every run does the workload's fixed work")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	budget := flag.Int("budget", 0, "statement budget override (0: the workload's own)")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench-work"), "scratch directory for checkpoints")
	spans := flag.String("spans", "", "directory the traced run writes its spans to as CSV (empty: keep them in memory only)")
	commit := flag.String("commit", "unknown", "source revision recorded in the host line")
	child := flag.String("child", "", "internal: run one untraced, probes or traced repetition and print it as JSON")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	o := options{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0,
		budget: w.budget, workdir: *workdir, spans: *spans, commit: *commit}
	if *budget > 0 {
		o.budget = *budget
	}
	if *child != "" {
		if err := runChild(o, *child); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(runParent(o))
}

// runChild runs one repetition in this process and prints it as JSON.
func runChild(o options, mode string) error {
	dir := filepath.Join(o.workdir, strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("workdir: %w", err)
	}
	defer os.RemoveAll(dir)
	var r repResult
	var err error
	switch mode {
	case "untraced", "probes":
		r, err = runUntraced(o.w, o.seed, o.budget, dir, mode == "probes")
	case "traced":
		spansPath := ""
		if o.spans != "" {
			if err := os.MkdirAll(o.spans, 0o755); err != nil {
				return fmt.Errorf("spans: %w", err)
			}
			spansPath = filepath.Join(o.spans, fmt.Sprintf("spans-%s-seed%d.csv", o.w.name, o.seed))
		}
		r, err = runTraced(o.w, o.seed, o.budget, dir, spansPath)
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// forCampaign returns the options a child process runs one campaign with.
func (o options) forCampaign(seed int64, budget int) options {
	o.seed, o.budget = seed, budget
	return o
}

// spawn runs one repetition in a child process of this binary.
func spawn(ctx context.Context, o options, mode string) (repResult, error) {
	var r repResult
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	args := []string{"-child", mode, "-workload", o.w.name, "-seed", strconv.FormatInt(o.seed, 10),
		"-budget", strconv.Itoa(o.budget), "-workdir", o.workdir}
	if o.spans != "" {
		args = append(args, "-spans", o.spans)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return r, fmt.Errorf("%s repetition: %w", mode, err)
	}
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return r, fmt.Errorf("%s repetition output: %w", mode, err)
	}
	return r, nil
}

// host is the record every result carries.
type host struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOGC       string  `json:"gogc"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Budget     int     `json:"budget_stmts"`
	Campaigns  int     `json:"campaigns"`
	Workers    int     `json:"workers"`
	ChaosRate  float64 `json:"chaos_rate"`
	Trace      bool    `json:"trace"`
}

func hostRecord(o options) host {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOGC:       gogc,
		Commit:     o.commit,
		Workload:   o.w.name,
		Seed:       o.seed,
		Budget:     o.budget,
		Campaigns:  o.w.campaigns,
		Workers:    o.w.workers,
		ChaosRate:  o.w.chaosRate,
		Trace:      o.trace,
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the parent's bookkeeping of one benchmark run: a set of campaigns,
// each repeated once per pass.
type run struct {
	o     options
	seeds []int64
	// reps[i] are campaign i's untraced repetitions (with probes when
	// tracing); traced[i] its traced ones.
	reps, traced [][]repResult
	// probe holds the untraced and traced runs of the shard probe (traced
	// runs of single-threaded workloads only).
	probe    []repResult
	problems []string
	// failedExecs counts test cases of failed repetitions and test cases
	// whose engine panic was contained.
	failedExecs int
}

// campaignSeeds derives a run's campaign seeds from the workload seed with
// splitmix64, so distinct workload seeds give unrelated campaign sets.
func campaignSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	x := uint64(seed)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		// Positive, nonzero, and with headroom for the Seed+shard streams.
		out[i] = int64(z>>2) + 1
	}
	return out
}

func runParent(o options) int {
	h, _ := json.Marshal(hostRecord(o))
	fmt.Printf("host %s\n", h)

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	rn := &run{o: o, seeds: campaignSeeds(o.seed, o.w.campaigns)}
	rn.reps = make([][]repResult, len(rn.seeds))
	rn.traced = make([][]repResult, len(rn.seeds))

	// Every run does the same work: three passes over the campaign set when
	// untraced (the output check compares them, and the fastest of three
	// dodges most bursts of CPU steal on a shared host), one traced pass.
	// An untimed warm-up campaign comes first, because the host runs
	// noticeably slower for the first second of work after being idle.
	passes := 3
	if o.trace {
		passes = 1
	}
	if _, err := spawn(ctx, o.forCampaign(rn.seeds[0], max(o.budget/4, 1)), "untraced"); err != nil {
		rn.problems = append(rn.problems, "warm-up: "+err.Error())
	}
	for pass := 0; len(rn.problems) == 0 && pass < passes; pass++ {
		if err := rn.pass(ctx, pass); err != nil {
			rn.problems = append(rn.problems, err.Error())
		}
	}
	if o.trace && !o.w.sharded() && len(rn.problems) == 0 {
		if err := rn.shardProbe(ctx); err != nil {
			rn.problems = append(rn.problems, "shard probe: "+err.Error())
		}
	}
	if elapsed := time.Since(start); elapsed > time.Duration(o.seconds)*time.Second {
		fmt.Printf("note: run took %.1fs, longer than the %ds it is sized for\n", elapsed.Seconds(), o.seconds)
	}
	attempted := rn.check()

	res := result{Correct: len(rn.problems) == 0, Attempted: attempted, Failed: rn.failedExecs,
		Metrics: map[string]metric{}}
	if !res.Correct && res.Failed == 0 {
		res.Failed = res.Attempted
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
	}
	if res.Correct {
		if o.trace {
			rn.layerMetrics(res.Metrics)
		} else {
			rn.endToEnd(res.Metrics)
		}
	}
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("metric %-32s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, p := range rn.problems {
		fmt.Printf("FAILED %s\n", p)
	}
	fmt.Printf("campaigns %d, test cases failed %d of %d attempted, wall %.1fs\n",
		len(rn.seeds), res.Failed, res.Attempted, time.Since(start).Seconds())
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// pass runs every campaign once untraced, and when tracing once more
// traced, each in its own child process.
func (rn *run) pass(ctx context.Context, pass int) error {
	mode := "untraced"
	if rn.o.trace {
		mode = "probes"
	}
	for i, seed := range rn.seeds {
		co := rn.o.forCampaign(seed, rn.o.budget)
		r, err := spawn(ctx, co, mode)
		if err != nil {
			return err
		}
		rn.reps[i] = append(rn.reps[i], r)
		report(pass, i, mode, r)
		if !rn.o.trace {
			continue
		}
		t, err := spawn(ctx, co, "traced")
		if err != nil {
			return err
		}
		rn.traced[i] = append(rn.traced[i], t)
		report(pass, i, "traced", t)
	}
	return nil
}

// shardProbe measures the shard and checkpoint layers, which only the
// sharded executor exercises, on one campaign of the shard probe workload
// seeded like the run's first campaign: untraced, then traced.
func (rn *run) shardProbe(ctx context.Context) error {
	w, err := findWorkload(shardProbe)
	if err != nil {
		return err
	}
	po := rn.o
	po.w = w
	po = po.forCampaign(rn.seeds[0], w.budget)
	for _, mode := range []string{"untraced", "traced"} {
		r, err := spawn(ctx, po, mode)
		if err != nil {
			return err
		}
		rn.probe = append(rn.probe, r)
		fmt.Printf("shard probe %-8s %s  campaign %.3fs\n", mode, r.Digest, r.CampaignS)
	}
	return nil
}

func report(pass, i int, mode string, r repResult) {
	fmt.Printf("pass %d campaign %d %-8s %s  setup %.3fms campaign %.3fs triage %.4fs\n",
		pass+1, i+1, mode, r.Digest, r.SetupS*1e3, r.CampaignS, r.TriageS)
}

// check is the output check: every repetition of a campaign reports the
// same digest (and, sharded, the same final checkpoint bytes), no triaged
// bug is unstable or grew, and no shard was quarantined. It returns the
// number of test cases attempted.
func (rn *run) check() (attempted int) {
	type group struct {
		name string
		reps []repResult
	}
	var groups []group
	for i, seed := range rn.seeds {
		groups = append(groups, group{fmt.Sprintf("campaign %d (seed %d)", i+1, seed),
			append(append([]repResult(nil), rn.reps[i]...), rn.traced[i]...)})
	}
	groups = append(groups, group{"shard probe", rn.probe})
	for _, g := range groups {
		all := g.reps
		for j, r := range all {
			attempted += r.Digest.Execs
			where := fmt.Sprintf("%s repetition %d", g.name, j+1)
			bad := false
			fail := func(format string, args ...any) {
				rn.problems = append(rn.problems, where+": "+fmt.Sprintf(format, args...))
				bad = true
			}
			for _, p := range r.Problems {
				fail("%s", p)
			}
			if len(r.Digest.Quarantined) > 0 {
				fail("shards quarantined %v", r.Digest.Quarantined)
			}
			if ref := all[0]; r.Digest.String() != ref.Digest.String() {
				fail("digest %s differs from %s", r.Digest, ref.Digest)
			} else if r.Checkpoint != ref.Checkpoint {
				fail("final checkpoint %s differs from %s", r.Checkpoint, ref.Checkpoint)
			}
			if bad {
				rn.failedExecs += r.Digest.Execs
			} else {
				rn.failedExecs += r.EnginePanics
			}
		}
	}
	return attempted
}

// overCampaigns reduces f over each campaign's repetitions with best,
// then takes the median over campaigns: campaigns filter the spread between
// seeds. Times and rates keep each campaign's fastest repetition, since
// other tenants of the host only ever slow a repetition down; counts keep
// the median.
func (rn *run) overCampaigns(f func(r repResult) float64, best func([]float64) float64) float64 {
	var perCampaign []float64
	for _, reps := range rn.reps {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, f(r))
		}
		perCampaign = append(perCampaign, best(xs))
	}
	return median(perCampaign)
}

// endToEnd computes the untraced metrics.
func (rn *run) endToEnd(out map[string]metric) {
	perStmt := func(x float64, r repResult) float64 { return x / float64(r.Digest.Stmts) }
	set := func(name, unit string, best func([]float64) float64, f func(r repResult) float64) {
		out[name] = metric{rn.overCampaigns(f, best), unit}
	}
	set("stmts_per_s", "stmt/s", maxOf, func(r repResult) float64 { return float64(r.Digest.Stmts) / r.CampaignS })
	set("testcases_per_s", "exec/s", maxOf, func(r repResult) float64 { return float64(r.Digest.Execs) / r.CampaignS })
	set("cpu_s_per_mstmt", "s", minOf, func(r repResult) float64 { return 1e6 * perStmt(r.CPUS, r) })
	set("setup_s", "s", minOf, func(r repResult) float64 { return r.SetupS })
	set("allocs_per_stmt", "1", median, func(r repResult) float64 { return perStmt(float64(r.Mallocs), r) })
	set("bytes_per_stmt", "B", median, func(r repResult) float64 { return perStmt(float64(r.Bytes), r) })
	set("gc_cycles_per_mstmt", "1", median, func(r repResult) float64 { return 1e6 * perStmt(float64(r.GCs), r) })
	set("max_rss_mb", "MiB", median, func(r repResult) float64 { return r.MaxRSSMB })
	set("branches", "edges", median, func(r repResult) float64 { return float64(r.Digest.Branches) })
	set("bugs", "1", median, func(r repResult) float64 { return float64(len(r.Digest.Bugs)) })
}

// layerMetrics takes each per-layer metric's median over a campaign's
// traced repetitions, then over campaigns. Each traced repetition is
// joined with its untraced partner's probes, CPU/wall ratio and wall time
// (the tracing overhead is traced over untraced campaign time). On a
// single-threaded workload the shard and checkpoint layers come from the
// shard probe.
func (rn *run) layerMetrics(out map[string]metric) {
	vals := map[string][]float64{}
	for i := range rn.seeds {
		per := map[string][]float64{}
		for j, t := range rn.traced[i] {
			u := rn.reps[i][j]
			for k, v := range t.Layers {
				per[k] = append(per[k], v)
			}
			for k, v := range u.Layers {
				per[k] = append(per[k], v)
			}
			per["triage_s"] = append(per["triage_s"], u.TriageS)
			per["shard.cpu_per_wall"] = append(per["shard.cpu_per_wall"], u.CPUS/u.CampaignS)
			per["trace.overhead_ratio"] = append(per["trace.overhead_ratio"], t.CampaignS/u.CampaignS)
		}
		for k, xs := range per {
			vals[k] = append(vals[k], median(xs))
		}
	}
	for k, xs := range vals {
		out[k] = metric{median(xs), layerUnits[k]}
	}
	if len(rn.probe) == 2 {
		u, t := rn.probe[0], rn.probe[1]
		for k, v := range t.Layers {
			if strings.HasPrefix(k, "shard.") || strings.HasPrefix(k, "checkpoint.") {
				out[k] = metric{v, layerUnits[k]}
			}
		}
		out["shard.cpu_per_wall"] = metric{u.CPUS / u.CampaignS, layerUnits["shard.cpu_per_wall"]}
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// layerUnits is the unit of every per-layer metric.
var layerUnits = map[string]string{
	"core.step_ns_p50":                "ns",
	"core.step_ns_p99":                "ns",
	"core.self_ns_per_stmt":           "ns",
	"corpus.select_ns":                "ns",
	"corpus.pool_size":                "count",
	"mutate.ns_per_call":              "ns",
	"mutate.allocs_per_call":          "1",
	"mutate.novel_ratio":              "ratio",
	"instantiate.ns_per_testcase":     "ns",
	"instantiate.allocs_per_testcase": "1",
	"instantiate.novel_ratio":         "ratio",
	"seqsynth.ns_per_affinity":        "ns",
	"seqsynth.seqs_per_affinity":      "1",
	"affinity.analyze_ns":             "ns",
	"affinity.pairs":                  "count",
	"minidb.exec_ns_per_stmt":         "ns",
	"minidb.allocs_per_stmt":          "1",
	"minidb.bytes_per_stmt":           "B",
	"minidb.sql_ok_ratio":             "ratio",
	"minidb.plan_hit_rate":            "ratio",
	"minidb.reset_ns":                 "ns",
	"minidb.reset_allocs":             "1",
	"coverage.accumulate_ns":          "ns",
	"coverage.novel_ratio":            "ratio",
	"oracle.record_ns":                "ns",
	"oracle.crashes":                  "count",
	"triage_s":                        "s",
	"triage.ms_per_bug":               "ms",
	"triage.replays_per_bug":          "1",
	"triage.stable_ratio":             "ratio",
	"shard.leg_ms_p50":                "ms",
	"shard.leg_ms_p99":                "ms",
	"shard.cpu_per_wall":              "ratio",
	"shard.incidents":                 "count",
	"shard.quarantined":               "count",
	"checkpoint.snapshot_ms":          "ms",
	"checkpoint.write_ms":             "ms",
	"checkpoint.bytes":                "B",
	"checkpoint.load_ms":              "ms",
	"checkpoint.save_faults":          "count",
	"trace.overhead_ratio":            "ratio",
}
