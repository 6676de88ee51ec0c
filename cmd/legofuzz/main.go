// Command legofuzz runs a LEGO fuzzing campaign against one of the built-in
// DBMS dialect profiles and reports coverage, affinity, and bug statistics.
//
// Usage:
//
//	legofuzz -target mariadb -budget 500000
//	legofuzz -target postgres -minus           # LEGO- ablation
//	legofuzz -target comdb2 -len 8 -seed 7 -repros
//	legofuzz -target mariadb -checkpoint camp.ckpt -checkpoint-every 500
//	legofuzz -target mariadb -checkpoint camp.ckpt -resume   # continue it
//	legofuzz -target mariadb -triage -repros   # verified, minimized repros
//	legofuzz -target mariadb -workers 4        # sharded, still deterministic
//	legofuzz -target mariadb -workers 4 -chaos-rate 0.05   # supervised chaos
//
// SIGINT/SIGTERM trigger a graceful shutdown: the campaign finishes the
// current epoch, stops at its barrier, flushes a final checkpoint (when
// -checkpoint is set), triages what was found (when -triage is set), prints
// the partial report, and exits 0. A second signal kills the process
// immediately.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/seqfuzz/lego"
	"github.com/seqfuzz/lego/internal/profiling"
)

var targets = map[string]lego.Target{
	"postgres":   lego.PostgreSQL,
	"postgresql": lego.PostgreSQL,
	"mysql":      lego.MySQL,
	"mariadb":    lego.MariaDB,
	"comdb2":     lego.Comdb2,
}

func main() {
	target := flag.String("target", "postgres", "target DBMS profile: postgres, mysql, mariadb, comdb2")
	budget := flag.Int("budget", 200000, "statement-execution budget")
	seed := flag.Int64("seed", 1, "RNG seed (campaigns are deterministic per seed)")
	maxLen := flag.Int("len", 5, "max synthesized sequence length (Algorithm 3's LEN)")
	minus := flag.Bool("minus", false, "disable sequence-oriented algorithms (LEGO- ablation)")
	noHazards := flag.Bool("no-hazards", false, "disarm the seeded bug corpus (coverage only)")
	repros := flag.Bool("repros", false, "print the reproducer SQL of every bug found")
	faultRate := flag.Float64("fault-rate", 0, "per-statement organic fault-injection probability (containment demo)")
	workers := flag.Int("workers", 1, "parallel fuzzing shards; results are deterministic per (seed, workers, epoch-stmts)")
	epochStmts := flag.Int("epoch-stmts", 0, "per-shard statements between merge barriers (0 = default 2000)")
	chaosRate := flag.Float64("chaos-rate", 0, "deterministic chaos plane: per-decision probability of injected worker panics, epoch stalls, and checkpoint I/O faults (0 disables)")
	chaosSeed := flag.Int64("chaos-seed", 0, "fault-schedule seed (0 = -seed); campaigns are deterministic per (chaos-rate, chaos-seed)")
	maxRetries := flag.Int("max-epoch-retries", 0, "per-shard epoch-retry budget before quarantine (0 = default 3, negative = quarantine on first failure)")
	ckptPath := flag.String("checkpoint", "", "checkpoint file: campaign state is saved here periodically")
	ckptEvery := flag.Int("checkpoint-every", 1000, "executions between checkpoint writes")
	resume := flag.Bool("resume", false, "resume the campaign from -checkpoint instead of starting fresh")
	triageOn := flag.Bool("triage", false, "triage crashes at campaign end: re-verify on a fresh engine and minimize reproducers")
	triageReplays := flag.Int("triage-replays", 3, "verification replays per crash")
	triageBudget := flag.Int("triage-budget", 256, "max minimization replays per crash")
	triageAssert := flag.Bool("triage-assert", false, "exit 1 unless every bug is STABLE with MinimizedLen <= OriginalLen (CI smoke)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole campaign to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at campaign end to this file")
	flag.Parse()

	d, ok := targets[strings.ToLower(*target)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown target %q (want postgres, mysql, mariadb, or comdb2)\n", *target)
		os.Exit(2)
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	defer stopProfiles()

	cfg := lego.Config{
		Target:                    d,
		Seed:                      *seed,
		MaxSequenceLength:         *maxLen,
		DisableSequenceAlgorithms: *minus,
		DisableHazards:            *noHazards,
		FaultRate:                 *faultRate,
		Triage:                    *triageOn,
		TriageReplays:             *triageReplays,
		TriageBudget:              *triageBudget,
		Workers:                   *workers,
		EpochStmts:                *epochStmts,
		ChaosRate:                 *chaosRate,
		ChaosSeed:                 *chaosSeed,
		MaxEpochRetries:           *maxRetries,
	}

	var f *lego.Fuzzer
	if *resume {
		if *ckptPath == "" {
			fmt.Fprintln(os.Stderr, "-resume requires -checkpoint")
			os.Exit(2)
		}
		var err error
		f, err = lego.ResumeFuzzer(cfg, *ckptPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		if warn := f.ResumeWarning(); warn != "" {
			fmt.Fprintf(os.Stderr, "warning: %s\n", warn)
		}
		fmt.Printf("resumed campaign from %s\n", *ckptPath)
	} else {
		f = lego.NewFuzzer(cfg)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM closes the stop channel
	// and the campaign winds down at the next epoch barrier; restoring
	// default signal handling afterwards lets a second signal kill a stuck
	// process the usual way.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "\n%v: finishing the current epoch, then stopping (repeat to kill)\n", sig)
		close(stop)
		signal.Stop(sigc)
	}()

	name := "LEGO"
	if *minus {
		name = "LEGO-"
	}
	fmt.Printf("%s fuzzing %s (%d statement types), budget %d statements, seed %d",
		name, d, lego.StatementTypes(d), *budget, *seed)
	if *workers > 1 {
		fmt.Printf(", %d workers", *workers)
	}
	if *chaosRate > 0 {
		fmt.Printf(", chaos rate %g", *chaosRate)
	}
	fmt.Println()

	start := time.Now()
	rep, err := f.FuzzWithOptions(*budget, lego.FuzzOptions{
		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
		Stop:            stop,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
		os.Exit(1)
	}
	dur := time.Since(start)

	if rep.Interrupted {
		fmt.Printf("\ninterrupted at %d/%d statements — partial results below", rep.Statements, *budget)
		if *ckptPath != "" {
			fmt.Printf(" (state flushed to %s; continue with -resume)", *ckptPath)
		}
		fmt.Println()
	}

	fmt.Printf("\nexecutions : %d test cases (%d statements) in %.2fs (%.0f stmts/s)\n",
		rep.Executions, rep.Statements, dur.Seconds(), float64(rep.Statements)/dur.Seconds())
	fmt.Printf("branches   : %d\n", rep.Branches)
	fmt.Printf("affinities : %d\n", rep.Affinities)
	fmt.Printf("seed pool  : %d\n", rep.SeedPool)
	if rep.EnginePanics > 0 {
		fmt.Printf("contained  : %d organic engine panics (campaign survived all of them)\n", rep.EnginePanics)
	}
	if len(rep.Incidents) > 0 {
		fmt.Printf("incidents  : %d worker failures supervised\n", len(rep.Incidents))
		for _, in := range rep.Incidents {
			fmt.Printf("  epoch %3d shard %d  %-13s -> %-11s (retries %d)\n",
				in.Epoch, in.Shard, in.Kind, in.Outcome, in.Retries)
		}
	}
	if len(rep.Quarantined) > 0 {
		fmt.Printf("degraded   : %d of %d workers quarantined %v; campaign finished on %d\n",
			len(rep.Quarantined), rep.Workers, rep.Quarantined, rep.Workers-len(rep.Quarantined))
	}
	if rep.SaveFaults > 0 {
		fmt.Printf("save faults: %d checkpoint writes eaten by injected I/O faults (last-good generation kept)\n", rep.SaveFaults)
	}
	fmt.Printf("bugs       : %d unique\n", len(rep.Bugs))
	for i, b := range rep.Bugs {
		fmt.Printf("  %2d. %-18s %-10s %-5s (exec %d)%s\n",
			i+1, b.ID, b.Component, b.Kind, b.FoundAtExec, triageColumns(b, *triageReplays))
		if *repros {
			fmt.Println("      --- reproducer ---")
			for _, line := range strings.Split(strings.TrimSpace(b.Reproducer), "\n") {
				fmt.Println("      " + line)
			}
		}
	}

	if *triageAssert {
		if !*triageOn {
			fmt.Fprintln(os.Stderr, "-triage-assert requires -triage")
			os.Exit(2)
		}
		for _, b := range rep.Bugs {
			if b.Status != "STABLE" || b.MinimizedLen > b.OriginalLen {
				fmt.Fprintf(os.Stderr, "triage assertion failed: %s status=%s len %d->%d\n",
					b.ID, b.Status, b.OriginalLen, b.MinimizedLen)
				os.Exit(1)
			}
		}
		fmt.Printf("triage     : all %d bugs STABLE with minimized reproducers\n", len(rep.Bugs))
	}
}

// triageColumns renders the per-bug triage columns, e.g.
// " STABLE 3/3 12->2 stmts"; empty when the bug was not triaged.
func triageColumns(b lego.Bug, replays int) string {
	if b.Status == "" {
		return ""
	}
	return fmt.Sprintf("  %-6s %d/%d  %d->%d stmts",
		b.Status, b.Replays, replays, b.OriginalLen, b.MinimizedLen)
}
