//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// counts vary under -race; this gate runs only in normal builds (`make
// allocgate`).

package lego_test

import (
	"runtime"
	"testing"

	"github.com/seqfuzz/lego"
)

// TestCampaignAllocBudget gates the allocation cost of the default campaign
// path: lego.NewFuzzer on MariaDB, seed 1, one worker, 30k statements.
// Allocations and bytes per statement are deterministic at a fixed seed and
// budget (repeat runs agree to 0.01 allocs/stmt), so unlike a wall-clock
// floor this gate cannot be tripped by host noise, and it catches a
// regression anywhere on the fuzz loop, not only in the operations
// TestAllocBudgets names.
//
// The ceilings sit about 3% above the values measured when they were set
// (11.26 allocs/stmt, 772 B/stmt, go1.24 linux/amd64). Lowering them after
// an optimization is encouraged; raising one is a perf regression that
// needs justification.
func TestCampaignAllocBudget(t *testing.T) {
	const (
		budgetStmts = 30000
		maxAllocs   = 11.6
		maxBytes    = 795.0
	)
	f := lego.NewFuzzer(lego.Config{Target: lego.MariaDB, Seed: 1})
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := f.Fuzz(budgetStmts)
	runtime.ReadMemStats(&after)
	if rep.Statements < budgetStmts {
		t.Fatalf("campaign ran %d statements, want at least %d", rep.Statements, budgetStmts)
	}
	n := float64(rep.Statements)
	allocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%d statements: %.3f allocs/stmt (ceiling %.1f), %.1f B/stmt (ceiling %.0f)",
		rep.Statements, allocs, maxAllocs, bytes, maxBytes)
	if allocs > maxAllocs {
		t.Errorf("%.3f allocs/stmt, ceiling %.1f", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("%.1f B/stmt, ceiling %.0f", bytes, maxBytes)
	}
}
