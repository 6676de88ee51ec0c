package minidb

import (
	"fmt"
	"hash/fnv"
	"strings"

	"github.com/seqfuzz/lego/internal/sqlt"
)

// This file converts *organic* panics — any panic that is not a seeded
// *BugReport — into synthetic BugReports so they flow through the same
// oracle/dedup pipeline as seeded crashes. With AFL++ an organic DBMS defect
// produces an ASAN report with a call stack; here the Go panic's stack,
// normalized to bare frame names, plays that role.

// maxOrganicFrames bounds the normalized stack so dedup keys stay stable
// even when the panic site sits under deep recursion.
const maxOrganicFrames = 8

// modulePrefix is stripped from frame names: frames render as
// "minidb.(*Engine).dispatch" rather than full import paths.
const modulePrefix = "github.com/seqfuzz/lego/internal/"

// OrganicReport builds a BugReport for a recovered non-BugReport panic.
// rec is the recovered value, rawStack the runtime.Stack() capture taken
// inside the recovering deferred function, and window the engine's type
// window at crash time. The report's stack is normalized to frame names
// (no addresses, offsets, or line numbers) so the oracle deduplicates
// repeated organic crashes from the same code path into one bug.
func OrganicReport(rec any, d sqlt.Dialect, window sqlt.Sequence, rawStack []byte) *BugReport {
	frames := NormalizeStack(rawStack)
	if len(frames) == 0 {
		frames = []string{fmt.Sprintf("unknown::%T", rec)}
	}
	h := fnv.New32a()
	for _, f := range frames {
		h.Write([]byte(f))
		h.Write([]byte{'|'})
	}
	return &BugReport{
		ID:        fmt.Sprintf("ORGANIC-%08x", h.Sum32()),
		Dialect:   d,
		Component: organicComponent(frames),
		Kind:      "PANIC",
		Stack:     frames,
		Window:    append(sqlt.Sequence(nil), window...),
	}
}

// NormalizeStack reduces a runtime.Stack() capture to the frame names of the
// original panic site. The raw capture (taken in a deferred function during
// panicking) looks like
//
//	goroutine 1 [running]:
//	<recovering frames>
//	runtime.gopanic(...)
//	[re-panic frames and another runtime.gopanic when the engine re-raised]
//	<panic-site frames>   <- what we want
//	<driver frames: RunTestCase, harness, testing, ...>
//
// so it takes the frames after the *last* runtime.gopanic, drops remaining
// runtime frames, strips argument lists and module prefixes, and stops at
// the first frame outside the engine's own code.
func NormalizeStack(rawStack []byte) []string {
	var names []string
	for _, line := range strings.Split(string(rawStack), "\n") {
		if line == "" || strings.HasPrefix(line, "\t") || strings.HasPrefix(line, "goroutine ") {
			continue // file:line lines and the header
		}
		if i := strings.LastIndexByte(line, '('); i > 0 {
			line = line[:i]
		}
		names = append(names, line)
	}

	start := 0
	for i, n := range names {
		if n == "runtime.gopanic" || n == "panic" {
			start = i + 1
		}
	}

	var out []string
	for _, n := range names[start:] {
		if strings.HasPrefix(n, "runtime.") {
			continue
		}
		trimmed := strings.TrimPrefix(n, modulePrefix)
		if trimmed == n || strings.HasSuffix(trimmed, "RunTestCase") {
			break // left the engine: containment/driver frames carry no signal
		}
		out = append(out, trimmed)
		if len(out) == maxOrganicFrames {
			break
		}
	}
	return out
}

// organicComponent guesses the engine component from the innermost frame so
// organic bugs slot into the same per-component tallies as seeded ones.
func organicComponent(frames []string) string {
	if len(frames) == 0 {
		return "Engine"
	}
	f := frames[0]
	switch {
	case strings.Contains(f, "eval"):
		return "Item"
	case strings.Contains(f, "Select") || strings.Contains(f, "select"):
		return "Optimizer"
	case strings.Contains(f, "rewrite") || strings.Contains(f, "Rewrite"):
		return "Rewriter"
	case strings.Contains(f, ".inject"):
		return "Injected"
	default:
		return "Engine"
	}
}
