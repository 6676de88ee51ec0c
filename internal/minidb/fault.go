package minidb

import "fmt"

// Engine faults are deterministic non-BugReport panics at statement
// dispatch, simulating the organic engine defects (nil derefs, slice
// overruns, logic bombs) a real in-process substrate accumulates over time.
// AFL++ survives those because the DBMS runs in a forked child; our harness
// must survive them via crash containment (harness.Runner), and the faults
// exist so tests can prove that containment under load.
//
// Each decision is a keyed draw of the chaos plane, a pure function of
// (FaultRate, FaultSeed, exec, statement, site): a rebuilt engine, a
// retried epoch or a resumed campaign re-derives the same faults from the
// execution ordinal alone, with no stream position to carry.

// The two injection sites. The panic's call stack differs between them, so
// a campaign under fault injection accumulates (at least) two unique
// organic crash signatures — enough to exercise oracle deduplication of
// contained panics.
const (
	sitePreDispatch = iota
	sitePostDispatch
)

// SetExec sets the execution ordinal that keys the engine's fault decisions
// for the following test cases. The harness passes its runner's Execs.
func (e *Engine) SetExec(n int) { e.exec = n }

// injectPreDispatch raises a pre-dispatch organic fault when scheduled.
//
//lego:injector
func (e *Engine) injectPreDispatch() {
	if e.faults.EngineFault(e.exec, e.stmtIndex, sitePreDispatch) {
		panic(fmt.Errorf("injected engine fault (exec %d, statement %d, pre-dispatch)", e.exec, e.stmtIndex))
	}
}

// injectPostDispatch raises a post-dispatch organic fault when scheduled.
//
//lego:injector
func (e *Engine) injectPostDispatch() {
	if e.faults.EngineFault(e.exec, e.stmtIndex, sitePostDispatch) {
		panic(fmt.Errorf("injected engine fault (exec %d, statement %d, post-dispatch)", e.exec, e.stmtIndex))
	}
}
