package minidb

import (
	"github.com/seqfuzz/lego/internal/chaos"
	"github.com/seqfuzz/lego/internal/coverage"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// Limits bound resource usage so fuzzing stays fast (the paper's C3:
// pathological seeds must not stall the fuzzer).
type Limits struct {
	MaxRowsPerTable int
	MaxResultRows   int
	MaxTriggerDepth int
	MaxRewriteDepth int
	// MaxTriggerFires caps total trigger invocations per top-level
	// statement: cascades are depth-capped AND breadth-capped, so an
	// UPDATE over many rows with self-updating triggers cannot stall the
	// fuzzer (challenge C3).
	MaxTriggerFires int
	// MaxStepsPerStmt is the deterministic watchdog: every top-level
	// statement may charge at most this many evaluation steps (expression
	// evaluations and row visits) before aborting with a SQL error.
	// Counting steps instead of wall-clock time keeps campaigns
	// reproducible — the same statement trips the watchdog at the same
	// point on any machine (extends challenge C3).
	MaxStepsPerStmt int
}

// DefaultLimits are tuned for fuzzing throughput.
func DefaultLimits() Limits {
	return Limits{
		MaxRowsPerTable: 128,
		MaxResultRows:   512,
		MaxTriggerDepth: 4,
		MaxRewriteDepth: 8,
		MaxTriggerFires: 64,
		MaxStepsPerStmt: 1 << 20,
	}
}

// Config configures an Engine.
type Config struct {
	Dialect sqlt.Dialect
	Limits  Limits
	// EnableHazards arms the seeded bug corpus (bugs.go). Disarmed engines
	// are used by tests that exercise pure SQL semantics.
	EnableHazards bool
	// FaultRate arms deterministic engine faults: each top-level statement
	// panics with a non-BugReport value at this probability, once per
	// injection site (fault.go). It models *organic* engine defects — the
	// panics the harness must contain without dying — and exists to prove
	// crash containment, not to find bugs. Zero disables injection.
	FaultRate float64
	// FaultSeed selects the fault schedule (default 1): every decision is
	// a chaos-plane draw keyed by (FaultSeed, exec, statement, site).
	FaultSeed int64
	// DisablePlanCache turns off the compiled-plan execution layer: every
	// expression position runs the tree-walking interpreter directly, with
	// no compilation at all. The compiled path is coverage- and
	// result-equivalent by contract (compile.go), so this exists for
	// baseline comparison and as an escape hatch, not for correctness.
	DisablePlanCache bool
}

// session holds connection-scoped state.
type session struct {
	vars      map[string]Value
	globals   map[string]Value
	role      string
	listening map[string]bool
	notices   []string
	cursors   map[string]*cursor
	prepared  map[string]sqlast.Statement
	isolation string
	curDB     string
}

type cursor struct {
	name string
	rows [][]Value
	pos  int
}

func newSession() *session {
	s := &session{
		vars:      map[string]Value{},
		globals:   map[string]Value{},
		listening: map[string]bool{},
		cursors:   map[string]*cursor{},
		prepared:  map[string]sqlast.Statement{},
	}
	s.reset()
	return s
}

// reset returns the session to newSession's state in place, keeping map
// and slice storage for the next test case. Like Catalog.reset, it must
// name every field; TestResetIsComplete checks that it does.
func (s *session) reset() {
	clear(s.vars)
	clear(s.globals)
	s.role = ""
	clear(s.listening)
	clear(s.notices)
	s.notices = s.notices[:0]
	clear(s.cursors)
	clear(s.prepared)
	s.isolation = "READ COMMITTED"
	s.curDB = "main"
}

// Engine executes SQL test cases against a fresh in-memory database.
// An Engine is not safe for concurrent use; each fuzzing worker owns one.
type Engine struct {
	cfg     Config
	cat     *Catalog
	sess    *session
	tracer  *coverage.Tracer
	limits  Limits
	hazards []*Bug
	faults  *chaos.Injector // nil when FaultRate <= 0
	exec    int             // execution ordinal keying fault decisions (SetExec)

	// txnStack holds catalog snapshots: index 0 is the BEGIN snapshot,
	// later entries are savepoints (name in spNames).
	txnStack []*Catalog
	spNames  []string

	// execution bookkeeping
	typeWindow   []sqlt.Type // recent executed statement types (hazard matching)
	triggerDepth int
	triggerFires int // invocations within the current top-level statement
	rewriteDepth int
	stepsUsed    int // watchdog charge within the current top-level statement
	stmtIndex    int
	cteFrames    []map[string]cteRows

	// rewrite-component flags for the case-study bug path
	inWCTERewrite     bool
	wcteNotifyRewrite bool

	// state flags observed by hazard conditions
	rowsInserted  int
	lastInsertTab string

	// INSERT scratch stacks (execInsert): target column positions, the
	// evaluated VALUES, and the source rows slicing them. Each INSERT,
	// nested trigger INSERTs included, pushes above the current lengths
	// and pops back on return, so between statements all three are empty.
	// ALTER TABLE … ADD COLUMN holds its backfill values on insVals too.
	insTargets []int
	insVals    []Value
	insRows    [][]Value

	// outcome scratch buffers, reused across RunTestCase calls: the
	// returned Outcome slices into these, so they are valid only until
	// the next RunTestCase on the same engine (see Outcome docs).
	resBuf []*Result
	errBuf []error
	// results is the arena every statement's *Result comes from; reset
	// recycles it, which bounds a Result's life to the next RunTestCase.
	results resultArena

	// compiled-plan state (plan_cache.go). The cache survives reset():
	// fuzzing replays near-identical statements across test cases, and
	// cross-case reuse is the point.
	plans *planCache
	// machines is the arena preparedEval binds machines from; ExecStmt
	// resets it at statement end. progStack holds the per-item programs of
	// projections, sorts and DML scans, pushed and popped like the INSERT
	// scratch stacks.
	machines  machineArena
	progStack []boundProg
	// joins holds one join's probe scratch per nesting level (exec_select.go);
	// joinDepth is the number in use, zero between statements.
	joins     []*joinScratch
	joinDepth int

	// metas is the shared column-metadata cache (colmeta.go). Like the
	// plan cache it is derived state that survives reset, since the same
	// tables come back case after case.
	metas map[colMetaKey]*colMeta
}

// New creates an engine for the given configuration.
func New(cfg Config) *Engine {
	if cfg.Limits == (Limits{}) {
		cfg.Limits = DefaultLimits()
	}
	e := &Engine{
		cfg:    cfg,
		cat:    NewCatalog(),
		sess:   newSession(),
		limits: cfg.Limits,
		tracer: coverage.NewTracer(),
	}
	if cfg.EnableHazards {
		e.hazards = bugsFor(cfg.Dialect)
	}
	if cfg.FaultRate > 0 {
		e.faults = chaos.New(cfg.FaultRate, cfg.FaultSeed)
	}
	return e
}

// Dialect returns the engine's dialect profile.
func (e *Engine) Dialect() sqlt.Dialect { return e.cfg.Dialect }

// Tracer exposes the engine's coverage tracer for feedback harvesting.
func (e *Engine) Tracer() *coverage.Tracer { return e.tracer }

// reset empties all database state for the next test case. It works in
// place: the catalog, session and transaction stacks keep their storage, so
// a reset in steady state allocates nothing. After a ROLLBACK e.cat is the
// former BEGIN snapshot; clearing it is safe because ROLLBACK's endTxn
// already dropped its only other reference, txnStack[0].
func (e *Engine) reset() {
	e.cat.reset()
	e.sess.reset()
	e.endTxn()
	e.typeWindow = e.typeWindow[:0]
	e.triggerDepth = 0
	e.rewriteDepth = 0
	e.stmtIndex = 0
	e.cteFrames = nil
	e.inWCTERewrite = false
	e.wcteNotifyRewrite = false
	e.rowsInserted = 0
	e.lastInsertTab = ""
	e.results.reset()
}

// endTxn drops every transaction snapshot and savepoint name. It clears
// the stacks' whole backing arrays, including entries a RELEASE or
// ROLLBACK TO truncated away, so no former snapshot stays reachable.
func (e *Engine) endTxn() {
	clear(e.txnStack[:cap(e.txnStack)])
	e.txnStack = e.txnStack[:0]
	clear(e.spNames[:cap(e.spNames)])
	e.spNames = e.spNames[:0]
}

// hit reports a probe site to the tracer.
//
//lego:hotpath
func (e *Engine) hit(s coverage.Site) {
	e.tracer.Hit(s)
}

// Result is the output of one statement. Results come from the engine's
// result arena: one returned by ExecStmt or in Outcome.Results is valid
// until the engine's next RunTestCase, which recycles the arena.
type Result struct {
	Cols     []string
	Rows     [][]Value
	Affected int
	Msg      string
}

// resultBlock is the number of Results the arena allocates at a time.
const resultBlock = 64

// resultArena hands out statement Results from engine-owned blocks, so a
// statement's Result costs no allocation in steady state. No fuzz-loop
// caller reads results, and their documented lifetime already ends at the
// next RunTestCase; reset rewinds the current block there. A full block is
// left to its holders and a new one started, so results handed out earlier
// in the same test case, or to a caller that never runs a test case (the
// REPL, lego.DB), stay intact.
type resultArena struct {
	block []Result
	used  int
}

// next returns a zeroed Result.
func (a *resultArena) next() *Result {
	if a.used == len(a.block) {
		a.block = make([]Result, resultBlock)
		a.used = 0
	}
	r := &a.block[a.used]
	a.used++
	return r
}

// reset zeroes the handed-out part of the current block, dropping every
// reference an earlier test case's results held, and rewinds it.
func (a *resultArena) reset() {
	clear(a.block[:a.used])
	a.used = 0
}

// newResult returns an arena Result holding res.
func (e *Engine) newResult(res Result) *Result {
	r := e.results.next()
	*r = res
	return r
}

// ok returns a message-only result.
func (e *Engine) ok(msg string) (*Result, error) {
	return e.newResult(Result{Msg: msg}), nil
}

// Outcome summarizes one test-case execution.
type Outcome struct {
	// Crash is non-nil when a seeded hazard (or organic engine bug) fired.
	Crash *BugReport
	// Executed is the number of statements attempted.
	Executed int
	// Errors is the number of statements that returned a SQL error.
	Errors int
	// Results holds per-statement results (nil entry on error/crash).
	// The slice aliases an engine-owned scratch buffer: it is valid only
	// until the next RunTestCase call on the same engine. Callers that
	// need results across runs must copy the slice first.
	//
	//lego:borrowed valid until the next RunTestCase on the same engine
	Results []*Result
	// Errs holds per-statement errors (nil entry on success). Same
	// lifetime as Results: valid until the next RunTestCase call.
	//
	//lego:borrowed valid until the next RunTestCase on the same engine
	Errs []error
}

// RunTestCase executes the test case against a fresh database, recording
// coverage into the engine's tracer (which the caller is expected to have
// Reset). Seeded-bug panics are captured into the outcome; any other panic
// is re-raised, since it would be a genuine engine defect.
func (e *Engine) RunTestCase(tc sqlast.TestCase) (out Outcome) {
	e.reset()
	if cap(e.resBuf) < len(tc) {
		e.resBuf = make([]*Result, len(tc))
		e.errBuf = make([]error, len(tc))
	}
	out.Results = e.resBuf[:len(tc)]
	out.Errs = e.errBuf[:len(tc)]
	for i := range out.Results {
		out.Results[i] = nil
		out.Errs[i] = nil
	}
	defer func() {
		if r := recover(); r != nil {
			if br, ok := r.(*BugReport); ok {
				out.Crash = br
				return
			}
			panic(r)
		}
	}()
	for i, s := range tc {
		e.stmtIndex = i
		out.Executed++
		res, err := e.ExecStmt(s)
		if err != nil {
			out.Errors++
			out.Errs[i] = err
			continue
		}
		out.Results[i] = res
	}
	return out
}

// ExecStmt executes one statement against the current database state.
// Statement-level SQL errors are returned; seeded-bug crashes panic with a
// *BugReport (RunTestCase catches them). The returned *Result belongs to
// the engine's result arena: it is valid until the engine's next
// RunTestCase, and a caller that needs it longer must copy it.
func (e *Engine) ExecStmt(s sqlast.Statement) (*Result, error) {
	defer e.machines.reset()
	e.hit(pDispatch)
	t := s.Type()
	if !e.cfg.Dialect.Supports(t) {
		e.hit(pDialectReject)
		return nil, errValue("%s: unsupported statement type %s", e.cfg.Dialect, t)
	}
	switch t.Category() {
	case sqlt.CatDDL:
		e.hit(pParseDDL)
	case sqlt.CatDML:
		e.hit(pParseDML)
	case sqlt.CatDQL:
		e.hit(pParseDQL)
	case sqlt.CatDCL:
		e.hit(pParseDCL)
	case sqlt.CatTCL:
		e.hit(pParseTCL)
	default:
		e.hit(pParseSession)
	}

	e.triggerFires = 0
	e.stepsUsed = 0
	if e.faults != nil {
		e.injectPreDispatch()
	}
	res, err := e.dispatch(s)
	if e.faults != nil {
		e.injectPostDispatch()
	}

	// The type window records *attempted* statements: real DBMS crashes
	// often fire on error paths too.
	e.typeWindow = append(e.typeWindow, t)
	if len(e.typeWindow) > 8 {
		e.typeWindow = e.typeWindow[len(e.typeWindow)-8:]
	}
	if err != nil {
		e.hit(pStmtError)
	} else {
		e.hit(pStmtOK)
	}
	e.checkHazards(t, err)
	return res, err
}

func (e *Engine) dispatch(s sqlast.Statement) (*Result, error) {
	//lego:exhaustive Statement
	switch st := s.(type) {
	// DDL
	case *sqlast.CreateTableStmt:
		return e.execCreateTable(st)
	case *sqlast.CreateViewStmt:
		return e.execCreateView(st)
	case *sqlast.CreateIndexStmt:
		return e.execCreateIndex(st)
	case *sqlast.CreateTriggerStmt:
		return e.execCreateTrigger(st)
	case *sqlast.CreateSequenceStmt:
		return e.execCreateSequence(st)
	case *sqlast.CreateSchemaStmt:
		return e.execCreateSchema(st)
	case *sqlast.CreateFunctionStmt:
		return e.execCreateFunction(st)
	case *sqlast.CreateProcedureStmt:
		return e.execCreateProcedure(st)
	case *sqlast.CreateRuleStmt:
		return e.execCreateRule(st)
	case *sqlast.CreateDomainStmt:
		return e.execCreateDomain(st)
	case *sqlast.CreateTypeStmt:
		return e.execCreateType(st)
	case *sqlast.CreateExtensionStmt:
		return e.execCreateExtension(st)
	case *sqlast.CreateRoleStmt:
		return e.execCreateRole(st)
	case *sqlast.CreateDatabaseStmt:
		return e.execCreateDatabase(st)
	case *sqlast.AlterTableStmt:
		return e.execAlterTable(st)
	case *sqlast.AlterSimpleStmt:
		return e.execAlterSimple(st)
	case *sqlast.AlterSystemStmt:
		return e.execAlterSystem(st)
	case *sqlast.DropStmt:
		return e.execDrop(st)
	case *sqlast.RenameTableStmt:
		return e.execRenameTable(st)
	case *sqlast.TruncateStmt:
		return e.execTruncate(st)
	case *sqlast.CommentOnStmt:
		return e.execCommentOn(st)
	case *sqlast.ReindexStmt:
		return e.execReindex(st)
	case *sqlast.RefreshMatViewStmt:
		return e.execRefreshMatView(st)

	// DML
	case *sqlast.InsertStmt:
		return e.execInsert(st)
	case *sqlast.UpdateStmt:
		return e.execUpdate(st)
	case *sqlast.DeleteStmt:
		return e.execDelete(st)
	case *sqlast.MergeStmt:
		return e.execMerge(st)
	case *sqlast.CopyStmt:
		return e.execCopy(st)
	case *sqlast.LoadDataStmt:
		return e.execLoadData(st)
	case *sqlast.CallStmt:
		return e.execCall(st)
	case *sqlast.DoStmt:
		return e.execDo(st)

	// DQL
	case *sqlast.SelectStmt:
		return e.execSelectTop(st)
	case *sqlast.TableStmtNode:
		return e.execTableStmt(st)
	case *sqlast.ValuesStmtNode:
		return e.execValuesStmt(st)
	case *sqlast.WithStmt:
		return e.execWith(st)
	case *sqlast.ExplainStmt:
		return e.execExplain(st)
	case *sqlast.ShowStmt:
		return e.execShow(st)
	case *sqlast.DescribeStmt:
		return e.execDescribe(st)

	// DCL
	case *sqlast.GrantStmt:
		return e.execGrant(st)
	case *sqlast.SetRoleStmt:
		return e.execSetRole(st)

	// TCL
	case *sqlast.TxnStmt:
		return e.execTxn(st)
	case *sqlast.SetTransactionStmt:
		return e.execSetTransaction(st)
	case *sqlast.LockTableStmt:
		return e.execLockTable(st)

	// session
	case *sqlast.SetVarStmt:
		return e.execSetVar(st)
	case *sqlast.ResetVarStmt:
		return e.execResetVar(st)
	case *sqlast.PragmaStmt:
		return e.execPragma(st)
	case *sqlast.UseStmt:
		return e.execUse(st)
	case *sqlast.AnalyzeStmt:
		return e.execAnalyze(st)
	case *sqlast.VacuumStmt:
		return e.execVacuum(st)
	case *sqlast.MaintenanceStmt:
		return e.execMaintenance(st)
	case *sqlast.FlushStmt:
		return e.execFlush(st)
	case *sqlast.CheckpointStmt:
		return e.execCheckpoint(st)
	case *sqlast.DiscardStmt:
		return e.execDiscard(st)
	case *sqlast.PrepareStmt:
		return e.execPrepare(st)
	case *sqlast.ExecuteStmt:
		return e.execExecute(st)
	case *sqlast.DeallocateStmt:
		return e.execDeallocate(st)
	case *sqlast.DeclareCursorStmt:
		return e.execDeclareCursor(st)
	case *sqlast.FetchStmt:
		return e.execFetch(st)
	case *sqlast.CloseCursorStmt:
		return e.execCloseCursor(st)
	case *sqlast.ListenStmt:
		return e.execListen(st)
	case *sqlast.NotifyStmt:
		return e.execNotify(st)
	case *sqlast.UnlistenStmt:
		return e.execUnlisten(st)
	case *sqlast.ClusterStmt:
		return e.execCluster(st)

	default:
		return nil, errValue("unimplemented statement %T", s)
	}
}

// chargeStep charges one unit of evaluation work against the watchdog
// budget. Expression evaluation and per-row processing call it on their hot
// paths; once the per-statement budget is exhausted every further charge
// returns a SQL error, which unwinds the statement like any other execution
// error. A MaxStepsPerStmt <= 0 disables the watchdog.
func (e *Engine) chargeStep() error {
	if e.limits.MaxStepsPerStmt <= 0 {
		return nil
	}
	e.stepsUsed++
	if e.stepsUsed > e.limits.MaxStepsPerStmt {
		e.hit(pWatchdogTrip)
		return errValue("statement exceeded %d evaluation steps (watchdog)", e.limits.MaxStepsPerStmt)
	}
	return nil
}

// StmtProgress reports how many statements of the current (or last) test
// case have been entered, including one that panicked mid-execution. The
// harness uses it to account statements faithfully when containing an
// organic engine panic.
func (e *Engine) StmtProgress() int { return e.stmtIndex + 1 }

// lookTable resolves a table name, returning a SQL error when missing.
func (e *Engine) lookTable(name string) (*Table, error) {
	if t, ok := e.cat.Tables[name]; ok {
		return t, nil
	}
	return nil, errNamed("relation %q does not exist", name)
}

// checkPriv verifies the current role may perform priv on table. The default
// superuser (empty role) may do anything.
func (e *Engine) checkPriv(table, priv string) error {
	if e.sess.role == "" {
		return nil
	}
	e.hit(pAuthCheck)
	r, ok := e.cat.Roles[e.sess.role]
	if !ok {
		e.hit(pAuthDenied)
		return errNamed("role %q does not exist", e.sess.role)
	}
	if r.Privs[table]["ALL"] || r.Privs[table][priv] {
		return nil
	}
	e.hit(pAuthDenied)
	return errValue("permission denied for %q on %q", priv, table)
}

// inTxn reports whether an explicit transaction is open.
func (e *Engine) inTxn() bool { return len(e.txnStack) > 0 }

// TypeWindow exposes the recent statement-type window (used by tests and by
// the hazard engine).
func (e *Engine) TypeWindow() []sqlt.Type { return e.typeWindow }
