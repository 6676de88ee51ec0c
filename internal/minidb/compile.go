package minidb

// Compiled expression programs (DESIGN.md §9): a one-pass compiler lowers a
// sqlast.Expr into a closure program whose column references are resolved at
// compile time to positional slots in the row being scanned, eliminating
// per-row tree dispatch and per-column map hashing. A program reads nothing
// but the expression and the layout, so programs are cached per engine by
// (expression shape, layout signature) — see plan_cache.go — and the mutate
// loop, triage replays, and checkpoint resumes skip compilation entirely.
//
// The coverage-equivalence contract: a compiled program must perform exactly
// the same depth checks, watchdog charges, and coverage probes, in exactly
// the same order, as Engine.eval would for the same expression. Coverage
// feeds seed scheduling, so any divergence changes whole campaigns. Each
// compile case below mirrors its eval case line for line; nodes the compiler
// does not understand (subqueries, function calls, stars in value position)
// are lowered to a fallback that re-enters the interpreter on the bound node,
// which by construction behaves identically.

import (
	"math"
	"strings"

	"github.com/seqfuzz/lego/internal/sqlast"
)

// frame describes one slot frame a program can resolve columns against: the
// unqualified and qualified binding keys per slot, plus the duplicate-name
// resolution direction of the scope map it mirrors (scopeRowInto builds its
// map right-to-left so the leftmost duplicate wins; rowScope and sortRows'
// output map build forward so the last duplicate wins).
type frame struct {
	keys     []string // unqualified key per slot (always present)
	qkeys    []string // qualified key per slot ("" = none); nil = no quals
	lastWins bool     // duplicate resolution direction
}

// slotFor resolves key against the frame, honoring the duplicate direction.
// Returns -1 when the frame does not bind the key.
func (f *frame) slotFor(key string) int {
	if f.lastWins {
		for c := len(f.keys) - 1; c >= 0; c-- {
			if f.keys[c] == key || (f.qkeys != nil && f.qkeys[c] == key) {
				return c
			}
		}
		return -1
	}
	for c := range f.keys {
		if f.keys[c] == key || (f.qkeys != nil && f.qkeys[c] == key) {
			return c
		}
	}
	return -1
}

// layout is the compile-time view of the scopes a program runs under: up to
// two slot frames (innermost first), with anything unresolved falling through
// to the machine's dynamic outer scope chain at run time.
type layout struct {
	frames []frame
}

// resolve returns (frameIdx, slot) for key, or (-1, -1).
func (l *layout) resolve(key string) (int, int) {
	for fi := range l.frames {
		if s := l.frames[fi].slotFor(key); s >= 0 {
			return fi, s
		}
	}
	return -1, -1
}

// equal reports whether two layouts bind identically — the full verification
// run on every cache hit so a hash collision can never misresolve a slot.
func (l *layout) equal(o *layout) bool {
	if len(l.frames) != len(o.frames) {
		return false
	}
	for i := range l.frames {
		a, b := &l.frames[i], &o.frames[i]
		if a.lastWins != b.lastWins || len(a.keys) != len(b.keys) {
			return false
		}
		if (a.qkeys == nil) != (b.qkeys == nil) {
			return false
		}
		for c := range a.keys {
			if a.keys[c] != b.keys[c] {
				return false
			}
			if a.qkeys != nil && a.qkeys[c] != b.qkeys[c] {
				return false
			}
		}
	}
	return true
}

// tableLayout returns the layout mirroring Engine.rowScope(t, row): name and
// "table.name" per column, last duplicate winning. It comes from the shared
// column-metadata cache (colmeta.go), which re-validates it against t's
// current name and columns on every call, so ALTER and RENAME never leave a
// stale layout behind. Its slices are shared and read-only.
func (e *Engine) tableLayout(t *Table) layout {
	return e.tableMeta(t).tabLay
}

// prog is one compiled expression node: the run-time equivalent of
// e.eval(node, scope, depth) against the machine's bound rows.
type prog func(m *machine, depth int) (Value, error)

// program is a compiled expression with its binding requirements and the
// layout it was compiled against (kept for cache-hit verification).
type program struct {
	code   prog
	lay    layout
	nlits  int
	nfalls int
}

// machine is the per-statement execution state a program runs against. The
// relation row IS the slot array: binding a row is two pointer writes.
type machine struct {
	e       *Engine
	rowA    []Value       // frame 0 row
	rowB    []Value       // frame 1 row (sortRows' source relation)
	outer   *scope        // dynamic scope chain for compile-time-unresolved names
	lits    []Value       // literal slots, rebound per statement by bind
	falls   []sqlast.Expr // fallback nodes, rebound per statement by bind
	winVals map[*sqlast.FuncCall]Value
	lay     *layout
	fbScope *scope // lazily built interpreter-equivalent scope for fallbacks
	fbValid bool   // fbScope reflects the current rows
}

// bind walks x in the exact preorder the compiler used, filling the literal
// and fallback slots for this statement execution. It must never descend
// into a fallback node's subtree (the compiler did not).
func (m *machine) bind(x sqlast.Expr) {
	switch v := x.(type) {
	case *sqlast.Literal:
		m.lits = append(m.lits, litValue(v))
	case *sqlast.ColRef, *sqlast.Star:
		// no slots
	case *sqlast.Unary:
		m.bind(v.X)
	case *sqlast.Binary:
		m.bind(v.L)
		m.bind(v.R)
	case *sqlast.IsNullExpr:
		m.bind(v.X)
	case *sqlast.LikeExpr:
		m.bind(v.X)
		m.bind(v.Pattern)
	case *sqlast.BetweenExpr:
		m.bind(v.X)
		m.bind(v.Lo)
		m.bind(v.Hi)
	case *sqlast.InExpr:
		if v.Query != nil {
			m.falls = append(m.falls, v)
			return
		}
		m.bind(v.X)
		for _, le := range v.List {
			m.bind(le)
		}
	case *sqlast.CaseExpr:
		if v.Operand != nil {
			m.bind(v.Operand)
		}
		for i := range v.Whens {
			m.bind(v.Whens[i].Cond)
			m.bind(v.Whens[i].Result)
		}
		if v.Else != nil {
			m.bind(v.Else)
		}
	case *sqlast.CastExpr:
		m.bind(v.X)
	default:
		// Subquery, ExistsExpr, FuncCall, unknown: interpreter fallback.
		m.falls = append(m.falls, x)
	}
}

// litValue converts a literal node exactly as eval's Literal case does.
func litValue(v *sqlast.Literal) Value {
	switch v.Kind {
	case sqlast.LitNull:
		return Null()
	case sqlast.LitInt:
		return Int(v.Int)
	case sqlast.LitFloat:
		return Float(v.Float)
	case sqlast.LitString:
		return Text(v.Str)
	default:
		return Bool(v.Bool)
	}
}

// bindRow points frame 0 at row and invalidates the fallback scope. It also
// replicates scopeRowInto's full-width access pattern: the interpreter binds
// every column of the relation, so a row shorter than the frame panics there
// with an index error — the compiled path must fail identically rather than
// silently succeed on a low slot.
//
//lego:hotpath
func (m *machine) bindRow(row []Value) {
	if n := len(m.lay.frames[0].keys); n > 0 {
		_ = row[n-1]
	}
	m.rowA = row
	m.fbValid = false
}

// fallbackScope lazily builds (then per-row rebinds) the scope chain an
// interpreter evaluation would have seen, so fallback nodes evaluate under
// identical name resolution. The maps are allocated once per machine and
// overwritten per row, like scopeRowInto's reuse.
func (m *machine) fallbackScope() *scope {
	if m.fbValid {
		return m.fbScope
	}
	if m.fbScope == nil {
		parent := m.outer
		if len(m.lay.frames) > 1 {
			f1 := &m.lay.frames[1]
			parent = &scope{row: make(map[string]Value, 2*len(f1.keys)), parent: m.outer}
		}
		f0 := &m.lay.frames[0]
		m.fbScope = &scope{row: make(map[string]Value, 2*len(f0.keys)), parent: parent}
	}
	bindFrame(m.fbScope.row, &m.lay.frames[0], m.rowA)
	if len(m.lay.frames) > 1 {
		bindFrame(m.fbScope.parent.row, &m.lay.frames[1], m.rowB)
	}
	m.fbScope.winVals = m.winVals
	m.fbValid = true
	return m.fbScope
}

// bindFrame writes one frame's bindings into a scope map, in the same write
// order as the scope builder it mirrors (direction decides duplicate wins).
func bindFrame(dst map[string]Value, f *frame, row []Value) {
	n := len(f.keys)
	if len(row) < n {
		n = len(row)
	}
	if f.lastWins {
		for c := 0; c < n; c++ {
			dst[f.keys[c]] = row[c]
			if f.qkeys != nil && f.qkeys[c] != "" {
				dst[f.qkeys[c]] = row[c]
			}
		}
		return
	}
	for c := n - 1; c >= 0; c-- {
		dst[f.keys[c]] = row[c]
		if f.qkeys != nil && f.qkeys[c] != "" {
			dst[f.qkeys[c]] = row[c]
		}
	}
}

// compiler is the one-pass lowering state.
type compiler struct {
	e      *Engine
	lay    *layout
	nlits  int
	nfalls int
}

// compileProgram lowers x against lay.
func compileProgram(e *Engine, x sqlast.Expr, lay layout) *program {
	c := &compiler{e: e, lay: &lay}
	code := c.compile(x)
	return &program{code: code, lay: lay, nlits: c.nlits, nfalls: c.nfalls}
}

// compile lowers one node. Except for fallback nodes (which delegate to eval,
// and eval performs its own prologue), every program starts with the depth
// check and watchdog charge in eval's order.
func (c *compiler) compile(x sqlast.Expr) prog {
	switch v := x.(type) {
	case *sqlast.Literal, *sqlast.ColRef, *sqlast.Star, *sqlast.Unary,
		*sqlast.Binary, *sqlast.IsNullExpr, *sqlast.LikeExpr,
		*sqlast.BetweenExpr, *sqlast.CaseExpr, *sqlast.CastExpr:
		body := c.compileBody(x)
		return func(m *machine, depth int) (Value, error) {
			if depth > maxEvalDepth {
				return Null(), errExprTooDeep
			}
			if err := m.e.chargeStep(); err != nil {
				return Null(), err
			}
			return body(m, depth)
		}
	case *sqlast.InExpr:
		if v.Query == nil {
			body := c.compileBody(x)
			return func(m *machine, depth int) (Value, error) {
				if depth > maxEvalDepth {
					return Null(), errExprTooDeep
				}
				if err := m.e.chargeStep(); err != nil {
					return Null(), err
				}
				return body(m, depth)
			}
		}
		return c.fallback()
	default:
		// Subquery, ExistsExpr, FuncCall, unknown node types.
		return c.fallback()
	}
}

// fallback lowers a node to an interpreter re-entry on the bound instance.
// eval performs the depth check, charge, and the node's own probes, so the
// fallback passes depth through unchanged.
func (c *compiler) fallback() prog {
	k := c.nfalls
	c.nfalls++
	return func(m *machine, depth int) (Value, error) {
		return m.e.eval(m.falls[k], m.fallbackScope(), depth)
	}
}

// compileBody lowers the post-prologue behavior of one node, mirroring the
// matching eval case exactly (probes included).
func (c *compiler) compileBody(x sqlast.Expr) prog {
	switch v := x.(type) {
	case *sqlast.Literal:
		k := c.nlits
		c.nlits++
		return func(m *machine, _ int) (Value, error) {
			return m.lits[k], nil
		}

	case *sqlast.ColRef:
		return c.compileColRef(v)

	case *sqlast.Star:
		return func(m *machine, _ int) (Value, error) {
			return Null(), errStarInValue
		}

	case *sqlast.Unary:
		child := c.compile(v.X)
		switch v.Op {
		case "-":
			return func(m *machine, depth int) (Value, error) {
				val, err := child(m, depth+1)
				if err != nil {
					return Null(), err
				}
				switch val.K {
				case KInt:
					return Int(-val.I), nil
				case KFloat:
					return Float(-val.F), nil
				case KNull:
					return Null(), nil
				default:
					if f, ok := val.numeric(); ok {
						return Float(-f), nil
					}
					return Null(), errNamed("cannot negate %s", val.String())
				}
			}
		case "NOT":
			return func(m *machine, depth int) (Value, error) {
				val, err := child(m, depth+1)
				if err != nil {
					return Null(), err
				}
				if val.IsNull() {
					return Null(), nil
				}
				return Bool(!val.Truthy()), nil
			}
		default:
			return func(m *machine, depth int) (Value, error) {
				return child(m, depth+1)
			}
		}

	case *sqlast.Binary:
		return c.compileBinary(v)

	case *sqlast.IsNullExpr:
		child := c.compile(v.X)
		not := v.Not
		return func(m *machine, depth int) (Value, error) {
			m.e.hit(pEvalIsNull)
			val, err := child(m, depth+1)
			if err != nil {
				return Null(), err
			}
			if not {
				return Bool(!val.IsNull()), nil
			}
			return Bool(val.IsNull()), nil
		}

	case *sqlast.LikeExpr:
		childX := c.compile(v.X)
		childP := c.compile(v.Pattern)
		not := v.Not
		return func(m *machine, depth int) (Value, error) {
			m.e.hit(pEvalLike)
			val, err := childX(m, depth+1)
			if err != nil {
				return Null(), err
			}
			pat, err := childP(m, depth+1)
			if err != nil {
				return Null(), err
			}
			if val.IsNull() || pat.IsNull() {
				return Null(), nil
			}
			mt := likeMatch(pat.String(), val.String())
			if not {
				mt = !mt
			}
			return Bool(mt), nil
		}

	case *sqlast.BetweenExpr:
		childX := c.compile(v.X)
		childLo := c.compile(v.Lo)
		childHi := c.compile(v.Hi)
		not := v.Not
		return func(m *machine, depth int) (Value, error) {
			m.e.hit(pEvalBetween)
			val, err := childX(m, depth+1)
			if err != nil {
				return Null(), err
			}
			lo, err := childLo(m, depth+1)
			if err != nil {
				return Null(), err
			}
			hi, err := childHi(m, depth+1)
			if err != nil {
				return Null(), err
			}
			if val.IsNull() || lo.IsNull() || hi.IsNull() {
				return Null(), nil
			}
			in := Compare(val, lo) >= 0 && Compare(val, hi) <= 0
			if not {
				in = !in
			}
			return Bool(in), nil
		}

	case *sqlast.InExpr:
		childX := c.compile(v.X)
		items := make([]prog, len(v.List))
		for i, le := range v.List {
			items[i] = c.compile(le)
		}
		not := v.Not
		return func(m *machine, depth int) (Value, error) {
			m.e.hit(pEvalIn)
			val, err := childX(m, depth+1)
			if err != nil {
				return Null(), err
			}
			cands := make([]Value, len(items))
			for i, it := range items {
				cv, err := it(m, depth+1)
				if err != nil {
					return Null(), err
				}
				cands[i] = cv
			}
			if val.IsNull() {
				return Null(), nil
			}
			sawNull := false
			for _, cv := range cands {
				if cv.IsNull() {
					sawNull = true
					continue
				}
				if Equal(val, cv) {
					if not {
						return Bool(false), nil
					}
					return Bool(true), nil
				}
			}
			if sawNull {
				return Null(), nil
			}
			return Bool(not), nil
		}

	case *sqlast.CaseExpr:
		return c.compileCase(v)

	case *sqlast.CastExpr:
		child := c.compile(v.X)
		typeName := v.TypeName
		return func(m *machine, depth int) (Value, error) {
			m.e.hit(pEvalCast)
			val, err := child(m, depth+1)
			if err != nil {
				return Null(), err
			}
			return CoerceToColumn(typeName, val), nil
		}

	default:
		panic("minidb: compileBody: unexpected node") //lego:allow panicdiscipline — unreachable: compile() routes every fallback node before compileBody
	}
}

// compileColRef resolves the reference at compile time when the layout binds
// it; otherwise the program searches the dynamic outer chain at run time,
// with eval's VALUE pseudo-column fallback replicated exactly.
func (c *compiler) compileColRef(v *sqlast.ColRef) prog {
	key := v.Name
	if v.Table != "" {
		key = v.Table + "." + v.Name
	}
	if fi, slot := c.lay.resolve(key); fi >= 0 {
		if fi == 0 {
			return func(m *machine, _ int) (Value, error) {
				m.e.hit(pEvalColRef)
				return m.rowA[slot], nil
			}
		}
		return func(m *machine, _ int) (Value, error) {
			m.e.hit(pEvalColRef)
			return m.rowB[slot], nil
		}
	}
	// Unresolved: eval would walk the whole chain for key (our frames miss
	// it by construction, leaving the outer chain), then retry the whole
	// chain for the exact key "VALUE" when the name folds to it.
	isValueName := strings.EqualFold(v.Name, "VALUE")
	vfi, vslot := -1, -1
	if isValueName {
		vfi, vslot = c.lay.resolve("VALUE")
	}
	return func(m *machine, _ int) (Value, error) {
		m.e.hit(pEvalColRef)
		if m.outer != nil {
			if val, ok := m.outer.lookup(key); ok {
				return val, nil
			}
		}
		if isValueName {
			switch vfi {
			case 0:
				return m.rowA[vslot], nil
			case 1:
				return m.rowB[vslot], nil
			}
			if m.outer != nil {
				if val, ok := m.outer.lookup("VALUE"); ok {
					return val, nil
				}
			}
		}
		return Null(), errNamed("column %q does not exist", key)
	}
}

// compileBinary mirrors evalBinary: short-circuit three-valued logic for
// AND/OR, then comparison, concatenation, and arithmetic with the integer
// fast path.
func (c *compiler) compileBinary(v *sqlast.Binary) prog {
	l := c.compile(v.L)
	r := c.compile(v.R)

	switch v.Op {
	case "AND":
		return func(m *machine, depth int) (Value, error) {
			m.e.hit(pEvalLogic)
			lv, err := l(m, depth+1)
			if err != nil {
				return Null(), err
			}
			if !lv.IsNull() && !lv.Truthy() {
				return Bool(false), nil
			}
			rv, err := r(m, depth+1)
			if err != nil {
				return Null(), err
			}
			if !rv.IsNull() && !rv.Truthy() {
				return Bool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			return Bool(true), nil
		}
	case "OR":
		return func(m *machine, depth int) (Value, error) {
			m.e.hit(pEvalLogic)
			lv, err := l(m, depth+1)
			if err != nil {
				return Null(), err
			}
			if !lv.IsNull() && lv.Truthy() {
				return Bool(true), nil
			}
			rv, err := r(m, depth+1)
			if err != nil {
				return Null(), err
			}
			if !rv.IsNull() && rv.Truthy() {
				return Bool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			return Bool(false), nil
		}

	case "=", "<>", "<", "<=", ">", ">=":
		var pred func(int) bool
		switch v.Op {
		case "=":
			pred = func(c int) bool { return c == 0 }
		case "<>":
			pred = func(c int) bool { return c != 0 }
		case "<":
			pred = func(c int) bool { return c < 0 }
		case "<=":
			pred = func(c int) bool { return c <= 0 }
		case ">":
			pred = func(c int) bool { return c > 0 }
		default:
			pred = func(c int) bool { return c >= 0 }
		}
		return func(m *machine, depth int) (Value, error) {
			lv, err := l(m, depth+1)
			if err != nil {
				return Null(), err
			}
			rv, err := r(m, depth+1)
			if err != nil {
				return Null(), err
			}
			m.e.hit(pEvalCompare)
			if lv.IsNull() || rv.IsNull() {
				m.e.hit(pEvalCompareNull)
				return Null(), nil
			}
			return Bool(pred(Compare(lv, rv))), nil
		}

	case "||":
		return func(m *machine, depth int) (Value, error) {
			lv, err := l(m, depth+1)
			if err != nil {
				return Null(), err
			}
			rv, err := r(m, depth+1)
			if err != nil {
				return Null(), err
			}
			m.e.hit(pEvalConcat)
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			return Text(lv.String() + rv.String()), nil
		}

	case "+", "-", "*", "/", "%":
		op := v.Op[0]
		opStr := v.Op
		return func(m *machine, depth int) (Value, error) {
			lv, err := l(m, depth+1)
			if err != nil {
				return Null(), err
			}
			rv, err := r(m, depth+1)
			if err != nil {
				return Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				m.e.hit(pEvalArithNull)
				return Null(), nil
			}
			if lv.K == KInt && rv.K == KInt {
				m.e.hit(pEvalArithInt)
				switch op {
				case '+':
					return Int(lv.I + rv.I), nil
				case '-':
					return Int(lv.I - rv.I), nil
				case '*':
					return Int(lv.I * rv.I), nil
				case '/':
					if rv.I == 0 {
						m.e.hit(pEvalDivZero)
						return Null(), errDivByZero
					}
					return Int(lv.I / rv.I), nil
				default:
					if rv.I == 0 {
						m.e.hit(pEvalDivZero)
						return Null(), errDivByZero
					}
					return Int(lv.I % rv.I), nil
				}
			}
			m.e.hit(pEvalArithFloat)
			fl, okL := lv.numeric()
			fr, okR := rv.numeric()
			if !okL || !okR {
				return Null(), errNamed("non-numeric operand for %s", opStr)
			}
			switch op {
			case '+':
				return Float(fl + fr), nil
			case '-':
				return Float(fl - fr), nil
			case '*':
				return Float(fl * fr), nil
			case '/':
				if fr == 0 {
					m.e.hit(pEvalDivZero)
					return Null(), errDivByZero
				}
				return Float(fl / fr), nil
			default:
				if fr == 0 {
					m.e.hit(pEvalDivZero)
					return Null(), errDivByZero
				}
				return Float(math.Mod(fl, fr)), nil
			}
		}

	default:
		// evalBinary evaluates both operands (probes and charges included)
		// before discovering the operator is unknown.
		opStr := v.Op
		return func(m *machine, depth int) (Value, error) {
			if _, err := l(m, depth+1); err != nil {
				return Null(), err
			}
			if _, err := r(m, depth+1); err != nil {
				return Null(), err
			}
			return Null(), errNamed("unknown operator %q", opStr)
		}
	}
}

// compileCase mirrors eval's CaseExpr case: operand form compares each WHEN
// against the operand; searched form takes the first truthy condition.
func (c *compiler) compileCase(v *sqlast.CaseExpr) prog {
	var operand prog
	if v.Operand != nil {
		operand = c.compile(v.Operand)
	}
	conds := make([]prog, len(v.Whens))
	results := make([]prog, len(v.Whens))
	for i := range v.Whens {
		conds[i] = c.compile(v.Whens[i].Cond)
		results[i] = c.compile(v.Whens[i].Result)
	}
	var elseP prog
	if v.Else != nil {
		elseP = c.compile(v.Else)
	}
	return func(m *machine, depth int) (Value, error) {
		m.e.hit(pEvalCase)
		if operand != nil {
			op, err := operand(m, depth+1)
			if err != nil {
				return Null(), err
			}
			for i := range conds {
				cv, err := conds[i](m, depth+1)
				if err != nil {
					return Null(), err
				}
				if !cv.IsNull() && !op.IsNull() && Equal(op, cv) {
					return results[i](m, depth+1)
				}
			}
		} else {
			for i := range conds {
				cv, err := conds[i](m, depth+1)
				if err != nil {
					return Null(), err
				}
				if cv.Truthy() {
					return results[i](m, depth+1)
				}
			}
		}
		if elseP != nil {
			m.e.hit(pEvalCaseElse)
			return elseP(m, depth+1)
		}
		return Null(), nil
	}
}
