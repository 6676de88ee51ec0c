package minidb

// Plan cache (DESIGN.md §9): compiled programs are cached per engine, keyed
// by (expression shape, layout signature) — everything a program reads.
//
// The shape hash abstracts literal values — `x = 1` and `x = 'a'` share one
// program whose literal slots the binder fills per execution — so the mutate
// loop's value mutants all hit the cache. Column names, operators, CAST
// target types, and structural arity are part of the shape because they are
// baked into the closures. Fallback nodes (subqueries, function calls)
// contribute only their tag: their program re-enters the interpreter on the
// node bound at execution time, so any two subqueries share it.
//
// The catalog is not part of the key: compileProgram reads nothing from it,
// and the only schema a program bakes in is its layout — the column names
// and qualified keys its slots resolve — which every hit verifies in full
// (layout.equal). An ALTER, rename or rollback that moves a column changes
// the layout the executor asks for, so the old program cannot be handed out
// for it; an unrelated CREATE TABLE changes nothing a program reads, so
// plans compiled before it still hit. The cache is derived state: it is
// never checkpointed, and a size cap clears it wholesale (deterministically)
// rather than evicting by recency.

import "github.com/seqfuzz/lego/internal/sqlast"

// fnv64 offset/prime constants; two independent streams give a 128-bit hash
// so shape collisions are out of reach for any campaign length.
const (
	fnvOffset1 = 14695981039346656037
	fnvOffset2 = 9650029242287828579 // alternate offset basis
	fnvPrime   = 1099511628211
)

// hash128 accumulates a 128-bit FNV-style hash: stream 1 is FNV-1a
// (xor-then-multiply), stream 2 FNV-1 (multiply-then-xor) from a different
// offset, making the two 64-bit halves effectively independent.
type hash128 struct {
	h1, h2 uint64
}

func newHash128() hash128 {
	return hash128{h1: fnvOffset1, h2: fnvOffset2}
}

func (h *hash128) byte(b byte) {
	h.h1 = (h.h1 ^ uint64(b)) * fnvPrime
	h.h2 = (h.h2 * fnvPrime) ^ uint64(b)
}

func (h *hash128) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0xff) // terminator so "ab"+"c" differs from "a"+"bc"
}

func (h *hash128) int(n int) {
	for i := 0; i < 4; i++ {
		h.byte(byte(n >> (8 * i)))
	}
}

// Shape tags, one per compiled form. InExpr splits by form because the list
// form compiles to a real program while the subquery form is a fallback.
const (
	tagLiteral byte = iota + 1
	tagColRef
	tagStar
	tagUnary
	tagBinary
	tagIsNull
	tagLike
	tagBetween
	tagInList
	tagInSubq
	tagCase
	tagCast
	tagSubquery
	tagExists
	tagFuncCall
	tagUnknown
)

// shapeHash folds x's compiled shape into h: node tags in preorder, plus
// every detail a program bakes in (column keys, operators, flags, CAST
// types, arity) — and nothing the binder supplies (literal values, fallback
// node internals).
func shapeHash(h *hash128, x sqlast.Expr) {
	switch v := x.(type) {
	case *sqlast.Literal:
		h.byte(tagLiteral)
	case *sqlast.ColRef:
		h.byte(tagColRef)
		h.str(v.Table)
		h.str(v.Name)
	case *sqlast.Star:
		h.byte(tagStar)
	case *sqlast.Unary:
		h.byte(tagUnary)
		h.str(v.Op)
		shapeHash(h, v.X)
	case *sqlast.Binary:
		h.byte(tagBinary)
		h.str(v.Op)
		shapeHash(h, v.L)
		shapeHash(h, v.R)
	case *sqlast.IsNullExpr:
		h.byte(tagIsNull)
		h.byte(boolByte(v.Not))
		shapeHash(h, v.X)
	case *sqlast.LikeExpr:
		h.byte(tagLike)
		h.byte(boolByte(v.Not))
		shapeHash(h, v.X)
		shapeHash(h, v.Pattern)
	case *sqlast.BetweenExpr:
		h.byte(tagBetween)
		h.byte(boolByte(v.Not))
		shapeHash(h, v.X)
		shapeHash(h, v.Lo)
		shapeHash(h, v.Hi)
	case *sqlast.InExpr:
		if v.Query != nil {
			h.byte(tagInSubq)
			return
		}
		h.byte(tagInList)
		h.byte(boolByte(v.Not))
		h.int(len(v.List))
		shapeHash(h, v.X)
		for _, le := range v.List {
			shapeHash(h, le)
		}
	case *sqlast.CaseExpr:
		h.byte(tagCase)
		h.byte(boolByte(v.Operand != nil))
		h.int(len(v.Whens))
		h.byte(boolByte(v.Else != nil))
		if v.Operand != nil {
			shapeHash(h, v.Operand)
		}
		for i := range v.Whens {
			shapeHash(h, v.Whens[i].Cond)
			shapeHash(h, v.Whens[i].Result)
		}
		if v.Else != nil {
			shapeHash(h, v.Else)
		}
	case *sqlast.CastExpr:
		h.byte(tagCast)
		h.str(v.TypeName)
		shapeHash(h, v.X)
	case *sqlast.Subquery:
		h.byte(tagSubquery)
	case *sqlast.ExistsExpr:
		h.byte(tagExists)
	case *sqlast.FuncCall:
		h.byte(tagFuncCall)
	default:
		h.byte(tagUnknown)
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// signature folds the layout into a 128-bit hash for the cache key; the full
// layout is still compared on every hit (layout.equal).
func (l *layout) signature() (uint64, uint64) {
	h := newHash128()
	h.int(len(l.frames))
	for i := range l.frames {
		f := &l.frames[i]
		h.byte(boolByte(f.lastWins))
		h.byte(boolByte(f.qkeys != nil))
		h.int(len(f.keys))
		for c := range f.keys {
			h.str(f.keys[c])
			if f.qkeys != nil {
				h.str(f.qkeys[c])
			}
		}
	}
	return h.h1, h.h2
}

// planKey is the full cache key.
type planKey struct {
	s1, s2 uint64 // expression shape
	l1, l2 uint64 // layout signature
}

// planCacheCap bounds the per-engine cache. Reaching it clears the whole map
// — deterministic, unlike recency eviction — and in practice a campaign's
// working set of (shape, layout) pairs is far smaller.
const planCacheCap = 4096

// planCache holds one engine's compiled programs and counters.
type planCache struct {
	m        map[planKey]*program
	hits     uint64
	misses   uint64
	compiles uint64
}

// PlanStats reports plan-cache effectiveness for one engine (or, summed,
// one campaign).
type PlanStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Compiles uint64 `json:"compiles"`
}

// Add accumulates other into s.
func (s *PlanStats) Add(o PlanStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Compiles += o.Compiles
}

// PlanStats returns the engine's plan-cache counters.
func (e *Engine) PlanStats() PlanStats {
	if e.plans == nil {
		return PlanStats{}
	}
	return PlanStats{Hits: e.plans.hits, Misses: e.plans.misses, Compiles: e.plans.compiles}
}

// compiledFor returns the program for x against lay, consulting the cache.
// A hit is verified against the full layout; a verified mismatch (a true
// 128-bit collision, or a layout collision) recompiles and overwrites.
func (e *Engine) compiledFor(x sqlast.Expr, lay layout) *program {
	if e.plans == nil {
		e.plans = &planCache{m: make(map[planKey]*program, 64)}
	}
	h := newHash128()
	shapeHash(&h, x)
	l1, l2 := lay.signature()
	key := planKey{s1: h.h1, s2: h.h2, l1: l1, l2: l2}
	if p, ok := e.plans.m[key]; ok && p.lay.equal(&lay) {
		e.plans.hits++
		return p
	}
	e.plans.misses++
	p := compileProgram(e, x, lay)
	e.plans.compiles++
	if len(e.plans.m) >= planCacheCap {
		e.plans.m = make(map[planKey]*program, 64)
	}
	e.plans.m[key] = p
	return p
}

// preparedEval compiles (or fetches) x against lay and returns the program
// with a machine bound for this statement execution: literal and fallback
// slots filled, dynamic outer chain attached. Callers bind rows per row via
// machine.bindRow and run p.code. The machine comes from the engine's
// machine arena, so it is valid only until the end of the top-level
// statement.
//
// It is the one place that reads Config.DisablePlanCache: with the cache
// off it returns a nil program and machine, and every caller evaluates
// through the interpreter wherever it holds no program.
func (e *Engine) preparedEval(x sqlast.Expr, lay layout, outer *scope) (*program, *machine) {
	if e.cfg.DisablePlanCache {
		return nil, nil
	}
	p := e.compiledFor(x, lay)
	m := e.machines.next()
	m.e, m.outer, m.lay = e, outer, &p.lay
	if cap(m.lits) < p.nlits {
		m.lits = make([]Value, 0, p.nlits)
	}
	if cap(m.falls) < p.nfalls {
		m.falls = make([]sqlast.Expr, 0, p.nfalls)
	}
	m.bind(x)
	return p, m
}

// machineBlock is the number of machines the arena allocates at a time.
const machineBlock = 32

// machineArena hands out the machines preparedEval binds, from
// engine-owned blocks, so binding a program costs no allocation in steady
// state. A machine never outlives the top-level statement that bound it:
// every caller keeps it in a local for one execution loop, and ExecStmt
// resets the arena when the statement ends, panics included. A full block
// is left to the machines still running from it and a new one started.
type machineArena struct {
	block []machine
	used  int
}

// next returns a zeroed machine whose literal and fallback slices are
// empty but keep the storage of earlier statements.
func (a *machineArena) next() *machine {
	if a.used == len(a.block) {
		a.block = make([]machine, machineBlock)
		a.used = 0
	}
	m := &a.block[a.used]
	a.used++
	return m
}

// reset zeroes every handed-out machine, dropping the rows, scopes and
// literal values it referenced, and rewinds the arena; only the backing
// arrays of the literal and fallback slices are kept for reuse.
func (a *machineArena) reset() {
	for i := range a.block[:a.used] {
		m := &a.block[i]
		clear(m.lits)
		clear(m.falls)
		*m = machine{lits: m.lits[:0], falls: m.falls[:0]}
	}
	a.used = 0
}

// boundProg is a compiled program with the machine bound for it.
type boundProg struct {
	p *program
	m *machine
}

// pushProgs reserves n program slots on the engine's scratch stack, above
// the slots of any enclosing query (a subquery evaluated mid-loop pushes
// above its caller's). The caller defers popProgs(mark).
func (e *Engine) pushProgs(n int) (slots []boundProg, mark int) {
	mark = len(e.progStack)
	e.progStack = append(e.progStack, make([]boundProg, n)...)
	return e.progStack[mark:len(e.progStack):len(e.progStack)], mark
}

// popProgs truncates the program stack back to mark, zeroing what it pops.
func (e *Engine) popProgs(mark int) {
	clear(e.progStack[mark:])
	e.progStack = e.progStack[:mark]
}
