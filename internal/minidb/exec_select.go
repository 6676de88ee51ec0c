package minidb

import (
	"sort"
	"strconv"
	"strings"

	"github.com/seqfuzz/lego/internal/sqlast"
)

// relation is an intermediate row set. Its columns are always shared
// column metadata (colmeta.go): names, per-column qualifiers, binding keys
// and the compile-time layout, all read-only.
type relation struct {
	*colMeta
	rows [][]Value
}

// scopeRow binds row i into a fresh scope, for callers that retain it.
func (r *relation) scopeRow(i int, parent *scope) *scope {
	return r.scopeRowInto(i, parent, &scope{})
}

// scopeRowInto binds row i into the caller-owned scratch scope, reusing its
// map across calls so a per-row loop allocates one map per query instead of
// one per row. Every row of a relation binds exactly the same key set, so
// overwriting without clearing is correct. Only loops that do NOT retain
// the scope (or its row map) past the enclosing eval call may use this;
// retaining sites (group buckets, window partitions' group rows) must stay
// on scopeRow.
//
//lego:hotpath
func (r *relation) scopeRowInto(i int, parent *scope, sc *scope) *scope {
	qk := r.qkeys
	if sc.row == nil {
		sc.row = make(map[string]Value, 2*len(r.cols))
	}
	for c := len(r.cols) - 1; c >= 0; c-- {
		// iterate right-to-left so the leftmost duplicate wins
		sc.row[r.cols[c]] = r.rows[i][c]
		if qk[c] != "" {
			sc.row[qk[c]] = r.rows[i][c]
		}
	}
	sc.parent = parent
	return sc
}

// execSelectTop handles SELECT as a top-level statement.
func (e *Engine) execSelectTop(q *sqlast.SelectStmt) (*Result, error) {
	e.hit(pExecSelect)
	rows, cols, err := e.execSelect(q, nil, 0)
	if err != nil {
		return nil, err
	}
	if q.Into != "" {
		e.hit(pExecSelectInto)
		return e.materializeInto(q.Into, cols, rows)
	}
	if len(rows) == 0 {
		e.hit(pExecEmptyRes)
	} else {
		e.hit(pExecRowsRes)
	}
	return e.newResult(Result{Cols: cols, Rows: rows}), nil
}

// materializeInto creates a new table from a result set (SELECT INTO).
func (e *Engine) materializeInto(name string, cols []string, rows [][]Value) (*Result, error) {
	if _, exists := e.cat.Tables[name]; exists {
		return nil, errNamed("relation %q already exists", name)
	}
	t := &Table{Name: name}
	for i, c := range cols {
		cn := c
		if cn == "" || cn == "*" {
			cn = "column" + itoaSmall(i+1)
		}
		t.Cols = append(t.Cols, Column{Name: cn, TypeName: "TEXT"})
	}
	t.Rows = rows
	e.cat.Tables[name] = t
	return e.newResult(Result{Affected: len(rows), Msg: "SELECT INTO"}), nil
}

func itoaSmall(n int) string { return strconv.Itoa(n) }

// execSelect runs a query and returns its rows and column names. outer is
// the enclosing scope for correlated subqueries.
func (e *Engine) execSelect(q *sqlast.SelectStmt, outer *scope, depth int) ([][]Value, []string, error) {
	if depth > e.limits.MaxRewriteDepth+maxEvalDepth {
		return nil, nil, errQueryTooDeep
	}

	// FROM
	var rel *relation
	if len(q.From) == 0 {
		e.hit(pPlanEmptyJointree)
		rel = e.replaceEmptyJointree()
	} else {
		r, err := e.fromRelation(q.From[0], outer, depth)
		if err != nil {
			return nil, nil, err
		}
		rel = r
		for _, f := range q.From[1:] {
			r2, err := e.fromRelation(f, outer, depth)
			if err != nil {
				return nil, nil, err
			}
			e.hit(pPlanJoinCross)
			rel = crossProduct(e.joinMeta(rel, r2), rel, r2, e.limits.MaxResultRows)
		}
	}

	// WHERE (with a token index-path decision for the planner component)
	if q.Where != nil {
		e.planFilterPath(q, rel)
		var filtered [][]Value
		p, m := e.preparedEval(q.Where, rel.relLay, outer)
		var rsc *scope // allocated at the first interpreted row
		for i := range rel.rows {
			if err := e.chargeStep(); err != nil {
				return nil, nil, err
			}
			var v Value
			var err error
			if p != nil {
				m.bindRow(rel.rows[i])
				v, err = p.code(m, depth+1)
			} else {
				if rsc == nil {
					rsc = new(scope)
				}
				v, err = e.eval(q.Where, rel.scopeRowInto(i, outer, rsc), depth+1)
			}
			if err != nil {
				return nil, nil, err
			}
			if v.Truthy() {
				filtered = append(filtered, rel.rows[i])
			}
		}
		rel = &relation{colMeta: rel.colMeta, rows: filtered}
	}

	// Grouping / aggregation
	grouped := len(q.GroupBy) > 0
	if !grouped {
		for _, it := range q.Items {
			if exprHasAggregate(it.X) {
				grouped = true
				break
			}
		}
		if q.Having != nil {
			grouped = true
		}
	}

	var outRows [][]Value
	var outCols []string

	if grouped {
		e.hit(pPlanGroup)
		rows, cols, err := e.execGrouped(q, rel, outer, depth)
		if err != nil {
			return nil, nil, err
		}
		outRows, outCols = rows, cols
	} else {
		rows, cols, err := e.execProjection(q, rel, outer, depth)
		if err != nil {
			return nil, nil, err
		}
		outRows, outCols = rows, cols
	}

	if q.Distinct {
		e.hit(pPlanDistinct)
		outRows = dedupRows(outRows)
	}

	// Set operation
	if q.Op != sqlast.SetNone && q.Right != nil {
		e.hit(pPlanSetOp)
		rRows, _, err := e.execSelect(q.Right, outer, depth+1)
		if err != nil {
			return nil, nil, err
		}
		outRows = applySetOp(q.Op, outRows, rRows)
	}

	// ORDER BY over the output rows. When output rows still correspond 1:1
	// to source rows (no grouping, DISTINCT, or set operation), order
	// expressions may also reference source columns that were projected
	// away — `SELECT v2 FROM t1 ORDER BY v1` (the paper's Figure 1 seed).
	if len(q.OrderBy) > 0 {
		e.hit(pPlanOrder)
		srcRel := rel
		if grouped || q.Distinct || q.Op != sqlast.SetNone || len(outRows) != len(rel.rows) {
			srcRel = nil
		}
		if err := e.sortRows(q, outRows, outCols, srcRel, outer, depth); err != nil {
			return nil, nil, err
		}
	}

	// LIMIT / OFFSET
	if q.Offset != nil {
		e.hit(pPlanOffset)
		n, err := e.evalInt(q.Offset, outer, depth)
		if err != nil {
			return nil, nil, err
		}
		if n < 0 {
			n = 0
		}
		if int(n) >= len(outRows) {
			outRows = nil
		} else {
			outRows = outRows[n:]
		}
	}
	if q.Limit != nil {
		e.hit(pPlanLimit)
		n, err := e.evalInt(q.Limit, outer, depth)
		if err != nil {
			return nil, nil, err
		}
		if n < 0 {
			n = 0
		}
		if int(n) < len(outRows) {
			outRows = outRows[:n]
		}
	}
	if len(outRows) > e.limits.MaxResultRows {
		outRows = outRows[:e.limits.MaxResultRows]
	}
	return outRows, outCols, nil
}

// planFilterPath records the planner's access-path decision (index vs scan)
// as coverage. An equality predicate on an indexed column takes the index
// path; ANALYZE'd tables take a statistics branch.
func (e *Engine) planFilterPath(q *sqlast.SelectStmt, rel *relation) {
	bt, ok := baseTableOf(q)
	if !ok {
		e.hit(pPlanScan)
		return
	}
	t, exists := e.cat.Tables[bt]
	if !exists {
		e.hit(pPlanScan)
		return
	}
	if t.analyzed {
		e.hit(pPlanStats)
	} else {
		e.hit(pPlanNoStats)
	}
	if len(t.Rows) == 0 {
		e.hit(pPlanEmptyTable)
	}
	col, isEq := eqPredicateColumn(q.Where)
	if !isEq {
		e.hit(pPlanScan)
		return
	}
	for _, ix := range e.cat.indexesFor(bt) {
		for _, c := range ix.Cols {
			if c == col {
				if ix.stale {
					e.hit(pPlanIndexStale)
				} else {
					e.hit(pPlanIndex)
				}
				return
			}
		}
	}
	e.hit(pPlanScan)
}

func baseTableOf(q *sqlast.SelectStmt) (string, bool) {
	if len(q.From) != 1 {
		return "", false
	}
	bt, ok := q.From[0].(*sqlast.BaseTable)
	if !ok {
		return "", false
	}
	return bt.Name, true
}

func eqPredicateColumn(w sqlast.Expr) (string, bool) {
	b, ok := w.(*sqlast.Binary)
	if !ok || b.Op != "=" {
		return "", false
	}
	if c, ok := b.L.(*sqlast.ColRef); ok {
		if _, isLit := b.R.(*sqlast.Literal); isLit {
			return c.Name, true
		}
	}
	if c, ok := b.R.(*sqlast.ColRef); ok {
		if _, isLit := b.L.(*sqlast.Literal); isLit {
			return c.Name, true
		}
	}
	return "", false
}

// execProjection projects the items over each row, handling stars and
// window functions.
func (e *Engine) execProjection(q *sqlast.SelectStmt, rel *relation, outer *scope, depth int) ([][]Value, []string, error) {
	cols := e.outputColumns(q.Items, rel)

	// Pre-compute window values if any item needs them.
	var winVals []map[*sqlast.FuncCall]Value
	hasWin := false
	for _, it := range q.Items {
		if exprHasWindow(it.X) {
			hasWin = true
			break
		}
	}
	if hasWin {
		e.hit(pPlanWindow)
		wv, err := e.computeWindows(q.Items, rel, outer, depth)
		if err != nil {
			return nil, nil, err
		}
		winVals = wv
	}

	out := make([][]Value, 0, len(rel.rows))
	if len(rel.rows) > 0 {
		// One program + machine per item: items bind independent literal and
		// fallback slots. Star items stay exec-side (both paths copy them
		// without evaluating, so there is nothing to compile).
		progs, mark := e.pushProgs(len(q.Items))
		defer e.popProgs(mark)
		compiled := true
		for k, it := range q.Items {
			if _, ok := it.X.(*sqlast.Star); ok {
				continue
			}
			progs[k].p, progs[k].m = e.preparedEval(it.X, rel.relLay, outer)
			compiled = compiled && progs[k].p != nil
		}
		var rsc *scope // allocated at the first interpreted row
		for i := range rel.rows {
			if err := e.chargeStep(); err != nil {
				return nil, nil, err
			}
			var row []Value
			if compiled {
				row = make([]Value, 0, len(q.Items))
				for k, it := range q.Items {
					if st, ok := it.X.(*sqlast.Star); ok {
						for c := range rel.cols {
							if st.Table != "" && rel.quals[c] != st.Table {
								continue
							}
							row = append(row, rel.rows[i][c])
						}
						continue
					}
					mk := progs[k].m
					mk.bindRow(rel.rows[i])
					if winVals != nil {
						mk.winVals = winVals[i]
					}
					v, err := progs[k].p.code(mk, depth+1)
					if err != nil {
						return nil, nil, err
					}
					row = append(row, v)
				}
			} else {
				if rsc == nil {
					rsc = new(scope)
				}
				sc := rel.scopeRowInto(i, outer, rsc)
				if winVals != nil {
					sc.winVals = winVals[i]
				}
				var err error
				if row, err = e.projectRow(q.Items, rel, i, sc, depth); err != nil {
					return nil, nil, err
				}
			}
			out = append(out, row)
			if len(out) > e.limits.MaxResultRows {
				break
			}
		}
	}
	// SELECT with no FROM still yields one row.
	if len(rel.rows) == 0 && len(q.From) == 0 {
		sc := &scope{row: map[string]Value{}, parent: outer}
		row, err := e.projectRow(q.Items, rel, -1, sc, depth)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, row)
	}
	return out, cols, nil
}

// projectRow evaluates the SELECT items for one row.
//
//lego:hotpath
func (e *Engine) projectRow(items []sqlast.SelectItem, rel *relation, rowIdx int, sc *scope, depth int) ([]Value, error) {
	row := make([]Value, 0, len(items))
	for _, it := range items {
		if st, ok := it.X.(*sqlast.Star); ok {
			for c := range rel.cols {
				if st.Table != "" && rel.quals[c] != st.Table {
					continue
				}
				if rowIdx >= 0 {
					row = append(row, rel.rows[rowIdx][c])
				}
			}
			continue
		}
		v, err := e.eval(it.X, sc, depth+1)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

// outputColumns derives result column names.
func (e *Engine) outputColumns(items []sqlast.SelectItem, rel *relation) []string {
	var cols []string
	for i, it := range items {
		if st, ok := it.X.(*sqlast.Star); ok {
			for c := range rel.cols {
				if st.Table != "" && rel.quals[c] != st.Table {
					continue
				}
				cols = append(cols, rel.cols[c])
			}
			continue
		}
		switch {
		case it.Alias != "":
			cols = append(cols, it.Alias)
		default:
			if cr, ok := it.X.(*sqlast.ColRef); ok {
				cols = append(cols, cr.Name)
			} else if fc, ok := it.X.(*sqlast.FuncCall); ok {
				cols = append(cols, strings.ToLower(fc.Name))
			} else {
				cols = append(cols, "column"+itoaSmall(i+1))
			}
		}
	}
	return cols
}

// execGrouped evaluates a grouped/aggregated query.
func (e *Engine) execGrouped(q *sqlast.SelectStmt, rel *relation, outer *scope, depth int) ([][]Value, []string, error) {
	cols := e.outputColumns(q.Items, rel)

	type groupBucket struct {
		firstRow map[string]Value
		rows     []map[string]Value
	}
	var order []string
	buckets := map[string]*groupBucket{}

	for i := range rel.rows {
		sc := rel.scopeRow(i, outer)
		key := ""
		if len(q.GroupBy) > 0 {
			var keys []Value
			for _, g := range q.GroupBy {
				// GROUP BY <ordinal> refers to a select item
				gx := g
				if lit, ok := g.(*sqlast.Literal); ok && lit.Kind == sqlast.LitInt &&
					lit.Int >= 1 && int(lit.Int) <= len(q.Items) {
					gx = q.Items[lit.Int-1].X
				}
				v, err := e.eval(gx, sc, depth+1)
				if err != nil {
					return nil, nil, err
				}
				keys = append(keys, v)
			}
			key = RowKey(keys)
		}
		b, ok := buckets[key]
		if !ok {
			b = &groupBucket{firstRow: sc.row}
			buckets[key] = b
			order = append(order, key)
		}
		b.rows = append(b.rows, sc.row)
	}
	// An aggregate over zero rows with no GROUP BY still yields one row;
	// rows must be non-nil so aggregates see an empty group rather than
	// the absence of a grouping context.
	if len(buckets) == 0 && len(q.GroupBy) == 0 {
		buckets[""] = &groupBucket{firstRow: map[string]Value{}, rows: []map[string]Value{}}
		order = append(order, "")
	}

	var out [][]Value
	for _, key := range order {
		b := buckets[key]
		gsc := &scope{row: b.firstRow, group: b.rows, parent: outer}
		if q.Having != nil {
			e.hit(pPlanHaving)
			hv, err := e.eval(q.Having, gsc, depth+1)
			if err != nil {
				return nil, nil, err
			}
			if !hv.Truthy() {
				continue
			}
		}
		var row []Value
		for _, it := range q.Items {
			if _, ok := it.X.(*sqlast.Star); ok {
				return nil, nil, errStarWithGroupBy
			}
			v, err := e.eval(it.X, gsc, depth+1)
			if err != nil {
				return nil, nil, err
			}
			row = append(row, v)
		}
		out = append(out, row)
	}
	return out, cols, nil
}

// computeWindows evaluates every windowed function call per input row.
func (e *Engine) computeWindows(items []sqlast.SelectItem, rel *relation, outer *scope, depth int) ([]map[*sqlast.FuncCall]Value, error) {
	out := make([]map[*sqlast.FuncCall]Value, len(rel.rows))
	for i := range out {
		out[i] = map[*sqlast.FuncCall]Value{}
	}
	var calls []*sqlast.FuncCall
	for _, it := range items {
		sqlast.WalkExpr(it.X, func(n sqlast.Expr) {
			if fc, ok := n.(*sqlast.FuncCall); ok && fc.Over != nil {
				calls = append(calls, fc)
			}
		})
	}
	for _, fc := range calls {
		if err := e.computeOneWindow(fc, rel, out, outer, depth); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (e *Engine) computeOneWindow(fc *sqlast.FuncCall, rel *relation, out []map[*sqlast.FuncCall]Value, outer *scope, depth int) error {
	// Partition- and order-key expressions run once per row (order keys
	// twice: the post-sort recompute reuses the same programs).
	nPart := len(fc.Over.PartitionBy)
	progs, mark := e.pushProgs(nPart + len(fc.Over.OrderBy))
	defer e.popProgs(mark)
	partProgs, obProgs := progs[:nPart], progs[nPart:]
	for k, pe := range fc.Over.PartitionBy {
		partProgs[k].p, partProgs[k].m = e.preparedEval(pe, rel.relLay, outer)
	}
	for k, ob := range fc.Over.OrderBy {
		obProgs[k].p, obProgs[k].m = e.preparedEval(ob.X, rel.relLay, outer)
	}
	// With no keys there is nothing to compile, and both paths do the same.
	compiled := len(progs) == 0 || progs[0].p != nil

	// Partition rows.
	parts := map[string][]int{}
	var partOrder []string
	var rsc scope
	for i := range rel.rows {
		var sc *scope
		if compiled {
			// Replicate scopeRowInto's full-width access pattern.
			if n := len(rel.cols); n > 0 {
				_ = rel.rows[i][n-1]
			}
		} else {
			sc = rel.scopeRowInto(i, outer, &rsc)
		}
		key := ""
		if len(fc.Over.PartitionBy) > 0 {
			var keys []Value
			if compiled {
				for _, pp := range partProgs {
					pp.m.bindRow(rel.rows[i])
					v, err := pp.p.code(pp.m, depth+1)
					if err != nil {
						return err
					}
					keys = append(keys, v)
				}
			} else {
				for _, pe := range fc.Over.PartitionBy {
					v, err := e.eval(pe, sc, depth+1)
					if err != nil {
						return err
					}
					keys = append(keys, v)
				}
			}
			key = RowKey(keys)
		}
		if _, ok := parts[key]; !ok {
			partOrder = append(partOrder, key)
		}
		parts[key] = append(parts[key], i)
	}

	// orderKeysFor fills keys[n] for row i, on whichever path is active.
	orderKeysFor := func(dst []Value, i int) ([]Value, error) {
		if compiled {
			if n := len(rel.cols); n > 0 {
				_ = rel.rows[i][n-1]
			}
			for _, op := range obProgs {
				op.m.bindRow(rel.rows[i])
				v, err := op.p.code(op.m, depth+1)
				if err != nil {
					return dst, err
				}
				dst = append(dst, v)
			}
			return dst, nil
		}
		sc := rel.scopeRowInto(i, outer, &rsc)
		for _, ob := range fc.Over.OrderBy {
			v, err := e.eval(ob.X, sc, depth+1)
			if err != nil {
				return dst, err
			}
			dst = append(dst, v)
		}
		return dst, nil
	}

	name := strings.ToUpper(fc.Name)
	for _, key := range partOrder {
		idxs := parts[key]
		// Order within the partition.
		if len(fc.Over.OrderBy) > 0 {
			keys := make([][]Value, len(idxs))
			for n, i := range idxs {
				ks, err := orderKeysFor(keys[n], i)
				if err != nil {
					return err
				}
				keys[n] = ks
			}
			sort.SliceStable(idxs, func(a, b int) bool {
				for k, ob := range fc.Over.OrderBy {
					c := Compare(keys[a][k], keys[b][k])
					if c != 0 {
						if ob.Desc {
							return c > 0
						}
						return c < 0
					}
				}
				return false
			})
			// keys moved with idxs only when we re-fetch; recompute keys
			// after the sort for rank ties.
			for n, i := range idxs {
				ks, err := orderKeysFor(keys[n][:0], i)
				if err != nil {
					return err
				}
				keys[n] = ks
			}
			switch name {
			case "RANK", "DENSE_RANK":
				rank, dense := 1, 1
				for n, i := range idxs {
					if n > 0 {
						same := true
						for k := range keys[n] {
							if Compare(keys[n][k], keys[n-1][k]) != 0 {
								same = false
								break
							}
						}
						if !same {
							rank = n + 1
							dense++
						}
					}
					if name == "RANK" {
						out[i][fc] = Int(int64(rank))
					} else {
						out[i][fc] = Int(int64(dense))
					}
				}
				continue
			}
		}

		switch name {
		case "ROW_NUMBER":
			for n, i := range idxs {
				out[i][fc] = Int(int64(n + 1))
			}
		case "RANK", "DENSE_RANK":
			// without ORDER BY every row ties at rank 1
			for _, i := range idxs {
				out[i][fc] = Int(1)
			}
		case "LEAD", "LAG":
			if len(fc.Args) < 1 {
				return errNamed("%s expects an argument", name)
			}
			off := 1
			for n, i := range idxs {
				src := n + off
				if name == "LAG" {
					src = n - off
				}
				if src < 0 || src >= len(idxs) {
					out[i][fc] = Null()
					continue
				}
				sc := rel.scopeRowInto(idxs[src], outer, &rsc)
				v, err := e.eval(fc.Args[0], sc, depth+1)
				if err != nil {
					return err
				}
				out[i][fc] = v
			}
		case "NTILE":
			n := len(idxs)
			buckets := 4
			if len(fc.Args) == 1 {
				sc := rel.scopeRow(idxs[0], outer)
				bv, err := e.eval(fc.Args[0], sc, depth+1)
				if err != nil {
					return err
				}
				if f, ok := bv.numeric(); ok && f >= 1 {
					buckets = int(f)
				}
			}
			for pos, i := range idxs {
				out[i][fc] = Int(int64(pos*buckets/n) + 1)
			}
		default:
			// aggregate OVER partition: whole-partition value
			if !IsAggregate(name) {
				return errNamed("unsupported window function %s", name)
			}
			var group []map[string]Value
			for _, i := range idxs {
				group = append(group, rel.scopeRow(i, outer).row)
			}
			gsc := &scope{row: map[string]Value{}, group: group, parent: outer}
			plain := *fc
			plain.Over = nil
			v, err := e.evalAggregate(&plain, gsc, depth+1)
			if err != nil {
				return err
			}
			for _, i := range idxs {
				out[i][fc] = v
			}
		}
	}
	return nil
}

// sortRows orders the result set in place. Order expressions may name
// output columns, ordinals, or — when srcRel is non-nil (output rows map
// 1:1 to source rows) — source columns that were projected away.
func (e *Engine) sortRows(q *sqlast.SelectStmt, rows [][]Value, cols []string, srcRel *relation, outer *scope, depth int) error {
	if len(rows) == 0 {
		return nil
	}
	// Compiled programs see frame 0 as the output row (names bound forward,
	// so the last duplicate wins, matching the map below) and frame 1 as the
	// source relation when order expressions may reach projected-away
	// columns.
	lay := layout{frames: append(make([]frame, 0, 2), frame{keys: cols, lastWins: true})}
	if srcRel != nil {
		lay.frames = append(lay.frames, srcRel.relLay.frames[0])
	}
	progs, mark := e.pushProgs(len(q.OrderBy))
	defer e.popProgs(mark)
	for k, ob := range q.OrderBy {
		progs[k].p, progs[k].m = e.preparedEval(ob.X, lay, outer)
	}
	compiled := progs[0].p != nil
	// The interpreter binds each row into one output-column map and one
	// source scope that serve the whole loop: rows of one result set share
	// a length and column set, so overwriting is safe; a length change
	// (set-op arity mismatch) forces a fresh map so no stale key from a
	// longer row survives. Rows shorter than the column list bind fewer
	// names than the layout promises, so they take the interpreter even
	// when compiled — observationally identical, since the map never
	// carries stale keys across rows of one length.
	keys := make([][]Value, len(rows))
	var m map[string]Value
	var psc, ssc *scope // allocated at the first interpreted row
	lastLen := -1
	for i, row := range rows {
		interp := !compiled || len(row) < len(cols)
		var sc *scope
		if interp {
			if ssc == nil {
				psc, ssc = new(scope), new(scope)
			}
			if m == nil || len(row) != lastLen {
				m = make(map[string]Value, len(cols))
				lastLen = len(row)
			}
			for c, name := range cols {
				if c < len(row) {
					m[name] = row[c]
				}
			}
			parent := outer
			if srcRel != nil {
				parent = srcRel.scopeRowInto(i, outer, psc)
			}
			ssc.row = m
			ssc.parent = parent
			sc = ssc
		} else if srcRel != nil {
			// Replicate scopeRowInto's full-width access on the source row
			// before any key evaluation.
			if n := len(srcRel.cols); n > 0 {
				_ = srcRel.rows[i][n-1]
			}
		}
		for k, ob := range q.OrderBy {
			ox := ob.X
			if lit, ok := ox.(*sqlast.Literal); ok && lit.Kind == sqlast.LitInt &&
				lit.Int >= 1 && int(lit.Int) <= len(row) {
				keys[i] = append(keys[i], row[lit.Int-1])
				continue
			}
			var v Value
			var err error
			if interp {
				v, err = e.eval(ox, sc, depth+1)
			} else {
				mk := progs[k].m
				mk.bindRow(row)
				if srcRel != nil {
					mk.rowB = srcRel.rows[i]
				}
				v, err = progs[k].p.code(mk, depth+1)
			}
			if err != nil {
				// fall back to NULL key: ORDER BY on a source column that was
				// projected away sorts as NULL, a common lenient behaviour
				v = Null()
			}
			keys[i] = append(keys[i], v)
		}
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for k, ob := range q.OrderBy {
			c := Compare(keys[idx[a]][k], keys[idx[b]][k])
			if c != 0 {
				if ob.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	sorted := make([][]Value, len(rows))
	for n, i := range idx {
		sorted[n] = rows[i]
	}
	copy(rows, sorted)
	return nil
}

func (e *Engine) evalInt(x sqlast.Expr, outer *scope, depth int) (int64, error) {
	v, err := e.eval(x, &scope{row: map[string]Value{}, parent: outer}, depth+1)
	if err != nil {
		return 0, err
	}
	f, ok := v.numeric()
	if !ok {
		return 0, errExpectedInteger
	}
	return int64(f), nil
}

func dedupRows(rows [][]Value) [][]Value {
	seen := map[string]bool{}
	var out [][]Value
	for _, r := range rows {
		k := RowKey(r)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

func applySetOp(op sqlast.SetOp, left, right [][]Value) [][]Value {
	switch op {
	case sqlast.SetUnionAll:
		return append(left, right...)
	case sqlast.SetUnion:
		return dedupRows(append(left, right...))
	case sqlast.SetExcept:
		rset := map[string]bool{}
		for _, r := range right {
			rset[RowKey(r)] = true
		}
		var out [][]Value
		for _, l := range dedupRows(left) {
			if !rset[RowKey(l)] {
				out = append(out, l)
			}
		}
		return out
	case sqlast.SetIntersect:
		rset := map[string]bool{}
		for _, r := range right {
			rset[RowKey(r)] = true
		}
		var out [][]Value
		for _, l := range dedupRows(left) {
			if rset[RowKey(l)] {
				out = append(out, l)
			}
		}
		return out
	default:
		return left
	}
}

// crossProduct pairs every row of a with every row of b; m is the metadata
// of a's columns followed by b's (Engine.joinMeta).
func crossProduct(m *colMeta, a, b *relation, maxRows int) *relation {
	out := &relation{colMeta: m}
	if n := len(a.rows) * len(b.rows); n > 0 {
		if n > maxRows {
			n = maxRows
		}
		out.rows = make([][]Value, 0, n)
	}
	for _, ra := range a.rows {
		for _, rb := range b.rows {
			row := append(append([]Value{}, ra...), rb...)
			out.rows = append(out.rows, row)
			if len(out.rows) >= maxRows {
				return out
			}
		}
	}
	return out
}

// fromRelation materializes one FROM-clause source.
func (e *Engine) fromRelation(ref sqlast.TableRef, outer *scope, depth int) (*relation, error) {
	switch r := ref.(type) {
	case *sqlast.BaseTable:
		cols, rows, err := e.resolveNamedRelation(r.Name, outer, depth)
		if err != nil {
			return nil, err
		}
		q := r.Name
		if r.Alias != "" {
			q = r.Alias
		}
		return &relation{colMeta: e.relMeta(q, cols), rows: rows}, nil

	case *sqlast.SubqueryRef:
		e.hit(pPlanSubquery)
		rows, cols, err := e.execSelect(r.Query, outer, depth+1)
		if err != nil {
			return nil, err
		}
		return &relation{colMeta: e.relMeta(r.Alias, cols), rows: rows}, nil

	case *sqlast.JoinRef:
		left, err := e.fromRelation(r.L, outer, depth)
		if err != nil {
			return nil, err
		}
		right, err := e.fromRelation(r.R, outer, depth)
		if err != nil {
			return nil, err
		}
		return e.joinRelations(r, left, right, outer, depth)

	default:
		return nil, errValue("unsupported FROM element %T", ref)
	}
}

// resolveNamedRelation resolves a name against CTEs, views, then tables,
// returning the relation's column names and rows. A table's names are its
// shared column metadata (colmeta.go): callers must not write through them
// or hand them out without a copy.
func (e *Engine) resolveNamedRelation(name string, outer *scope, depth int) ([]string, [][]Value, error) {
	// CTE scope (innermost wins)
	for i := len(e.cteFrames) - 1; i >= 0; i-- {
		if rel, ok := e.cteFrames[i][name]; ok {
			e.hit(pRewriteCTE)
			return rel.cols, rel.rows, nil
		}
	}
	if v, ok := e.cat.Views[name]; ok {
		if v.Materialized {
			e.hit(pPlanMatView)
			cols := v.MatCols
			if len(v.Cols) > 0 {
				cols = v.Cols
			}
			return cols, v.MatRows, nil
		}
		e.hit(pPlanView)
		if depth > e.limits.MaxRewriteDepth {
			return nil, nil, errViewTooDeep
		}
		rows, cols, err := e.execSelect(v.Query, outer, depth+1)
		if err != nil {
			return nil, nil, err
		}
		// execSelect's column names are the query's own, fresh per
		// execution, so the view's column list may rename them in place.
		if len(v.Cols) > 0 {
			for i := range cols {
				if i < len(v.Cols) {
					cols[i] = v.Cols[i]
				}
			}
		}
		return cols, rows, nil
	}
	t, err := e.lookTable(name)
	if err != nil {
		return nil, nil, err
	}
	if err := e.checkPriv(name, "SELECT"); err != nil {
		return nil, nil, err
	}
	return e.tableMeta(t).cols, t.Rows, nil
}

// joinScratch is one join's reusable probe state: the left ⧺ right pair
// row being matched and, for the interpreter, a one-row relation over it and
// the scope it binds into. Engine.joins keeps one per nesting level — a join
// inside an ON subquery runs one level above its caller — so every join at
// a level reuses the same storage.
type joinScratch struct {
	pair  []Value
	row   [1][]Value
	probe relation
	sc    scope
}

// pushJoin returns the next level's join scratch with its probe relation
// over m; the caller defers popJoin.
func (e *Engine) pushJoin(m *colMeta) *joinScratch {
	if e.joinDepth == len(e.joins) {
		e.joins = append(e.joins, &joinScratch{})
	}
	js := e.joins[e.joinDepth]
	e.joinDepth++
	js.probe = relation{colMeta: m, rows: js.row[:]}
	return js
}

// popJoin releases the innermost join scratch, zeroing the values, rows and
// scope bindings it held but keeping its storage.
func (e *Engine) popJoin() {
	e.joinDepth--
	js := e.joins[e.joinDepth]
	clear(js.pair[:cap(js.pair)])
	js.pair = js.pair[:0]
	js.row[0] = nil
	js.probe = relation{}
	clear(js.sc.row)
	js.sc.parent = nil
}

func (e *Engine) joinRelations(j *sqlast.JoinRef, left, right *relation, outer *scope, depth int) (*relation, error) {
	out := &relation{colMeta: e.joinMeta(left, right)}
	switch j.Kind {
	case sqlast.JoinCross:
		e.hit(pPlanJoinCross)
		return crossProduct(out.colMeta, left, right, e.limits.MaxResultRows), nil
	case sqlast.JoinLeft:
		e.hit(pPlanJoinLeft)
	case sqlast.JoinRight:
		e.hit(pPlanJoinRight)
	default:
		e.hit(pPlanJoinNested)
	}

	// pairBudget bounds nested-loop work so a single pathological join
	// cannot stall fuzzing (paper challenge C3). Real servers spend the
	// time; a fuzzing harness must not.
	pairBudget := 20000
	// The pair row, probe relation, and scope map come from the join scratch
	// stack and are rebound per pair: only matched pairs materialize a fresh
	// row into out.rows, so the ON evaluation runs allocation-free across
	// the up to 20000 probed pairs.
	js := e.pushJoin(out.colMeta)
	defer e.popJoin()
	onProg, onMach := e.preparedEval(j.On, out.relLay, outer)
	matchRow := func(lrow, rrow []Value) (bool, error) {
		pairBudget--
		js.pair = append(append(js.pair[:0], lrow...), rrow...)
		var v Value
		var err error
		if onProg != nil {
			onMach.bindRow(js.pair)
			v, err = onProg.code(onMach, depth+1)
		} else {
			js.row[0] = js.pair
			sc := js.probe.scopeRowInto(0, outer, &js.sc)
			v, err = e.eval(j.On, sc, depth+1)
		}
		if err != nil {
			return false, err
		}
		return v.Truthy(), nil
	}

	nullsFor := func(n int) []Value {
		vs := make([]Value, n)
		for i := range vs {
			vs[i] = Null()
		}
		return vs
	}

	switch j.Kind {
	case sqlast.JoinRight:
		for _, rrow := range right.rows {
			matched := false
			for _, lrow := range left.rows {
				ok, err := matchRow(lrow, rrow)
				if err != nil {
					return nil, err
				}
				if ok {
					matched = true
					out.rows = append(out.rows, append(append([]Value{}, lrow...), rrow...))
				}
				if len(out.rows) >= e.limits.MaxResultRows || pairBudget <= 0 {
					return out, nil
				}
			}
			if !matched {
				out.rows = append(out.rows, append(nullsFor(len(left.cols)), rrow...))
			}
		}
	default:
		for _, lrow := range left.rows {
			matched := false
			for _, rrow := range right.rows {
				ok, err := matchRow(lrow, rrow)
				if err != nil {
					return nil, err
				}
				if ok {
					matched = true
					out.rows = append(out.rows, append(append([]Value{}, lrow...), rrow...))
				}
				if len(out.rows) >= e.limits.MaxResultRows || pairBudget <= 0 {
					return out, nil
				}
			}
			if !matched && j.Kind == sqlast.JoinLeft {
				out.rows = append(out.rows, append(append([]Value{}, lrow...), nullsFor(len(right.cols))...))
			}
		}
	}
	return out, nil
}
