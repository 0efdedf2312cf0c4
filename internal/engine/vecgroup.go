package engine

import (
	"bytes"
	"context"
	"strings"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// Vectorized grouped aggregation: groups are assigned straight from the
// typed key vectors (groupTable) and accumulators are fed streaming, batch by
// batch, unboxed where the argument vector is typed (feed), so the input is
// never materialized as rows. The row path (group.go) materializes every
// group's rows and re-walks them once per aggregate call; here each input
// value is touched exactly once, and only group representatives are ever
// pivoted to row form.
//
// The path declines (ok=false) whenever faithfulness would need per-row
// expression evaluation: GROUP BY expressions or aggregate arguments that
// are not plain column references fall back to the row path, which remains
// the semantic reference. HAVING and the select list run per *group* and may
// be arbitrary expressions — group counts are small, so those stay on the
// shared row-at-a-time evaluator (evalExpr over the group representative).

// vecAgg is one compiled aggregate call: the accumulator factory input plus
// the load-layout positions of its (plain column) arguments.
type vecAgg struct {
	call *sqlparser.FuncCall
	args []int // nil for COUNT(*)
	// num: the call's accumulator is a numAcc over its one argument, so a
	// typed Ints/Floats vector feeds it unboxed. DISTINCT calls and the
	// two-argument regression family only take boxed tuples.
	num bool
	// count: COUNT(x), which reads nothing but the NULL mask and so takes a
	// typed vector of any type.
	count bool
}

// vecGroupPlan is a compiled vectorized grouped block.
type vecGroupPlan struct {
	scan  *vecScanPlan
	gcols []int // GROUP BY positions in the load layout
	aggs  []vecAgg
	calls []*sqlparser.FuncCall
	orel  *schema.Relation
}

// vecGroup is one group under construction: its representative row (pivoted
// once, on first sight) and one accumulator per aggregate call. num[i] is
// accs[i] again under its unboxed interface, nil where the call has none.
type vecGroup struct {
	rep  schema.Row
	accs []accumulator
	num  []numAcc
}

// compileVecGrouped validates the block shape on top of an already compiled
// scan. It reuses groupSpecCompile — the single owner of grouped-block
// validation and output-schema construction — against the load-layout
// binding, which covers every column the block reads.
func compileVecGrouped(p *vecScanPlan, blk *plan.Block) (*vecGroupPlan, bool) {
	calls, orel, err := groupSpecCompile(blk, p.lb)
	if err != nil {
		return nil, false // row path reports the validation error
	}
	g := &vecGroupPlan{scan: p, calls: calls, orel: orel}

	colAt := func(ex sqlparser.Expr) (int, bool) {
		c, ok := ex.(*sqlparser.ColumnRef)
		if !ok {
			return -1, false
		}
		i, err := p.lb.resolve(c)
		if err != nil {
			return -1, false
		}
		return i, true
	}
	for _, ex := range blk.GroupBy() {
		i, ok := colAt(ex)
		if !ok {
			return nil, false
		}
		g.gcols = append(g.gcols, i)
	}
	for _, f := range calls {
		acc, err := newAccumulator(f)
		if err != nil {
			return nil, false
		}
		va := vecAgg{call: f}
		_, va.num = acc.(numAcc)
		va.num = va.num && !f.Star && len(f.Args) == 1
		_, va.count = acc.(*countAcc)
		if !f.Star {
			for _, a := range f.Args {
				i, ok := colAt(a)
				if !ok {
					return nil, false
				}
				va.args = append(va.args, i)
			}
		}
		g.aggs = append(g.aggs, va)
	}
	return g, true
}

// openVecGrouped runs a grouped block on a columnar source: a scan's batches
// or a join's feed the group table alike.
func (e *Engine) openVecGrouped(ctx context.Context, vs *vecSource, blk *plan.Block) (*schema.Relation, schema.RowIterator, error) {
	if vs == nil || blk.Win != nil {
		return nil, nil, nil
	}
	p := vs.p
	gp, ok := compileVecGrouped(p, blk)
	if !ok {
		return nil, nil, nil
	}

	ci, err := vs.open(ctx, false)
	if err != nil {
		return nil, nil, err
	}
	defer ci.Close()
	groups, err := gp.drain(ci, newVecExec(p))
	if err != nil {
		return nil, nil, err
	}

	out, err := gp.finish(blk, groups)
	if err != nil {
		return nil, nil, err
	}
	orel, rows, err := e.finishBroken(blk, p.lb, out, nil)
	if err != nil {
		return nil, nil, err
	}
	return orel, schema.WithContext(ctx, schema.IterateRows(rows, schema.DefaultBatchSize)), nil
}

// drain consumes the columnar scan batch by batch: assign every surviving
// row its group (first-seen order), then feed each aggregate call down its
// argument column. A call's accumulators still see their inputs in input
// order, so float folds are bit-identical to the row path's.
func (gp *vecGroupPlan) drain(ci schema.ColIterator, ex *vecExec) ([]*vecGroup, error) {
	t := &groupTable{gp: gp, index: make(map[string]*vecGroup)}
	if len(gp.gcols) == 1 {
		t.strs = make(map[string]*vecGroup)
		t.nums = make(map[uint64]*vecGroup)
		t.times = make(map[uint64]*vecGroup)
	}
	if len(gp.gcols) == 0 {
		// No GROUP BY: the whole input is one group even when empty, so
		// COUNT(*) over an empty relation yields 0.
		t.order = append(t.order, gp.newGroup(nil))
	}
	for {
		cb, err := ci.NextBatch()
		if err != nil {
			return nil, err
		}
		if cb == nil {
			return t.order, nil
		}
		sel, err := ex.filterSel(cb)
		if err != nil {
			return nil, err
		}
		if gs := t.assign(cb, sel); len(gs) > 0 {
			gp.feed(gs, cb, sel)
		}
	}
}

func (gp *vecGroupPlan) newGroup(rep schema.Row) *vecGroup {
	g := &vecGroup{rep: rep, accs: make([]accumulator, len(gp.aggs)), num: make([]numAcc, len(gp.aggs))}
	for i, va := range gp.aggs {
		g.accs[i], _ = newAccumulator(va.call) // validated at compile time
		if va.num {
			g.num[i] = g.accs[i].(numAcc)
		}
	}
	return g
}

// groupTable assigns rows to groups. index, keyed by the canonical encoded
// group key (ColVec.AppendGroupKey), is the one table of groups and defines
// which rows share one; strs, nums and times are fronts for a single dense
// key column, keyed by what identifies a canonical key within that type —
// the raw string, NumericKeyBits of the number as a float64, UnixNano — so
// the common batch probes without encoding. A front fills through index on
// its first miss per key, so a NULL-bearing or boxed batch arriving between
// typed ones lands in the same groups, and order keeps first sight. The
// fronts exist only when there is exactly one key column.
type groupTable struct {
	gp    *vecGroupPlan
	index map[string]*vecGroup
	order []*vecGroup
	strs  map[string]*vecGroup
	nums  map[uint64]*vecGroup
	times map[uint64]*vecGroup
	kbuf  []byte
	// prevKey is the encoded key of the last row the encoded path probed.
	prevKey []byte
	bits    []uint64    // per-batch scratch: the 8-byte keys of the live rows
	gs      []*vecGroup // per-batch scratch: the group of each live row
}

// lookup finds or creates the group whose encoded key is t.kbuf; physical
// row i of cb is the first of a new group, and becomes its representative.
func (t *groupTable) lookup(cb *schema.ColBatch, i int) *vecGroup {
	g, ok := t.index[string(t.kbuf)]
	if !ok {
		g = t.gp.newGroup(cb.RowAt(i))
		t.index[string(t.kbuf)] = g
		t.order = append(t.order, g)
	}
	return g
}

// assign returns the group of every live row of the batch, in live order.
// Each loop first asks whether the row's key is the previous live row's —
// time-ordered sensor data groups in runs — and probes only when it is not.
func (t *groupTable) assign(cb *schema.ColBatch, sel []int) []*vecGroup {
	n := cb.N
	if sel != nil {
		n = len(sel)
	}
	if n == 0 {
		return nil
	}
	if cap(t.gs) < n {
		t.gs = make([]*vecGroup, n)
	}
	gs := t.gs[:n]

	gcols := t.gp.gcols
	if len(gcols) == 0 {
		g := t.order[0]
		if g.rep == nil {
			g.rep = cb.RowAt(liveRow(sel, 0))
		}
		for k := range gs {
			gs[k] = g
		}
		return gs
	}

	var prev *vecGroup
	v := &cb.Vecs[gcols[0]]
	dense := len(gcols) == 1 && !v.Boxed() && v.Nulls == nil
	switch {
	case dense && v.Typ == schema.TypeString:
		var prevS string
		for k := range gs {
			i := liveRow(sel, k)
			if s := v.Strs[i]; prev == nil || s != prevS {
				g, ok := t.strs[s]
				if !ok {
					t.kbuf = schema.AppendStringGroupKey(t.kbuf[:0], s)
					g = t.lookup(cb, i)
					// The key is cloned: s may be a slice of a whole
					// column's backing string, which a map key would pin.
					t.strs[strings.Clone(s)] = g
				}
				prev, prevS = g, s
			}
			gs[k] = prev
		}
	case dense && (v.Typ == schema.TypeInt || v.Typ == schema.TypeFloat || v.Typ == schema.TypeTime):
		front := t.nums
		if v.Typ == schema.TypeTime {
			front = t.times
		}
		var prevB uint64
		t.bits = keyBits(t.bits, v, n, sel)
		for k, b := range t.bits {
			if prev == nil || b != prevB {
				g, ok := front[b]
				if !ok {
					i := liveRow(sel, k)
					t.kbuf = v.AppendGroupKey(t.kbuf[:0], i)
					g = t.lookup(cb, i)
					front[b] = g
				}
				prev, prevB = g, b
			}
			gs[k] = prev
		}
	default:
		// Several key columns, a NULL mask, a boxed vector or a bool key:
		// the encoded key itself, compared with the previous row's before
		// the map sees it.
		for k := range gs {
			i := liveRow(sel, k)
			t.kbuf = t.kbuf[:0]
			for _, c := range gcols {
				t.kbuf = cb.Vecs[c].AppendGroupKey(t.kbuf, i)
			}
			if prev == nil || !bytes.Equal(t.kbuf, t.prevKey) {
				prev = t.lookup(cb, i)
				t.kbuf, t.prevKey = t.prevKey, t.kbuf
			}
			gs[k] = prev
		}
	}
	return gs
}

// liveRow is the physical position of a batch's k-th live row.
func liveRow(sel []int, k int) int {
	if sel != nil {
		return sel[k]
	}
	return k
}

// keyBits returns, in bits when it is large enough, the canonical 8-byte key
// of every live element of a dense Int, Float or Time vector: exactly the
// bytes AppendGroupKey would put behind the type tag, so two elements share
// a group iff their bits are equal (1 and 1.0, every NaN; not -0.0 and +0.0).
// The group table's fronts and the join's (vecjoin.go) are keyed by it.
func keyBits(bits []uint64, v *schema.ColVec, n int, sel []int) []uint64 {
	if cap(bits) < n {
		bits = make([]uint64, n)
	}
	bits = bits[:n]
	switch v.Typ {
	case schema.TypeInt:
		for k := range bits {
			bits[k] = schema.NumericKeyBits(float64(v.Ints[liveRow(sel, k)]))
		}
	case schema.TypeFloat:
		for k := range bits {
			bits[k] = schema.NumericKeyBits(v.Floats[liveRow(sel, k)])
		}
	default:
		for k := range bits {
			bits[k] = uint64(v.Times[liveRow(sel, k)].UnixNano())
		}
	}
	return bits
}

// feed folds the batch's live rows into their groups' accumulators, one
// aggregate call at a time. What each call's argument vector is decides the
// route, per batch: typed payloads go through numAcc, anything else (and any
// call without a numAcc) is boxed into the tuple add takes.
func (gp *vecGroupPlan) feed(gs []*vecGroup, cb *schema.ColBatch, sel []int) {
	var args []schema.Value
	for ai := range gp.aggs {
		va := &gp.aggs[ai]
		if va.args == nil { // COUNT(*)
			for _, g := range gs {
				g.accs[ai].add(nil)
			}
			continue
		}
		if v := &cb.Vecs[va.args[0]]; va.num && !v.Boxed() &&
			(va.count || v.Typ == schema.TypeInt || v.Typ == schema.TypeFloat) {
			feedNum(gs, ai, v, sel)
			continue
		}
		if cap(args) < len(va.args) {
			args = make([]schema.Value, len(va.args))
		}
		a := args[:len(va.args)]
		for k, g := range gs {
			i := liveRow(sel, k)
			for j, c := range va.args {
				a[j] = cb.Vecs[c].Value(i)
			}
			g.accs[ai].add(a)
		}
	}
}

// feedNum is the unboxed feed of one call from one typed vector.
func feedNum(gs []*vecGroup, ai int, v *schema.ColVec, sel []int) {
	for k, g := range gs {
		i := liveRow(sel, k)
		switch {
		case v.Nulls != nil && v.Nulls[i]:
		case v.Typ == schema.TypeFloat:
			g.num[ai].addFloat(v.Floats[i])
		case v.Typ == schema.TypeInt:
			g.num[ai].addInt(v.Ints[i])
		default: // COUNT over a non-numeric vector: only the mask matters
			g.num[ai].addInt(0)
		}
	}
}

// finish evaluates HAVING and the select list per group, exactly like the
// row path's evalOneGroup: the group representative backs non-aggregate
// expressions and the accumulator results back the aggregate calls.
func (gp *vecGroupPlan) finish(blk *plan.Block, groups []*vecGroup) (*Result, error) {
	items := blk.Items()
	having := blk.Having()
	env := (&rowEnv{b: gp.scan.lb}).reuse()
	// One map for all groups, refilled per group under the same keys: the
	// evaluator reads it while the group's row is built and keeps nothing.
	keys := make([]string, len(gp.calls))
	for i, f := range gp.calls {
		keys[i] = f.SQL()
	}
	aggVals := make(map[string]schema.Value, len(gp.aggs))
	var out schema.Rows
	for _, g := range groups {
		for i, key := range keys {
			aggVals[key] = g.accs[i].result()
		}
		env.row, env.agg = g.rep, aggVals
		if having != nil {
			ok, err := truthy(env, having)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		orow := make(schema.Row, len(items))
		for i, it := range items {
			v, err := evalExpr(env, it.Expr)
			if err != nil {
				return nil, err
			}
			orow[i] = v
		}
		out = append(out, orow)
	}
	return &Result{Schema: gp.orel, Rows: out}, nil
}
