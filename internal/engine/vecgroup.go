package engine

import (
	"context"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// Vectorized grouped aggregation: GROUP BY keys are built straight from the
// column vectors and accumulators are fed streaming, batch by batch, so the
// input is never materialized as rows. The row path (group.go) materializes
// every group's rows and re-walks them once per aggregate call; here each
// input value is touched exactly once, and only group representatives are
// ever pivoted to row form.
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
// once, on first sight) and one accumulator per aggregate call.
type vecGroup struct {
	rep  schema.Row
	accs []accumulator
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
		if _, err := newAccumulator(f); err != nil {
			return nil, false
		}
		va := vecAgg{call: f}
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

// openVecGrouped runs a grouped single-table block on the columnar scan.
func (e *Engine) openVecGrouped(ctx context.Context, cs ColScanner, s *plan.Scan, blk *plan.Block) (*schema.Relation, schema.RowIterator, error) {
	if blk.Win != nil {
		return nil, nil, nil
	}
	p, rel, ok := e.vecBlockScan(s, blk)
	if !ok {
		return nil, nil, nil
	}
	gp, ok := compileVecGrouped(p, blk)
	if !ok {
		return nil, nil, nil
	}

	ci, err := cs.OpenColScan(ctx, s.Table, p.colScan(rel.Arity()))
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

// drain consumes the columnar scan, building groups in first-seen order and
// feeding every accumulator exactly once per surviving row.
func (gp *vecGroupPlan) drain(ci schema.ColIterator, ex *vecExec) ([]*vecGroup, error) {
	index := make(map[string]*vecGroup)
	var order []*vecGroup
	if len(gp.gcols) == 0 {
		// No GROUP BY: the whole input is one group even when empty, so
		// COUNT(*) over an empty relation yields 0.
		g := gp.newGroup()
		order = append(order, g)
	}
	var kbuf []byte
	args := make([]schema.Value, 4)
	for {
		cb, err := ci.NextBatch()
		if err != nil {
			return nil, err
		}
		if cb == nil {
			return order, nil
		}
		sel, err := ex.filterSel(cb)
		if err != nil {
			return nil, err
		}
		feed := func(i int) {
			var g *vecGroup
			if len(gp.gcols) == 0 {
				g = order[0]
			} else {
				kbuf = kbuf[:0]
				for _, c := range gp.gcols {
					kbuf = cb.Vecs[c].AppendGroupKey(kbuf, i)
				}
				var ok bool
				if g, ok = index[string(kbuf)]; !ok {
					g = gp.newGroup()
					index[string(kbuf)] = g
					order = append(order, g)
				}
			}
			if g.rep == nil {
				g.rep = cb.RowAt(i)
			}
			for ai, va := range gp.aggs {
				if va.args == nil {
					g.accs[ai].add(nil)
					continue
				}
				if cap(args) < len(va.args) {
					args = make([]schema.Value, len(va.args))
				}
				a := args[:len(va.args)]
				for j, c := range va.args {
					a[j] = cb.Vecs[c].Value(i)
				}
				g.accs[ai].add(a)
			}
		}
		if sel == nil {
			for i := 0; i < cb.N; i++ {
				feed(i)
			}
		} else {
			for _, i := range sel {
				feed(i)
			}
		}
	}
}

func (gp *vecGroupPlan) newGroup() *vecGroup {
	g := &vecGroup{accs: make([]accumulator, len(gp.aggs))}
	for i, va := range gp.aggs {
		g.accs[i], _ = newAccumulator(va.call) // validated at compile time
	}
	return g
}

// finish evaluates HAVING and the select list per group, exactly like the
// row path's evalOneGroup: the group representative backs non-aggregate
// expressions and the accumulator results back the aggregate calls.
func (gp *vecGroupPlan) finish(blk *plan.Block, groups []*vecGroup) (*Result, error) {
	items := blk.Items()
	having := blk.Having()
	env := (&rowEnv{b: gp.scan.lb}).reuse()
	var out schema.Rows
	for _, g := range groups {
		aggVals := make(map[string]schema.Value, len(gp.aggs))
		for i, f := range gp.calls {
			aggVals[f.SQL()] = g.accs[i].result()
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
