package engine

import (
	"context"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// This file wires whole query-block shapes onto the columnar scan when the
// block's work can run over vectors: DISTINCT over plain columns
// (vecDistinctIter below), grouped aggregation (vecgroup.go) and ORDER BY
// over plain columns (vecsort.go). All of them
// share the compiled scan (vecscan.go) and decline — ok=false, no error —
// whenever any piece of the block needs the row-at-a-time machinery, so the
// row path remains the single source of truth for full SQL semantics.

// Why a compiled block hands rows, not column batches, to its consumer —
// the reasons OpenStage reports. A block is columnar exactly when it is a
// scan over a ColScanner, filters, and a select list of stars and plain
// columns; each constant names the first thing that broke that shape.
const (
	DeclineRowSource  = "row-only source"       // the source serves no column batches
	DeclineJoin       = "join"                  // the block reads a join
	DeclineDerived    = "derived source"        // the block reads a nested block or no table
	DeclineBreaker    = "breaker"               // GROUP BY, window or ORDER BY materializes
	DeclineDistinct   = "distinct"              // DISTINCT emits first occurrences as rows
	DeclineLimit      = "limit"                 // a streaming LIMIT counts rows
	DeclineProjection = "non-kernel projection" // the select list computes expressions
)

// openVecBlock tries the vectorized whole-block paths for a single-table
// block, at any worker count: what a whole-block kernel accepts runs on it,
// and workers are spent only on what the kernels decline. A nil iterator
// means the caller compiles the block on the segment path; why says, in
// either case, what keeps the block's output row-major ("" when the
// returned iterator also serves column batches).
func (e *Engine) openVecBlock(ctx context.Context, s *plan.Scan, blk *plan.Block) (rel *schema.Relation, it schema.RowIterator, why string, err error) {
	cs, ok := e.src.(ColScanner)
	if !ok {
		return nil, nil, DeclineRowSource, nil
	}
	switch {
	case blk.Agg != nil:
		rel, it, err = e.openVecGrouped(ctx, cs, s, blk)
		return rel, it, DeclineBreaker, err
	case blk.Win != nil:
		return nil, nil, DeclineBreaker, nil
	case blk.Sort != nil:
		rel, it, err = e.openVecSorted(ctx, cs, s, blk)
		return rel, it, DeclineBreaker, err
	case blk.Distinct != nil:
		rel, it, err = e.openVecDistinct(ctx, cs, s, blk)
		return rel, it, DeclineDistinct, err
	}
	return e.openVecProject(ctx, cs, s, blk)
}

// vecBlockScan compiles the scan half shared by the vectorized block paths:
// the table schema, the filter conjuncts and the pruned column set, fed into
// compileVecScan. ok=false when the scan itself cannot be vectorized.
func (e *Engine) vecBlockScan(s *plan.Scan, blk *plan.Block) (*vecScanPlan, *schema.Relation, bool) {
	rel, err := RelationSchema(e.src, s.Table)
	if err != nil {
		return nil, nil, false // let the row path surface the error
	}
	qual := s.Table
	if s.Alias != "" {
		qual = s.Alias
	}
	full := bindingFromRelation(rel, qual)

	filters := blk.FilterConds()
	conds := make([]sqlparser.Expr, 0, 1+len(filters))
	if s.Predicate != nil {
		conds = append(conds, s.Predicate)
	}
	conds = append(conds, filters...)

	p, ok := compileVecScan(rel, qual, full, conds, e.scanColumns(s, blk, full))
	if !ok {
		return nil, nil, false
	}
	return p, rel, true
}

// openVecDistinct compiles SELECT DISTINCT over plain columns of a single
// table: duplicates are eliminated on the column vectors, so only the unique
// rows are ever pivoted to row form. With few distinct values this skips
// almost all of the pivot work the row path pays before its DISTINCT stage.
func (e *Engine) openVecDistinct(ctx context.Context, cs ColScanner, s *plan.Scan, blk *plan.Block) (*schema.Relation, schema.RowIterator, error) {
	p, rel, ok := e.vecBlockScan(s, blk)
	if !ok {
		return nil, nil, nil
	}
	proj, err := buildProjector(blk.Items(), p.lb)
	if err != nil {
		return nil, nil, nil // row path reports the projection error
	}
	// Every output column must be a direct copy of a loaded column —
	// expressions in the select list mean per-row evaluation, which is what
	// the row path is for.
	srcIdx := make([]int, len(proj.cols))
	for i, c := range proj.cols {
		if c.starIdx < 0 {
			return nil, nil, nil
		}
		srcIdx[i] = c.starIdx
	}

	ci, err := cs.OpenColScan(ctx, s.Table, p.colScan(rel.Arity()))
	if err != nil {
		return nil, nil, err
	}
	var out schema.RowIterator = &vecDistinctIter{
		src:    ci,
		ex:     newVecExec(p),
		srcIdx: srcIdx,
		orel:   proj.rel,
		seen:   make(map[string]bool),
	}
	if blk.Limit != nil {
		n := int(blk.Limit.N)
		if n < 0 {
			n = 0
		}
		out = &limitIter{src: out, remaining: n}
	}
	return proj.rel, schema.WithContext(ctx, out), nil
}

// vecDistinctIter filters batches with the compiled kernels, deduplicates
// the survivors by their canonical group key built straight from the column
// vectors, and pivots only first occurrences.
type vecDistinctIter struct {
	src    schema.ColIterator
	ex     *vecExec
	srcIdx []int // load-layout position of each output column
	orel   *schema.Relation
	seen   map[string]bool
	kbuf   []byte
	keep   []int
	vecs   []schema.ColVec
}

func (d *vecDistinctIter) Next() (schema.Rows, error) {
	for {
		cb, err := d.src.NextBatch()
		if err != nil {
			return nil, err
		}
		if cb == nil {
			return nil, nil
		}
		sel, err := d.ex.filterSel(cb)
		if err != nil {
			return nil, err
		}
		d.keep = d.keep[:0]
		unique := func(i int) {
			d.kbuf = d.kbuf[:0]
			for _, c := range d.srcIdx {
				d.kbuf = cb.Vecs[c].AppendGroupKey(d.kbuf, i)
			}
			if d.seen[string(d.kbuf)] {
				return
			}
			d.seen[string(d.kbuf)] = true
			d.keep = append(d.keep, i)
		}
		if sel == nil { // nil selection means every physical row is live
			for i := 0; i < cb.N; i++ {
				unique(i)
			}
		} else {
			for _, i := range sel {
				unique(i)
			}
		}
		if len(d.keep) == 0 {
			continue
		}
		// Gather the output columns (projection order) and pivot the kept
		// rows only.
		d.vecs = d.vecs[:0]
		for _, c := range d.srcIdx {
			d.vecs = append(d.vecs, cb.Vecs[c])
		}
		ob := schema.ColBatch{Rel: d.orel, Vecs: d.vecs, N: cb.N, Sel: d.keep}
		return ob.Rows(), nil
	}
}

func (d *vecDistinctIter) Close() { d.src.Close() }

// vecPassIter is a block that compiled to kernels only — scan, filters, a
// select list of stars and plain columns — and therefore has nothing to
// evaluate per row. It serves its output both ways: NextBatch hands on the
// scan's own vectors re-sliced to the output layout plus the surviving
// selection, nothing pivoted, which is how one fragment stage feeds the
// next; Next pivots that batch, the one pivot of a chain, paid by whoever
// finally wants rows. Both faces advance the same stream.
//
// A batch handed out follows the columnar ownership rules: the vectors are
// read-only windows, the header and Sel belong to the puller and stay valid
// after later pulls. The iterator checks ctx per pull itself, so it needs no
// WithContext wrapper, which would hide the columnar face.
type vecPassIter struct {
	ctx context.Context
	src schema.ColIterator
	ex  *vecExec
	// srcIdx is the load-layout position of each output column; nil when
	// the output is the load layout itself, whose View (if any) then still
	// aligns.
	srcIdx []int
	orel   *schema.Relation
}

func newVecPassIter(ctx context.Context, src schema.ColIterator, p *vecScanPlan, proj *projector) *vecPassIter {
	v := &vecPassIter{ctx: ctx, src: src, ex: newVecExec(p), orel: proj.rel}
	if !proj.identity {
		v.srcIdx, _ = projOutMap(proj) // every item is a plain column: openVecProject checked
	}
	return v
}

// pull returns the next non-empty output batch. own says the selection must
// outlive the next pull (a batch handed on) and not alias the executor's
// scratch (a batch pivoted at once).
func (v *vecPassIter) pull(own bool) (*schema.ColBatch, error) {
	for {
		if err := v.ctx.Err(); err != nil {
			return nil, err
		}
		cb, err := v.src.NextBatch()
		if err != nil || cb == nil {
			return nil, err
		}
		sel, err := v.ex.filterSel(cb)
		if err != nil {
			return nil, err
		}
		out := &schema.ColBatch{Rel: v.orel, N: cb.N, Sel: sel}
		switch live := out.Len(); {
		case live == 0:
			continue
		case live == cb.N:
			out.Sel = nil // every row survived: stay dense
		case own && v.ex.p.filters():
			out.Sel = append(make([]int, 0, live), sel...)
		}
		if v.srcIdx == nil {
			out.Vecs, out.View = cb.Vecs, cb.View
		} else {
			out.Vecs = make([]schema.ColVec, len(v.srcIdx))
			for k, c := range v.srcIdx {
				out.Vecs[k] = cb.Vecs[c]
			}
		}
		return out, nil
	}
}

func (v *vecPassIter) NextBatch() (*schema.ColBatch, error) { return v.pull(true) }

func (v *vecPassIter) Next() (schema.Rows, error) {
	cb, err := v.pull(false)
	if err != nil || cb == nil {
		return nil, err
	}
	return cb.Rows(), nil
}

func (v *vecPassIter) Close() { v.src.Close() }

// SizeHint forwards the scan's remaining row count when nothing filters.
func (v *vecPassIter) SizeHint() int {
	if h, ok := v.src.(schema.SizeHinter); ok && !v.ex.p.filters() {
		return h.SizeHint()
	}
	return 0
}
