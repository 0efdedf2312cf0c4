package engine

import (
	"context"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// This file wires whole query-block shapes onto a columnar source — a
// base-table scan or a vectorized equi-join (vecjoin.go) — when the block's
// work can run over vectors: DISTINCT over plain columns (vecDistinctIter
// below), grouped aggregation (vecgroup.go), ORDER BY over plain columns
// (vecsort.go) and projections (vecproject.go, vecPassIter below). All of
// them compile over a vecSource and decline — ok=false, no error — whenever
// any piece of the block needs the row-at-a-time machinery, so the row path
// remains the single source of truth for full SQL semantics.

// Why a compiled block hands rows, not column batches, to its consumer —
// the reasons OpenStage reports. A block is columnar exactly when it reads a
// columnar source (a scan over a ColScanner, or an equi-join probing one),
// filters, and has a select list of stars and plain columns; each constant
// names the first thing that broke that shape.
const (
	DeclineRowSource  = "row-only source"       // the source serves no column batches
	DeclineJoin       = "join"                  // the join keeps the row probe: not INNER/LEFT on pure equalities over a base-table probe side
	DeclineDerived    = "derived source"        // the block reads a nested block or no table
	DeclineBreaker    = "breaker"               // GROUP BY, window or ORDER BY materializes
	DeclineDistinct   = "distinct"              // DISTINCT emits first occurrences as rows
	DeclineLimit      = "limit"                 // a streaming LIMIT counts rows
	DeclineProjection = "non-kernel projection" // the select list computes expressions
)

// vecSource is the columnar input a whole-block kernel compiles over: a
// base-table scan or a vectorized join. Either way the kernel sees batches in
// one known layout, filters them with p, and reads typed vectors.
type vecSource struct {
	// p is the block's filters compiled over the layout the batches arrive in
	// (p.lb binds it): for a scan the pushed predicate and the residual
	// filters over the loaded table columns, for a join the residual filters
	// over the probe side's columns followed by the build side's.
	p *vecScanPlan
	// open starts the batches. keep says the consumer retains them past its
	// next pull (a sort, a stage handing them on); without it a join reuses
	// its gather buffers from batch to batch.
	open func(ctx context.Context, keep bool) (schema.ColIterator, error)
}

// openVecBlock tries the vectorized whole-block paths over a columnar
// source, at any worker count: what a whole-block kernel accepts runs on it,
// and workers are spent only on what the kernels decline. vs is nil when the
// block's filters do not compile over the source. A nil iterator means the
// caller compiles the block on the segment path; why says, in either case,
// what keeps the block's output row-major ("" when the returned iterator also
// serves column batches).
func (e *Engine) openVecBlock(ctx context.Context, vs *vecSource, blk *plan.Block) (rel *schema.Relation, it schema.RowIterator, why string, err error) {
	switch {
	case blk.Agg != nil:
		rel, it, err = e.openVecGrouped(ctx, vs, blk)
		return rel, it, DeclineBreaker, err
	case blk.Win != nil:
		return nil, nil, DeclineBreaker, nil
	case blk.Sort != nil:
		rel, it, err = e.openVecSorted(ctx, vs, blk)
		return rel, it, DeclineBreaker, err
	case blk.Distinct != nil:
		rel, it, err = e.openVecDistinct(ctx, vs, blk)
		return rel, it, DeclineDistinct, err
	}
	return e.openVecProject(ctx, vs, blk)
}

// vecScanSource compiles a single-table block's source: the table schema,
// the filter conjuncts and the pruned column set, fed into compileVecScan.
// nil when the scan itself cannot be vectorized.
func (e *Engine) vecScanSource(cs ColScanner, s *plan.Scan, blk *plan.Block) *vecSource {
	rel, err := RelationSchema(e.src, s.Table)
	if err != nil {
		return nil // let the row path surface the error
	}
	full := bindingFromRelation(rel, scanQual(s))

	filters := blk.FilterConds()
	conds := make([]sqlparser.Expr, 0, 1+len(filters))
	if s.Predicate != nil {
		conds = append(conds, s.Predicate)
	}
	conds = append(conds, filters...)

	p, err := compileVecScan(rel, full, conds, e.scanColumns(s, blk, full))
	if err != nil {
		return nil // the segment path surfaces the error
	}
	sc := p.colScan(rel.Arity())
	return &vecSource{p: p, open: func(ctx context.Context, _ bool) (schema.ColIterator, error) {
		return cs.OpenColScan(ctx, s.Table, sc)
	}}
}

// openVecDistinct compiles SELECT DISTINCT over plain columns of a columnar
// source: duplicates are eliminated on the column vectors, so only the unique
// rows are ever pivoted to row form. With few distinct values this skips
// almost all of the pivot work the row path pays before its DISTINCT stage.
func (e *Engine) openVecDistinct(ctx context.Context, vs *vecSource, blk *plan.Block) (*schema.Relation, schema.RowIterator, error) {
	if vs == nil {
		return nil, nil, nil
	}
	proj, err := buildProjector(blk.Items(), vs.p.lb)
	if err != nil {
		return nil, nil, nil // row path reports the projection error
	}
	// Every output column must be a direct copy of a loaded column —
	// expressions in the select list mean per-row evaluation, which is what
	// the row path is for.
	srcIdx, ok := projOutMap(proj)
	if !ok {
		return nil, nil, nil
	}

	ci, err := vs.open(ctx, false)
	if err != nil {
		return nil, nil, err
	}
	var out schema.RowIterator = &vecDistinctIter{
		src:    ci,
		ex:     newVecExec(vs.p),
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

// projOutMap flattens an all-plain-column projection into source positions;
// ok=false when any output column computes an expression.
func projOutMap(p *projector) ([]int, bool) {
	om := make([]int, len(p.cols))
	for i, c := range p.cols {
		if c.starIdx < 0 {
			return nil, false
		}
		om[i] = c.starIdx
	}
	return om, true
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
	// the output is the load layout itself.
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
			out.Vecs = cb.Vecs
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
