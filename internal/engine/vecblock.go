package engine

import (
	"context"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// This file wires whole query-block shapes onto the columnar scan when the
// block's work can run over vectors: DISTINCT over plain columns
// (vecDistinctIter below) and grouped aggregation (vecgroup.go). Both paths
// share the compiled scan (vecscan.go) and decline — ok=false, no error —
// whenever any piece of the block needs the row-at-a-time machinery, so the
// row path remains the single source of truth for full SQL semantics.

// openVecBlock tries the vectorized whole-block paths for a single-table
// block. ok=false means the caller should compile the block on the row path.
func (e *Engine) openVecBlock(ctx context.Context, s *plan.Scan, blk *plan.Block) (*schema.Relation, schema.RowIterator, bool, error) {
	cs, ok := e.src.(ColScanner)
	if !ok {
		return nil, nil, false, nil
	}
	if blk.Agg != nil {
		return e.openVecGrouped(ctx, cs, s, blk)
	}
	if blk.Win != nil || blk.Sort != nil {
		return nil, nil, false, nil
	}
	if blk.Distinct != nil {
		return e.openVecDistinct(ctx, cs, s, blk)
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
func (e *Engine) openVecDistinct(ctx context.Context, cs ColScanner, s *plan.Scan, blk *plan.Block) (*schema.Relation, schema.RowIterator, bool, error) {
	p, rel, ok := e.vecBlockScan(s, blk)
	if !ok {
		return nil, nil, false, nil
	}
	proj, err := buildProjector(blk.Items(), p.lb)
	if err != nil {
		return nil, nil, false, nil // row path reports the projection error
	}
	// Every output column must be a direct copy of a loaded column —
	// expressions in the select list mean per-row evaluation, which is what
	// the row path is for.
	srcIdx := make([]int, len(proj.cols))
	for i, c := range proj.cols {
		if c.starIdx < 0 {
			return nil, nil, false, nil
		}
		srcIdx[i] = c.starIdx
	}

	ci, err := cs.OpenColScan(ctx, s.Table, p.colScan(rel.Arity()))
	if err != nil {
		return nil, nil, false, err
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
	return proj.rel, schema.WithContext(ctx, out), true, nil
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
