package engine

import (
	"context"

	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// ColScanner is the optional source capability behind vectorized scans: a
// source that can serve column batches (and columnar morsels) directly, so
// filter kernels run over typed vectors and rejected rows are never pivoted
// to row form. storage.Store implements it, and so does the fragment
// chain's source for a stage fed column batches by the stage below; scans
// over other sources run the row-at-a-time scan stage (or the source's own
// pushed-down scan) instead.
type ColScanner interface {
	// OpenColScan opens a single-consumer columnar scan over the named
	// relation with the given projection, structured pruning predicate and
	// batch size; the whole-block kernels (vecblock.go) drain it.
	OpenColScan(ctx context.Context, name string, sc schema.ColScan) (schema.ColIterator, error)
	// OpenColMorsels is the partitioned twin, safe for concurrent claims:
	// the morsel source of scan and join-probe segments.
	OpenColMorsels(ctx context.Context, name string, sc schema.ColScan) (schema.ColMorselSource, error)
}

// vecScanPlan is a compiled vectorized scan: which columns to load, the
// kernelized prefix of the filter conjuncts, and the row-at-a-time residual
// for whatever the kernels cannot express.
//
// The load layout is the m output columns first (in projection order),
// followed by any extra columns only the residual reads. Batches arrive in
// this layout; kernels and the residual address positions in it, and the
// output pivot takes Vecs[:m].
type vecScanPlan struct {
	// load is the table column positions to fetch, output columns first.
	load []int
	// m is the output width: Vecs[:m] of a loaded batch is the result layout.
	m int
	// kernels is the compiled prefix of the filter conjuncts, in order.
	kernels []kernel
	// preds is the same prefix restated over base-table positions: the
	// pruning hint storage consults against segment zone maps.
	preds []schema.ColPred
	// residual is the AND of the remaining conjuncts (nil when all conjuncts
	// compiled); evaluated row-at-a-time on kernel survivors.
	residual sqlparser.Expr
	// lb binds the load layout for residual evaluation; lrel is its schema;
	// orel is the output schema (load[:m]).
	lb   *binding
	lrel *schema.Relation
	orel *schema.Relation
}

// compileVecScan builds a vectorized plan over a columnar input laid out as
// rel and bound as full — a base table under its qualifier, or a join's
// combined layout — with the given filter conjuncts and output projection
// (outCols nil = full width). It reports ok=false when the filters cannot be
// vectorized faithfully (an unresolvable residual column); the caller then
// uses the row path.
//
// Kernels take the longest compilable *prefix* of the conjunct list: a
// kernelizable conjunct behind a non-kernelizable one must not run early,
// because the row path would have short-circuited rows the earlier conjunct
// rejects or errors on.
func compileVecScan(rel *schema.Relation, full *binding, conds []sqlparser.Expr, outCols []int) (*vecScanPlan, bool) {
	p := &vecScanPlan{}
	if outCols == nil {
		p.load = make([]int, rel.Arity())
		for i := range p.load {
			p.load[i] = i
		}
	} else {
		p.load = append([]int(nil), outCols...)
	}
	p.m = len(p.load)

	// pos resolves a column reference to its position in the load layout,
	// extending the layout for residual-only columns.
	pos := func(c *sqlparser.ColumnRef) (int, bool) {
		ti, err := full.resolve(c)
		if err != nil {
			return -1, false
		}
		for i, t := range p.load {
			if t == ti {
				return i, true
			}
		}
		p.load = append(p.load, ti)
		return len(p.load) - 1, true
	}

	conjs := sqlparser.Conjuncts(sqlparser.AndAll(conds))
	for ci, c := range conjs {
		k, ok := compileConjKernel(c, pos)
		if !ok {
			p.residual = sqlparser.AndAll(conjs[ci:])
			break
		}
		p.kernels = append(p.kernels, k)
	}
	p.preds = prunePreds(full, conjs[:len(p.kernels)])
	if p.residual != nil {
		// Every residual column must live in the load layout.
		for _, c := range sqlparser.ColumnRefs(p.residual) {
			if _, ok := pos(c); !ok {
				return nil, false
			}
		}
	}

	p.lrel = rel.Project(p.load)
	p.orel = rel.Project(p.load[:p.m])
	p.lb = full.project(p.load)
	return p, true
}

// outBinding binds the output columns, the first m of the load layout.
func (p *vecScanPlan) outBinding() *binding { return &binding{cols: p.lb.cols[:p.m]} }

// loadCols is the column set to request from the source: nil when the load
// layout is the full identity, which lets the store serve full-width
// windows with their row view attached.
func (p *vecScanPlan) loadCols(arity int) []int {
	if len(p.load) != arity {
		return p.load
	}
	for i, c := range p.load {
		if c != i {
			return p.load
		}
	}
	return nil
}

// colScan packages the plan's load layout and pruning predicate as the
// pushed-down columnar scan request.
func (p *vecScanPlan) colScan(arity int) schema.ColScan {
	return schema.ColScan{
		Columns:   p.loadCols(arity),
		Predicate: p.preds,
		BatchSize: schema.DefaultBatchSize,
	}
}

// vecExec runs a compiled scan plan over column batches. One instance is
// single-goroutine state (selection scratch, residual env).
type vecExec struct {
	p    *vecScanPlan
	a, b selBuf
	env  *rowEnv
	out  schema.ColBatch // run's result header
}

// filters reports whether the plan drops rows at all; without it a batch's
// selection (and its row count) passes through untouched.
func (p *vecScanPlan) filters() bool { return len(p.kernels) > 0 || p.residual != nil }

func newVecExec(p *vecScanPlan) *vecExec {
	if !p.filters() {
		return &vecExec{p: p}
	}
	x := &vecExec{p: p, env: (&rowEnv{b: p.lb}).reuse()}
	// The scratch selections start non-nil: a computed selection that ends
	// up empty must stay distinguishable from ColBatch's nil-means-all-rows.
	x.a.sel = make([]int, 0, schema.DefaultBatchSize)
	x.b.sel = make([]int, 0, schema.DefaultBatchSize)
	return x
}

// filterSel runs the kernel chain and residual over one batch and returns
// the surviving selection (physical row indices, ascending). The returned
// slice is scratch owned by the executor — consume it before the next call.
//
// Error positions follow the row-at-a-time contract: a kernel error is held
// pending while later conjuncts run over the survivors *before* the error
// row, because any error they raise is at an earlier row — the one the
// serial evaluation would have hit first. The whole batch yields no rows on
// error, exactly like the row scan, whose filter aborts mid-batch.
func (x *vecExec) filterSel(cb *schema.ColBatch) ([]int, error) {
	p := x.p
	if !p.filters() {
		return cb.Sel, nil
	}
	in, out := &x.a, &x.b
	in.reset()
	if cb.Sel != nil {
		in.sel = append(in.sel, cb.Sel...)
	} else {
		for i := 0; i < cb.N; i++ {
			in.sel = append(in.sel, i)
		}
	}

	var pendErr error
	for _, k := range p.kernels {
		_, err := k(cb, in, out)
		if err != nil {
			pendErr = err
		}
		in, out = out, in
		if len(in.sel) == 0 {
			if pendErr != nil {
				return nil, pendErr
			}
			return in.sel, nil
		}
	}

	if p.residual != nil {
		tmp := schema.ColBatch{Rel: p.lrel, Vecs: cb.Vecs, N: cb.N, Sel: in.sel}
		rows := tmp.Rows()
		sel := out.sel[:0]
		for k, i := range in.sel {
			x.env.row = rows[k]
			ok, err := truthy(x.env, p.residual)
			if err != nil {
				return nil, err
			}
			if ok && !in.mark(k) {
				sel = append(sel, i)
			}
		}
		out.sel = sel
		if pendErr != nil {
			return nil, pendErr
		}
		return sel, nil
	}

	if pendErr != nil {
		return nil, pendErr
	}
	if in.marks == nil {
		return in.sel, nil
	}
	// Rows still marked after the last conjunct are NULL overall: drop them.
	sel := out.sel[:0]
	for k, i := range in.sel {
		if !in.marks[k] {
			sel = append(sel, i)
		}
	}
	out.sel = sel
	return sel, nil
}

// colStage is what a segment does to each column batch it claims before the
// batch is pivoted for the row stages: a scan filters it (vecExec), a join
// filters and probes it (vecJoinExec). One instance is one goroutine's state,
// and the batch it returns need only stay valid until its next run.
type colStage interface {
	run(cb *schema.ColBatch) (*schema.ColBatch, error)
}

// run filters one batch down to the output layout: the scan's own vectors
// under the surviving selection.
func (x *vecExec) run(cb *schema.ColBatch) (*schema.ColBatch, error) {
	sel, err := x.filterSel(cb)
	if err != nil {
		return nil, err
	}
	x.out = schema.ColBatch{Rel: x.p.orel, Vecs: cb.Vecs[:x.p.m], N: cb.N, Sel: sel}
	if x.p.m == len(cb.Vecs) {
		// Full-width output: forward the store's row view (when present) so
		// survivors are gathered as references, not re-materialized.
		x.out.View = cb.View
	}
	return &x.out, nil
}

// vecMorsels adapts a columnar morsel source to the row-morsel surface — the
// one place a segment's column batches become rows: each claim runs its
// stage and pivots the result on the claiming worker's goroutine, so kernels
// and probes run in parallel and no scan stage is needed.
type vecMorsels struct {
	src schema.ColMorselSource
	mk  func() colStage
	// sole is the one stage of a one-worker segment, its scratch reused
	// across claims; nil when several workers claim concurrently and each
	// claim builds its own.
	sole colStage
	// exact: the stage emits every row it claims, so the source's remaining
	// row count is the segment's.
	exact bool
}

func newVecMorsels(src schema.ColMorselSource, mk func() colStage, workers int) *vecMorsels {
	v := &vecMorsels{src: src, mk: mk}
	if workers == 1 {
		v.sole = mk()
	}
	return v
}

// newVecScanMorsels is the morsel source of a scan segment.
func newVecScanMorsels(src schema.ColMorselSource, p *vecScanPlan, workers int) *vecMorsels {
	v := newVecMorsels(src, func() colStage { return newVecExec(p) }, workers)
	v.exact = !p.filters()
	return v
}

func (v *vecMorsels) NextMorsel() (schema.Morsel, error) {
	cm, err := v.src.NextColMorsel()
	if err != nil {
		return schema.Morsel{Seq: cm.Seq}, err
	}
	if cm.Batch == nil {
		return schema.Morsel{}, nil
	}
	st := v.sole
	if st == nil {
		st = v.mk()
	}
	out, err := st.run(cm.Batch)
	if err != nil {
		return schema.Morsel{Seq: cm.Seq}, err
	}
	// Rows() is never nil: a nil Rows in a morsel means worker exhaustion to
	// the exchange, and an all-filtered batch is not exhaustion.
	return schema.Morsel{Seq: cm.Seq, Rows: out.Rows()}, nil
}

func (v *vecMorsels) Close() { v.src.Close() }

// SizeHint forwards the source's remaining row count when nothing filters,
// so a breaker draining the segment pre-sizes its buffer once.
func (v *vecMorsels) SizeHint() int {
	if h, ok := v.src.(schema.SizeHinter); ok && v.exact {
		return h.SizeHint()
	}
	return 0
}
