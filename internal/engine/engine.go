package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// ErrQuery wraps all semantic evaluation errors.
var ErrQuery = errors.New("engine: query error")

// ErrInternal marks a failure that is the engine's own fault, not the
// query's or the data's: a pipeline stage panicked and its goroutine
// contained it. The stack is in the log; the query is over, the process and
// every other query are not.
var ErrInternal = errors.New("engine: internal error")

// Source supplies base relations by name: Relation is the materialized
// reference every source has. storage.Store implements it and the fragment
// chain's stage sources do. Queries read a source through its optional
// capabilities when it has them: a ColScanner (the store) is scanned as
// column batches, a BatchSource as row batches, and only a source with
// neither is materialized.
type Source interface {
	Relation(name string) (*schema.Relation, schema.Rows, error)
}

// Result is an evaluated relation: output schema plus rows.
type Result struct {
	Schema *schema.Relation
	Rows   schema.Rows
}

// WireSize is the simulated serialized size of the result in bytes.
func (r *Result) WireSize() int { return r.Rows.WireSize() }

// Engine evaluates query plans against a Source.
type Engine struct {
	src Source
	par int
}

// New creates an engine over the given source. Pipelines run with one
// worker by default; WithParallelism raises the count.
func New(src Source) *Engine { return &Engine{src: src, par: 1} }

// WithParallelism sets the number of workers each compiled block may use
// for its streamable segment (scan, filter, projection, join probe,
// DISTINCT, GROUP BY partitioning): n <= 0 means runtime.GOMAXPROCS(0); 1
// runs every segment on the consumer's goroutine. Every block compiles the
// same way for any n, and the exchange re-emits worker output in morsel
// order (see parallel.go), so results are row- and order-identical across
// worker counts — the setting is purely a performance knob. It returns the
// engine for chaining and must be called before Open; an Engine must not be
// reconfigured while pipelines are open.
func (e *Engine) WithParallelism(n int) *Engine {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.par = n
	return e
}

// Parallelism reports the configured worker count.
func (e *Engine) Parallelism() int { return e.par }

// Catalog adapts the engine's source into the optimizer's catalog: column
// names per base relation, used for projection pruning and join-side
// attribution.
func (e *Engine) Catalog() plan.Catalog {
	return func(table string) ([]string, bool) {
		rel, err := RelationSchema(e.src, table)
		if err != nil {
			return nil, false
		}
		return rel.ColumnNames(), true
	}
}

// Query parses, lowers, optimizes and executes a SQL string.
func (e *Engine) Query(ctx context.Context, sql string) (*Result, error) {
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.Select(ctx, sel)
}

// Select executes a parsed statement, materializing the full result.
func (e *Engine) Select(ctx context.Context, sel *sqlparser.Select) (*Result, error) {
	rel, it, err := e.OpenSelect(ctx, sel)
	if err != nil {
		return nil, err
	}
	return drainResult(rel, it)
}

// SelectPlan executes an already-lowered plan, materializing the result.
func (e *Engine) SelectPlan(ctx context.Context, root plan.Node) (*Result, error) {
	rel, it, err := e.Open(ctx, root)
	if err != nil {
		return nil, err
	}
	return drainResult(rel, it)
}

func drainResult(rel *schema.Relation, it schema.RowIterator) (*Result, error) {
	rows, err := schema.DrainIterator(it)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: rel, Rows: rows}, nil
}

// OpenSelect lowers a parsed statement into the logical plan IR, optimizes
// it against this engine's catalog (constant folding, predicate pushdown
// into the scans, projection pruning) and opens the compiled pipeline.
func (e *Engine) OpenSelect(ctx context.Context, sel *sqlparser.Select) (*schema.Relation, schema.RowIterator, error) {
	root, err := plan.FromAST(sel)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrQuery, err)
	}
	root = plan.Optimize(root, plan.Options{Catalog: e.Catalog(), CrossBlock: true})
	return e.Open(ctx, root)
}

// Open compiles a logical plan into its output schema and a pull-based
// batch iterator. The caller owns the iterator and must Close it (or drain
// it with schema.DrainIterator, which closes on exhaustion); closing early
// stops upstream scans. Intermediate memory is bounded by the batch size
// except at pipeline breakers (GROUP BY, windows, ORDER BY), which buffer
// their own input. The plan tree is only read, never modified, so one plan
// can be opened concurrently.
//
// The pipeline is bound to ctx at every scan: cancellation is checked per
// batch, so a cancelled consumer stops pulling from storage within one
// batch (including inside pipeline breakers, which drain their input
// through the same ctx-bound scans).
func (e *Engine) Open(ctx context.Context, root plan.Node) (*schema.Relation, schema.RowIterator, error) {
	rel, it, _, err := e.openBlock(ctx, root)
	return rel, it, err
}

// OpenStage is Open for a consumer that can take column batches — the
// fragment chain, whose stages exchange them. A block that compiled to
// kernels only returns an iterator that also implements schema.ColIterator
// and an empty decline; every other block returns the Decline* reason that
// keeps its output row-major.
func (e *Engine) OpenStage(ctx context.Context, root plan.Node) (rel *schema.Relation, it schema.RowIterator, decline string, err error) {
	return e.openBlock(ctx, root)
}

// openBlock compiles one query block (plan.SplitBlock — the single owner of
// the block-shape rule) into its output schema and iterator. Every block
// compiles once: onto a whole-block kernel when one accepts it (vecblock.go),
// else into a segment (parallel.go) driven by the block's worker count. The
// third result is OpenStage's decline.
func (e *Engine) openBlock(ctx context.Context, top plan.Node) (*schema.Relation, schema.RowIterator, string, error) {
	blk, src := plan.SplitBlock(top)

	// A streaming LIMIT (no breaker below it) runs with one worker: its
	// early-termination guarantee — a LIMIT-n query reads O(n + batch) rows
	// from storage — would be destroyed by workers prefetching morsels past
	// the cutoff.
	workers := e.par
	if blk.Limit != nil && blk.Agg == nil && blk.Win == nil && blk.Sort == nil {
		workers = 1
	}

	// Kernels first: a columnar source — a scan, or an equi-join probing one —
	// goes to the whole-block kernels; what they decline compiles into a
	// segment.
	var seg *parSeg
	var err error
	decline := DeclineDerived
	switch s := src.(type) {
	case *plan.Scan:
		decline = DeclineRowSource
		if cs, ok := e.src.(ColScanner); ok {
			rel, it, why, err := e.openVecBlock(ctx, e.vecScanSource(cs, s, blk), blk)
			if err != nil || it != nil {
				return rel, it, why, err
			}
			decline = why
		}
	case *plan.Join:
		rel, it, jseg, why, err := e.openJoinBlock(ctx, s, blk, workers)
		if err != nil || it != nil {
			return rel, it, why, err
		}
		decline, seg = why, jseg
	}
	if seg == nil {
		if seg, err = e.openSegment(ctx, src, blk, workers); err != nil {
			return nil, nil, "", err
		}
	}

	if blk.Agg != nil || blk.Win != nil || blk.Sort != nil {
		var rel *schema.Relation
		var rows schema.Rows
		if blk.Agg != nil {
			rel, rows, err = e.evalGrouped(blk, seg)
		} else {
			rel, rows, err = e.evalBroken(blk, seg.b, seg.iterator())
		}
		if err != nil {
			return nil, nil, "", err
		}
		return rel, schema.WithContext(ctx, schema.IterateRows(rows, schema.DefaultBatchSize)), decline, nil
	}

	p, err := buildProjector(blk.Items(), seg.b)
	if err != nil {
		seg.close()
		return nil, nil, "", err
	}
	if !p.identity {
		seg.mk = append(seg.mk, projStage(p, seg.b))
	}
	var out schema.RowIterator
	if blk.Distinct != nil {
		out = &distinctMergeIter{x: newExchange(seg, distinctKeys()), seen: make(map[string]bool)}
	} else {
		out = seg.iterator()
	}
	if blk.Limit != nil {
		n := int(blk.Limit.N)
		if n < 0 {
			n = 0
		}
		out = &limitIter{src: out, remaining: n}
	}
	// Bind the pipeline head to ctx as well: sources are contracted to
	// check ctx inside their scans, but this guarantees cancellation for
	// any Source implementation (fragment stage sources, adapters) and
	// for a cancellation error overtaken inside the exchange.
	return p.rel, schema.WithContext(ctx, out), decline, nil
}

// openSegment compiles a block's source node — anything but a join, which
// openJoinBlock compiles — into a segment and applies the block's residual
// filters: folded into the scan when the source is a single relation,
// appended as filter stages otherwise.
func (e *Engine) openSegment(ctx context.Context, src plan.Node, blk *plan.Block, workers int) (*parSeg, error) {
	var seg *parSeg
	switch x := src.(type) {
	case *plan.Scan:
		return e.openScanSeg(ctx, x, blk, workers) // folds the filters into the scan itself
	case *plan.Values:
		// A single synthetic row.
		seg = &parSeg{b: &binding{}, it: schema.IterateRows(schema.Rows{{}}, 1), workers: workers}
	default:
		var err error
		if seg, err = e.openSubBlock(ctx, src, workers); err != nil {
			return nil, err
		}
	}
	return filterSeg(seg, blk)
}

// filterSeg appends the block's residual filters to a segment as stages. A
// filter naming a column the segment lacks fails here, at compile, like a
// scan filter does — not on the first row that reaches it, which an empty
// input never produces. The segment is released on that error.
func filterSeg(seg *parSeg, blk *plan.Block) (*parSeg, error) {
	for _, c := range blk.FilterConds() {
		if err := seg.addFilter(c); err != nil {
			return nil, err
		}
	}
	return seg, nil
}

// openJoinBlock compiles a block that reads a join. A join that vectorizes
// (vecjoin.go) is a columnar source: the whole-block kernels get it first,
// and a block they decline takes rows from the same probe. Any other join is
// the row probe stages on the probe side's segment. A nil iterator means the
// caller drives the returned segment, the block's residual filters already
// appended; why is openVecBlock's.
func (e *Engine) openJoinBlock(ctx context.Context, j *plan.Join, blk *plan.Block, workers int) (rel *schema.Relation, it schema.RowIterator, seg *parSeg, why string, err error) {
	core, seg, err := e.compileJoin(ctx, j, workers)
	if err != nil {
		return nil, nil, nil, "", err
	}
	why = DeclineJoin
	if _, ok := e.src.(ColScanner); !ok {
		why = DeclineRowSource
	}
	if core != nil {
		rel, it, why, err = e.openVecBlock(ctx, core.source(blk), blk)
		if err != nil || it != nil {
			return rel, it, nil, why, err
		}
		if seg, err = core.segment(ctx, workers); err != nil {
			return nil, nil, nil, "", err
		}
	}
	if seg, err = filterSeg(seg, blk); err != nil {
		return nil, nil, nil, "", err
	}
	return nil, nil, seg, why, nil
}

// openSubBlock compiles a nested block (which picks its own worker count)
// and exposes its output iterator as a segment source: a derived table under
// its alias, any other nested operator chain bound unqualified.
func (e *Engine) openSubBlock(ctx context.Context, n plan.Node, workers int) (*parSeg, error) {
	alias := ""
	if d, ok := n.(*plan.Derived); ok {
		n, alias = d.Input, d.Alias
	}
	rel, it, _, err := e.openBlock(ctx, n)
	if err != nil {
		return nil, err
	}
	return &parSeg{b: bindingFromRelation(rel, alias), it: it, workers: workers}, nil
}

// openScanSeg opens a single-relation scan as a segment: the node's pushed
// predicate, the block's residual filters, and a pruned column set — the
// node's own Columns when the optimizer set them, otherwise derived from
// what the block reads. The segment's binding reflects the projected layout.
func (e *Engine) openScanSeg(ctx context.Context, s *plan.Scan, blk *plan.Block, workers int) (*parSeg, error) {
	rel, err := RelationSchema(e.src, s.Table)
	if err != nil {
		return nil, err
	}
	qual := scanQual(s)
	full := bindingFromRelation(rel, qual)

	// The scan predicate (and any residual block filters — a single
	// relation is always in scope) runs against the full-width row, before
	// projection.
	filters := blk.FilterConds()
	conds := make([]sqlparser.Expr, 0, 1+len(filters))
	if s.Predicate != nil {
		conds = append(conds, s.Predicate)
	}
	conds = append(conds, filters...)

	b := full
	cols := e.scanColumns(s, blk, full)
	if cols != nil {
		b = bindingFromRelation(rel.Project(cols), qual)
	}
	seg := &parSeg{b: b, workers: workers}

	// Limit pushdown into the batch size: when nothing between the scan and
	// the limit can drop or reorder rows (no filter, no breaker, no
	// DISTINCT), the scan never needs to materialize more than N rows at
	// once, so a small LIMIT stops after one small pivot.
	batch := schema.DefaultBatchSize
	if blk.Limit != nil && len(conds) == 0 &&
		blk.Agg == nil && blk.Win == nil && blk.Sort == nil && blk.Distinct == nil {
		if n := int(blk.Limit.N); n >= 0 && n < batch {
			batch = n + 1 // never 0: 0 means "default"
		}
	}

	// A columnar source runs the filter kernels and the survivor pivot on
	// the claiming worker, so rejected rows and pruned columns are never
	// pivoted to row form and no scan stage is needed. A filter that does
	// not compile names a column the table lacks: that fails the query
	// whatever the table holds.
	if cs, ok := e.src.(ColScanner); ok {
		p, err := compileVecScan(rel, full, conds, cols)
		if err != nil {
			return nil, err
		}
		sc := p.colScan(rel.Arity())
		sc.BatchSize = batch
		ms, err := cs.OpenColMorsels(ctx, s.Table, sc)
		if err != nil {
			return nil, err
		}
		seg.ms = scanVecMorsels(ms, p, workers)
		return seg, nil
	}

	// A source serving rows only is opened raw, and the predicate and
	// projection run per worker in a scan stage.
	seg.it, err = OpenScan(ctx, e.src, s.Table, batch)
	if err != nil {
		return nil, err
	}
	if len(conds) > 0 || cols != nil {
		seg.mk = append(seg.mk, scanStage(full, conds, cols))
	}
	return seg, nil
}

// scanQual is the qualifier a scan's columns resolve under: its alias, else
// the table's name.
func scanQual(s *plan.Scan) string {
	if s.Alias != "" {
		return s.Alias
	}
	return s.Table
}

// scanColumns decides the projection pushed into a scan: the plan's pruned
// set when the optimizer recorded one, otherwise resolved from the block's
// own requirements. nil keeps the full width.
func (e *Engine) scanColumns(s *plan.Scan, blk *plan.Block, full *binding) []int {
	if s.Columns != nil {
		idxs := make([]int, 0, len(s.Columns))
		for _, name := range s.Columns {
			i, err := full.resolve(&sqlparser.ColumnRef{Name: name})
			if err != nil {
				return nil // stale pruning: fall back to the full width
			}
			idxs = append(idxs, i)
		}
		return idxs
	}
	return scanPushdown(blk, full)
}

// scanPushdown resolves the block's column requirements (plan.Block's single
// analysis) onto positions of its single-table source, so the scan projects
// early and unused columns never leave storage. It returns positions in
// select-list-first order (making the downstream projection an identity
// whenever possible); nil means no pushdown (star projection, unresolvable
// reference, or nothing to prune). The scan's filter runs before projection,
// so filter-only columns (Requirements.FilterCols) need not be kept.
func scanPushdown(blk *plan.Block, b *binding) []int {
	reqs := blk.Requirements()
	if !reqs.Prunable() {
		return nil
	}
	var idxs []int
	seen := make(map[int]bool)
	for _, c := range reqs.Cols {
		i, err := b.resolve(c)
		if err != nil {
			return nil // let the original resolution error surface downstream
		}
		if !seen[i] {
			seen[i] = true
			idxs = append(idxs, i)
		}
	}

	if len(idxs) >= len(b.cols) {
		// Full width: only worthwhile when it reorders into an identity
		// projection of plain column references (the classic SELECT y, x
		// case); otherwise the scan copy costs more than it saves.
		if !allPlainItems(blk) || identityOrder(idxs) {
			return nil
		}
	}
	if len(idxs) == 0 {
		// COUNT(*)-style blocks read no columns at all; ship empty rows.
		return []int{}
	}
	return idxs
}

func allPlainItems(blk *plan.Block) bool {
	if blk.Agg != nil || blk.Win != nil || blk.Sort != nil {
		return false
	}
	for _, it := range blk.Items() {
		if _, ok := it.Expr.(*sqlparser.ColumnRef); !ok {
			return false
		}
	}
	return true
}

func identityOrder(idxs []int) bool {
	for i, v := range idxs {
		if i != v {
			return false
		}
	}
	return true
}

// evalBroken is the pipeline-breaker path for window functions and ORDER BY,
// which need the whole input (ORDER BY + LIMIT sorts fully before
// truncating): the segment's output is drained here and the materialized
// operators run over it. Only the breaker's own evaluation is
// single-threaded — its input is produced by the segment's workers, and the
// exchange's ordering makes sort ties and window frames independent of the
// worker count.
func (e *Engine) evalBroken(blk *plan.Block, b *binding, it schema.RowIterator) (*schema.Relation, schema.Rows, error) {
	rows, err := schema.DrainIterator(it)
	if err != nil {
		return nil, nil, err
	}
	out, orderRows, err := e.evalProjection(blk, b, rows)
	if err != nil {
		return nil, nil, err
	}
	return e.finishBroken(blk, b, out, orderRows)
}

// finishBroken applies the post-materialization clauses of a breaker block
// — DISTINCT, ORDER BY, LIMIT — shared by the grouped, window and sort
// paths.
func (e *Engine) finishBroken(blk *plan.Block, b *binding, out *Result, orderRows schema.Rows) (*schema.Relation, schema.Rows, error) {
	if blk.Distinct != nil {
		out.Rows = distinctRows(out.Rows)
		orderRows = nil
	}

	if blk.Sort != nil {
		// A LIMIT below the sort turns it into top-K selection: sortResult
		// only needs the first n rows of the full ordering.
		limit := -1
		if blk.Limit != nil {
			if limit = int(blk.Limit.N); limit < 0 {
				limit = 0
			}
		}
		if err := sortResult(out, orderRows, b, blk.Sort.By, limit); err != nil {
			return nil, nil, err
		}
	}

	if blk.Limit != nil {
		n := int(blk.Limit.N)
		if n < 0 {
			n = 0
		}
		if n < len(out.Rows) {
			out.Rows = out.Rows[:n]
		}
	}
	return out.Schema, out.Rows, nil
}

// openJoin compiles a join that is itself one side of a join into a
// segment: rows pivoted from the vectorized probe, or the row probe stages.
func (e *Engine) openJoin(ctx context.Context, j *plan.Join, workers int) (*parSeg, error) {
	core, seg, err := e.compileJoin(ctx, j, workers)
	if core != nil {
		return core.segment(ctx, workers)
	}
	return seg, err
}

// compileJoin compiles a join: the build (right) side is materialized and
// indexed, the probe (left) side streams, each worker probing its own
// morsels against the shared immutable index. Pure equi-joins over a columnar
// probe scan compile to the vectorized core (vecjoin.go), nothing opened on
// the probe side yet; every other join comes back as a segment — the probe
// side's, with the row-at-a-time hash probe appended when ON holds an
// equality of plain column references, else nested loops. Exactly one of the
// two is non-nil on success.
func (e *Engine) compileJoin(ctx context.Context, j *plan.Join, workers int) (*vecJoinCore, *parSeg, error) {
	probe, ok := e.compileVecJoinProbe(j)
	if !ok {
		left, err := e.openJoinSide(ctx, j.Left, workers)
		if err != nil {
			return nil, nil, err
		}
		rb, rrows, err := e.drainBuildSide(ctx, j.Right)
		if err != nil {
			left.close()
			return nil, nil, err
		}
		return nil, joinFromBuild(j, left, rb, rrows), nil
	}
	rb, rrows, err := e.drainBuildSide(ctx, j.Right)
	if err != nil {
		return nil, nil, err
	}
	eqL, eqR, rest := splitEquiJoin(j.On, probe.b, rb)
	if len(eqL) == 0 || len(rest) > 0 {
		// A late decline, known only now that the build side is bound: the
		// row probe over the build rows already drained.
		left, err := e.openJoinSide(ctx, j.Left, workers)
		if err != nil {
			return nil, nil, err
		}
		return nil, joinFromBuild(j, left, rb, rrows), nil
	}
	build := schema.BatchFromRows(rb.relation(""), rrows)
	return newVecJoinCore(probe, rb, build, eqL, eqR, j.Type == sqlparser.JoinLeft, workers), nil, nil
}

// drainBuildSide compiles and materializes a join's build input. It is
// drained on the caller's goroutine (one worker): the probe cannot start
// before the build is complete, and a nested block below it still picks its
// own worker count.
func (e *Engine) drainBuildSide(ctx context.Context, n plan.Node) (*binding, schema.Rows, error) {
	seg, err := e.openJoinSide(ctx, n, 1)
	if err != nil {
		return nil, nil, err
	}
	rows, err := schema.DrainIterator(seg.iterator())
	if err != nil {
		return nil, nil, err
	}
	return seg.b, rows, nil
}

// joinFromBuild appends the row-path probe stage to the probe side's segment
// for an already-drained build side. The hash index is built partitioned
// across the segment's workers.
func joinFromBuild(j *plan.Join, seg *parSeg, rb *binding, rrows schema.Rows) *parSeg {
	lb := seg.b
	cb := lb.concat(rb)
	seg.b = cb

	if j.Type == sqlparser.JoinCross {
		seg.mk = append(seg.mk, loopProbeStage(rrows, nil, cb, false, nil))
		return seg
	}

	// Hash join fast path: ON is a conjunction containing at least one
	// left.col = right.col equality.
	leftJoin, nullR := j.Type == sqlparser.JoinLeft, nullRow(len(rb.cols))
	eqL, eqR, rest := splitEquiJoin(j.On, lb, rb)
	if len(eqL) > 0 {
		ix := buildJoinIndex(rrows, eqR, seg.workers)
		seg.mk = append(seg.mk, hashProbeStage(ix, rrows, eqL, rest, cb, leftJoin, nullR))
		return seg
	}
	seg.mk = append(seg.mk, loopProbeStage(rrows, j.On, cb, leftJoin, nullR))
	return seg
}

// openJoinSide compiles one side of a join: a scan, a nested join, a nested
// block, or any of those under side-pushed filters.
func (e *Engine) openJoinSide(ctx context.Context, n plan.Node, workers int) (*parSeg, error) {
	switch x := n.(type) {
	case *plan.Scan:
		return e.openScanSeg(ctx, x, &plan.Block{}, workers)
	case *plan.Join:
		return e.openJoin(ctx, x, workers)
	case *plan.Filter:
		seg, err := e.openJoinSide(ctx, x.Input, workers)
		if err != nil {
			return nil, err
		}
		if err := seg.addFilter(x.Cond); err != nil {
			return nil, err
		}
		return seg, nil
	default:
		return e.openSubBlock(ctx, n, workers)
	}
}

func joinRow(l, r schema.Row) schema.Row {
	out := make(schema.Row, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}

func nullRow(n int) schema.Row {
	out := make(schema.Row, n)
	for i := range out {
		out[i] = schema.Null()
	}
	return out
}

// splitEquiJoin extracts left.col = right.col equalities from the ON
// condition. It returns aligned index slices into the left and right
// bindings plus the residual conjuncts.
func splitEquiJoin(on sqlparser.Expr, lb, rb *binding) (eqL, eqR []int, rest []sqlparser.Expr) {
	for _, c := range sqlparser.Conjuncts(on) {
		be, ok := c.(*sqlparser.BinaryExpr)
		if !ok || be.Op != sqlparser.OpEq {
			rest = append(rest, c)
			continue
		}
		lc, lok := be.L.(*sqlparser.ColumnRef)
		rc, rok := be.R.(*sqlparser.ColumnRef)
		if !lok || !rok {
			rest = append(rest, c)
			continue
		}
		li, lerr := lb.resolve(lc)
		ri, rerr := rb.resolve(rc)
		if lerr == nil && rerr == nil {
			eqL = append(eqL, li)
			eqR = append(eqR, ri)
			continue
		}
		// Try swapped sides.
		li, lerr = lb.resolve(rc)
		ri, rerr = rb.resolve(lc)
		if lerr == nil && rerr == nil {
			eqL = append(eqL, li)
			eqR = append(eqR, ri)
			continue
		}
		rest = append(rest, c)
	}
	return eqL, eqR, rest
}

func residualOK(env *rowEnv, row schema.Row, rest []sqlparser.Expr) (bool, error) {
	env.row = row
	for _, c := range rest {
		ok, err := truthy(env, c)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// outCol is one output column of a projection: either an expression to
// evaluate or a direct star expansion of an input position.
type outCol struct {
	expr    sqlparser.Expr
	name    string
	typ     schema.Type
	sens    bool
	starIdx int // >=0 when the column is a direct star expansion
}

// projector is the compiled select list of a non-grouped block: output
// columns, output schema, and whether the projection is the identity.
type projector struct {
	cols     []outCol
	rel      *schema.Relation
	identity bool
}

// buildProjector expands stars and precomputes the output schema once, so
// per-batch projection only evaluates expressions.
func buildProjector(items []sqlparser.SelectItem, b *binding) (*projector, error) {
	var cols []outCol
	for i, it := range items {
		if st, ok := it.Expr.(*sqlparser.Star); ok {
			idxs, err := b.starIndexes(st)
			if err != nil {
				return nil, err
			}
			for _, idx := range idxs {
				c := b.cols[idx]
				cols = append(cols, outCol{name: c.name, typ: c.typ, sens: c.sens, starIdx: idx})
			}
			continue
		}
		name := it.Alias
		if name == "" {
			name = outputName(it.Expr, i)
		}
		// A plain column reference is a direct index copy: resolve it once
		// here instead of re-resolving per row (on failure, keep the
		// expression so the original runtime error surfaces).
		if c, ok := it.Expr.(*sqlparser.ColumnRef); ok {
			if idx, err := b.resolve(c); err == nil {
				bc := b.cols[idx]
				cols = append(cols, outCol{name: name, typ: bc.typ, sens: bc.sens, starIdx: idx})
				continue
			}
		}
		cols = append(cols, outCol{
			expr:    it.Expr,
			name:    name,
			typ:     b.staticType(it.Expr),
			sens:    b.sensitiveExpr(it.Expr),
			starIdx: -1,
		})
	}

	rel := &schema.Relation{Columns: make([]schema.Column, len(cols))}
	identity := len(cols) == len(b.cols)
	for i, c := range cols {
		rel.Columns[i] = schema.Column{Name: c.name, Type: c.typ, Sensitive: c.sens}
		if c.starIdx != i {
			identity = false
		}
	}
	return &projector{cols: cols, rel: rel, identity: identity}, nil
}

// projectInto evaluates one output row into a caller-provided destination,
// so batch loops can back many rows with one allocation.
func (p *projector) projectInto(env *rowEnv, dst schema.Row) error {
	for ci, c := range p.cols {
		if c.starIdx >= 0 {
			dst[ci] = env.row[c.starIdx]
			continue
		}
		v, err := evalExpr(env, c.expr)
		if err != nil {
			return err
		}
		dst[ci] = v
	}
	return nil
}

// evalProjection handles the materialized non-grouped case, including window
// functions. It returns the result plus the input rows aligned 1:1 with
// output rows so ORDER BY can fall back to input columns.
func (e *Engine) evalProjection(blk *plan.Block, b *binding, rows schema.Rows) (*Result, schema.Rows, error) {
	items := blk.Items()
	p, err := buildProjector(items, b)
	if err != nil {
		return nil, nil, err
	}

	// Precompute window values per row.
	winVals, err := e.evalWindows(items, b, rows)
	if err != nil {
		return nil, nil, err
	}

	out := make(schema.Rows, len(rows))
	env := (&rowEnv{b: b}).reuse()
	nc := len(p.cols)
	var vals []schema.Value
	if !p.identity {
		// One backing array for the whole materialized projection.
		vals = make([]schema.Value, len(rows)*nc)
	}
	env.win = winVals
	for ri, row := range rows {
		env.row = row
		env.winRow = ri
		if p.identity {
			out[ri] = row
			continue
		}
		orow := vals[ri*nc : (ri+1)*nc : (ri+1)*nc]
		if err := p.projectInto(env, orow); err != nil {
			return nil, nil, err
		}
		out[ri] = orow
	}
	return &Result{Schema: p.rel, Rows: out}, rows, nil
}

func distinctRows(rows schema.Rows) schema.Rows {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	var idx []int
	var kbuf []byte
	for _, r := range rows {
		if idx == nil {
			idx = allIndexes(len(r))
		}
		kbuf = r.AppendGroupKey(kbuf[:0], idx)
		if !seen[string(kbuf)] {
			seen[string(kbuf)] = true
			out = append(out, r)
		}
	}
	return out
}

func allIndexes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
