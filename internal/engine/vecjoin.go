package engine

import (
	"context"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// Vectorized equi-join probe. The build (right) side is materialized into
// column vectors and indexed by canonical group-key bytes computed
// vector-at-a-time; the probe (left) side stays columnar through the scan's
// filter kernels, probes the index per surviving batch position, and both
// sides' payloads are gathered by selection vector into the combined output
// rows — one backing array per batch, no per-match row allocation.
//
// Decline-don't-approximate: the path requires an inner or left join whose
// ON clause is purely equi (no residual conjuncts — the row probe owns
// residual evaluation order), with the probe a bare base-table scan over a
// ColScanner whose predicate vectorizes. Anything else takes the row probe
// stages, reusing the already-drained build side where possible.

// vecJoinCore is the shared immutable state of one compiled vectorized
// join: the probe scan plan, the partitioned build index, and the build
// payload vectors. Safe for concurrent probes after construction.
type vecJoinCore struct {
	p        *vecScanPlan
	arity    int // probe base-table arity, for loadCols
	ix       *joinIndex
	bvecs    []schema.ColVec
	eqL      []int // key positions in the probe batch layout
	leftJoin bool
	lw, rw   int
	out      []int // combined-layout positions to emit; identity unless retargeted
}

// retarget narrows the emitted columns to the given combined-layout
// positions, folding an all-column downstream projection into the gather
// (the combined wide rows are then never materialized). Must be called
// before the first probe.
func (c *vecJoinCore) retarget(out []int) { c.out = out }

// newVecJoinCore materializes the build side into vectors and builds the
// partitioned key index (one partition when workers < 2).
func newVecJoinCore(p *vecScanPlan, arity int, rb *binding, rrows schema.Rows, eqL, eqR []int, leftJoin bool, workers int) *vecJoinCore {
	bcols := make([]schema.Column, len(rb.cols))
	for i, c := range rb.cols {
		if c.sens {
			bcols[i] = schema.SensitiveCol(c.name, c.typ)
		} else {
			bcols[i] = schema.Col(c.name, c.typ)
		}
	}
	bb := schema.BatchFromRows(schema.NewRelation("", bcols...), rrows)
	core := &vecJoinCore{
		p:        p,
		arity:    arity,
		bvecs:    bb.Vecs,
		eqL:      eqL,
		leftJoin: leftJoin,
		lw:       p.m,
		rw:       len(rb.cols),
	}
	core.ix = buildColJoinIndex(bb.Vecs, len(rrows), eqR, workers)
	core.out = make([]int, core.lw+core.rw)
	for i := range core.out {
		core.out[i] = i
	}
	return core
}

// buildColJoinIndex is the columnar twin of buildJoinIndex: build keys come
// from the typed key vectors instead of boxed rows, vector-at-a-time.
func buildColJoinIndex(bvecs []schema.ColVec, n int, eqR []int, workers int) *joinIndex {
	if workers < 2 || n < 2*schema.DefaultBatchSize {
		m := make(map[string][]int, n)
		var kbuf []byte
		for i := 0; i < n; i++ {
			kbuf = kbuf[:0]
			for _, c := range eqR {
				kbuf = bvecs[c].AppendGroupKey(kbuf, i)
			}
			m[string(kbuf)] = append(m[string(kbuf)], i)
		}
		return &joinIndex{parts: []map[string][]int{m}}
	}

	keys := make([]string, n)
	hs := make([]uint32, n)
	parallelRanges(n, workers, func(lo, hi int) {
		var kbuf []byte
		for i := lo; i < hi; i++ {
			kbuf = kbuf[:0]
			for _, c := range eqR {
				kbuf = bvecs[c].AppendGroupKey(kbuf, i)
			}
			keys[i] = string(kbuf)
			hs[i] = fnv32a(keys[i])
		}
	})
	return &joinIndex{parts: partitionKeyIndex(keys, hs, workers)}
}

// vecJoinExec is one goroutine's probe state: the filter executor, the key
// scratch, and the match selection vectors (probe and build positions; a
// build position of -1 is a left-join null extension).
type vecJoinExec struct {
	core       *vecJoinCore
	ex         *vecExec
	kbuf       []byte
	lsel, rsel []int
}

func newVecJoinExec(core *vecJoinCore) *vecJoinExec {
	return &vecJoinExec{core: core, ex: newVecExec(core.p)}
}

// probe filters one probe batch, probes the build index for each survivor,
// and gathers the matched payloads into combined output rows. This is the
// operator's documented pivot boundary: everything upstream of the returned
// rows is columnar.
func (e *vecJoinExec) probe(cb *schema.ColBatch) (schema.Rows, error) {
	c := e.core
	sel, err := e.ex.filterSel(cb)
	if err != nil {
		return nil, err
	}
	lsel, rsel := e.lsel[:0], e.rsel[:0]
	probeOne := func(i int) {
		e.kbuf = e.kbuf[:0]
		for _, k := range c.eqL {
			e.kbuf = cb.Vecs[k].AppendGroupKey(e.kbuf, i)
		}
		matches := c.ix.lookup(e.kbuf)
		if len(matches) == 0 {
			if c.leftJoin {
				lsel = append(lsel, i)
				rsel = append(rsel, -1)
			}
			return
		}
		for _, ri := range matches {
			lsel = append(lsel, i)
			rsel = append(rsel, ri)
		}
	}
	if sel == nil {
		for i := 0; i < cb.N; i++ {
			probeOne(i)
		}
	} else {
		for _, i := range sel {
			probeOne(i)
		}
	}
	e.lsel, e.rsel = lsel, rsel

	// Never nil on success: a nil Rows in a morsel means worker exhaustion
	// to the exchange, and an all-filtered batch is not exhaustion.
	nout := len(lsel)
	if nout == 0 {
		return schema.Rows{}, nil
	}
	w := len(c.out)
	vals := make([]schema.Value, nout*w)
	rows := make(schema.Rows, nout)
	for k := range rows {
		rows[k] = vals[k*w : (k+1)*w : (k+1)*w]
	}
	for oc, pos := range c.out {
		if pos < c.lw {
			cb.Vecs[pos].Gather(vals[oc:], w, lsel)
		} else {
			c.bvecs[pos-c.lw].Gather(vals[oc:], w, rsel)
		}
	}
	return rows, nil
}

// vecJoinMorsels is the join as a morsel source: each claim filters, probes
// and gathers its own batch on the claiming worker's goroutine against the
// shared immutable core.
type vecJoinMorsels struct {
	src  schema.ColMorselSource
	core *vecJoinCore
	// sole is the one probe executor of a one-worker segment, its scratch
	// reused across claims; nil when several workers claim concurrently and
	// each claim builds its own.
	sole *vecJoinExec
}

func newVecJoinMorsels(src schema.ColMorselSource, core *vecJoinCore, workers int) *vecJoinMorsels {
	v := &vecJoinMorsels{src: src, core: core}
	if workers == 1 {
		v.sole = newVecJoinExec(core)
	}
	return v
}

func (v *vecJoinMorsels) NextMorsel() (schema.Morsel, error) {
	cm, err := v.src.NextColMorsel()
	if err != nil {
		return schema.Morsel{Seq: cm.Seq}, err
	}
	if cm.Batch == nil {
		return schema.Morsel{}, nil
	}
	ex := v.sole
	if ex == nil {
		ex = newVecJoinExec(v.core)
	}
	rows, err := ex.probe(cm.Batch)
	if err != nil {
		return schema.Morsel{Seq: cm.Seq}, err
	}
	return schema.Morsel{Seq: cm.Seq, Rows: rows}, nil
}

func (v *vecJoinMorsels) Close() { v.src.Close() }

// compileVecJoinProbe compiles the probe (left) side of a join for the
// vectorized path: it must be a bare base-table scan over a ColScanner
// whose predicate vectorizes. Returns the scan plan, the scan node, the
// projected probe binding and the base-table arity. ok=false (nothing
// opened, no I/O) sends the caller to the row path — including for unknown
// tables, so open-error ordering stays exactly the row path's.
func (e *Engine) compileVecJoinProbe(n plan.Node) (*vecScanPlan, *plan.Scan, *binding, int, bool) {
	s, ok := n.(*plan.Scan)
	if !ok {
		return nil, nil, nil, 0, false
	}
	if _, ok := e.src.(ColScanner); !ok {
		return nil, nil, nil, 0, false
	}
	rel, err := RelationSchema(e.src, s.Table)
	if err != nil {
		return nil, nil, nil, 0, false
	}
	qual := s.Table
	if s.Alias != "" {
		qual = s.Alias
	}
	full := bindingFromRelation(rel, qual)
	var conds []sqlparser.Expr
	if s.Predicate != nil {
		conds = append(conds, s.Predicate)
	}
	b := full
	cols := e.scanColumns(s, &plan.Block{}, full)
	if cols != nil {
		b = bindingFromRelation(rel.Project(cols), qual)
	}
	p, ok := compileVecScan(rel, qual, full, conds, cols)
	if !ok {
		return nil, nil, nil, 0, false
	}
	return p, s, b, rel.Arity(), true
}

// openVecJoin tries the vectorized probe for a join. handled=false means
// nothing was opened and the caller owns the row path. When handled is true
// the vec path owns the join — including the late declines (no equi key,
// residual ON conjuncts) discovered only after draining the build side,
// which fall back to the row probe over the already-drained build rows.
func (e *Engine) openVecJoin(ctx context.Context, j *plan.Join, workers int) (*parSeg, bool, error) {
	if j.Type != sqlparser.JoinInner && j.Type != sqlparser.JoinLeft {
		return nil, false, nil
	}
	p, s, pb, arity, ok := e.compileVecJoinProbe(j.Left)
	if !ok {
		return nil, false, nil
	}
	rb, rrows, err := e.drainBuildSide(ctx, j.Right)
	if err != nil {
		return nil, true, err
	}
	eqL, eqR, rest := splitEquiJoin(j.On, pb, rb)
	if len(eqL) == 0 || len(rest) > 0 {
		left, err := e.openJoinSide(ctx, j.Left, workers)
		if err != nil {
			return nil, true, err
		}
		return joinFromBuild(j, left, rb, rrows), true, nil
	}
	core := newVecJoinCore(p, arity, rb, rrows, eqL, eqR, j.Type == sqlparser.JoinLeft, workers)
	ms, err := e.src.(ColScanner).OpenColMorsels(ctx, s.Table, p.colScan(arity))
	if err != nil {
		return nil, true, err
	}
	return &parSeg{b: pb.concat(rb), ms: newVecJoinMorsels(ms, core, workers), workers: workers}, true, nil
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
