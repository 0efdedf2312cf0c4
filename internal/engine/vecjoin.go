package engine

import (
	"context"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// Vectorized equi-join: a columnar source. The build (right) side is held as
// column vectors and indexed by canonical group-key bytes computed
// vector-at-a-time; the probe (left) side stays columnar through the scan's
// filter kernels, probes the index per surviving batch position, and both
// sides' vectors are gathered by match index into one joined column batch —
// typed payloads and NULL masks preserved, no value boxed. The whole-block
// kernels (vecblock.go) take that batch exactly as they take a scan's; a
// block they decline gets rows from the same probe through the segment's one
// pivot adapter (vecMorsels).
//
// Decline-don't-approximate: the path requires an inner or left join whose
// ON clause is purely equi (no residual conjuncts — the row probe owns
// residual evaluation order), with the probe a bare base-table scan over a
// ColScanner whose predicate vectorizes. Anything else takes the row probe
// stages (Engine.compileJoin).

// vecJoinProbe is the compiled probe side of a vectorized join: the source
// and table it scans, the scan plan, the table's arity (for loadCols), and
// the binding of the columns the probe emits.
type vecJoinProbe struct {
	cs    ColScanner
	table string
	p     *vecScanPlan
	arity int
	b     *binding
}

// compileVecJoinProbe compiles the probe (left) side of a join for the
// vectorized path: an inner or left join whose probe is a bare base-table
// scan over a ColScanner with a predicate that vectorizes. ok=false (nothing
// opened, no I/O) sends the caller to the row path — including for unknown
// tables, so open-error ordering stays exactly the row path's.
func (e *Engine) compileVecJoinProbe(j *plan.Join) (*vecJoinProbe, bool) {
	if j.Type != sqlparser.JoinInner && j.Type != sqlparser.JoinLeft {
		return nil, false
	}
	s, ok := j.Left.(*plan.Scan)
	if !ok {
		return nil, false
	}
	cs, ok := e.src.(ColScanner)
	if !ok {
		return nil, false
	}
	rel, err := RelationSchema(e.src, s.Table)
	if err != nil {
		return nil, false
	}
	full := bindingFromRelation(rel, scanQual(s))
	var conds []sqlparser.Expr
	if s.Predicate != nil {
		conds = append(conds, s.Predicate)
	}
	p, err := compileVecScan(rel, full, conds, e.scanColumns(s, &plan.Block{}, full))
	if err != nil {
		return nil, false
	}
	return &vecJoinProbe{cs: cs, table: s.Table, p: p, arity: rel.Arity(), b: p.outBinding()}, true
}

// vecJoinCore is the shared immutable state of one compiled vectorized
// join: the probe scan plan, the partitioned build index with its typed
// fronts, and the build payload vectors. Safe for concurrent probes after
// construction.
type vecJoinCore struct {
	probe    *vecJoinProbe
	b        *binding         // the joined layout: probe columns, then build columns
	rel      *schema.Relation // b as a relation
	ix       *joinIndex
	bvecs    []schema.ColVec
	eqL      []int // key positions in the probe batch layout
	leftJoin bool

	// Typed fronts of ix for a single key column, keyed by what identifies a
	// canonical group key within its type — the identities groupTable's
	// fronts use, so Int 1 still meets Float 1.0: nums by NumericKeyBits of an
	// Int or Float build key, times by UnixNano, strs by the raw string. At
	// most one is non-nil, chosen by the build key vector's type, and it holds
	// every non-NULL build row, so a probe key of that type it misses matches
	// nothing. A probe batch of another representation (a NULL mask, a boxed
	// vector, a type of the other fronts) probes ix instead.
	nums, times map[uint64][]int
	strs        map[string][]int
}

// newVecJoinCore indexes the build side (one partition when workers < 2):
// build holds its rows, bound as rb.
func newVecJoinCore(probe *vecJoinProbe, rb *binding, build *schema.ColBatch, eqL, eqR []int, leftJoin bool, workers int) *vecJoinCore {
	core := &vecJoinCore{
		probe:    probe,
		b:        probe.b.concat(rb),
		ix:       buildColJoinIndex(build.Vecs, build.N, eqR, workers),
		bvecs:    build.Vecs,
		eqL:      eqL,
		leftJoin: leftJoin,
	}
	core.rel = core.b.relation("")
	if len(eqR) == 1 {
		core.buildFronts(&build.Vecs[eqR[0]], build.N)
	}
	return core
}

// buildFronts fills the typed front matching the build key vector through
// the index, so front and index hold the same match lists.
func (c *vecJoinCore) buildFronts(v *schema.ColVec, n int) {
	if v.Boxed() {
		return
	}
	var kbuf []byte
	matches := func(i int) []int {
		kbuf = v.AppendGroupKey(kbuf[:0], i)
		return c.ix.lookup(kbuf)
	}
	switch v.Typ {
	case schema.TypeString:
		c.strs = make(map[string][]int)
		for i := 0; i < n; i++ {
			if !v.Null(i) && c.strs[v.Strs[i]] == nil {
				c.strs[v.Strs[i]] = matches(i)
			}
		}
	case schema.TypeInt, schema.TypeFloat, schema.TypeTime:
		front := make(map[uint64][]int)
		if v.Typ == schema.TypeTime {
			c.times = front
		} else {
			c.nums = front
		}
		for i, b := range keyBits(nil, v, n, nil) {
			if !v.Null(i) && front[b] == nil {
				front[b] = matches(i)
			}
		}
	}
}

// nullKey reports whether any key column is NULL at row i: such a row joins
// nothing, on either side (NULL = NULL is not true).
func nullKey(vecs []schema.ColVec, cols []int, i int) bool {
	for _, c := range cols {
		if vecs[c].Null(i) {
			return true
		}
	}
	return false
}

// buildColJoinIndex is the columnar twin of buildJoinIndex: build keys come
// from the typed key vectors instead of boxed rows, vector-at-a-time.
func buildColJoinIndex(bvecs []schema.ColVec, n int, eqR []int, workers int) *joinIndex {
	if workers < 2 || n < 2*schema.DefaultBatchSize {
		m := make(map[string][]int, n)
		var kbuf []byte
		for i := 0; i < n; i++ {
			if nullKey(bvecs, eqR, i) {
				continue
			}
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
			if nullKey(bvecs, eqR, i) {
				continue // the empty key: partitionKeyIndex leaves it out
			}
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
// scratch, the match selection vectors (probe and build positions; a build
// position of -1 is a left-join null extension) and the joined batch.
type vecJoinExec struct {
	core       *vecJoinCore
	ex         *vecExec
	kbuf       []byte
	bits       []uint64 // the live probe keys of a typed numeric or time batch
	lsel, rsel []int
	// keep: every joined batch is the consumer's to retain, so each gets
	// fresh vectors; otherwise out and bufs are reused from batch to batch.
	keep bool
	out  schema.ColBatch
	bufs []schema.ColVec // the previous batch's vectors
}

func newVecJoinExec(core *vecJoinCore, keep bool) *vecJoinExec {
	return &vecJoinExec{core: core, ex: newVecExec(core.probe.p), keep: keep}
}

// match records probe row i's matches, or its null extension.
func (e *vecJoinExec) match(i int, matches []int) {
	if len(matches) == 0 {
		if e.core.leftJoin {
			e.lsel = append(e.lsel, i)
			e.rsel = append(e.rsel, -1)
		}
		return
	}
	for _, ri := range matches {
		e.lsel = append(e.lsel, i)
		e.rsel = append(e.rsel, ri)
	}
}

// run filters one probe batch, probes the build side for each survivor and
// gathers both sides' vectors by match index into the joined batch: dense
// (no selection), in probe order, possibly empty. Nothing is pivoted.
func (e *vecJoinExec) run(cb *schema.ColBatch) (*schema.ColBatch, error) {
	c := e.core
	sel, err := e.ex.filterSel(cb)
	if err != nil {
		return nil, err
	}
	n := cb.N
	if sel != nil {
		n = len(sel)
	}
	e.lsel, e.rsel = e.lsel[:0], e.rsel[:0]
	if !e.probeTyped(&cb.Vecs[c.eqL[0]], sel, n) {
		for k := 0; k < n; k++ {
			i := liveRow(sel, k)
			if nullKey(cb.Vecs, c.eqL, i) {
				e.match(i, nil)
				continue
			}
			e.kbuf = e.kbuf[:0]
			for _, col := range c.eqL {
				e.kbuf = cb.Vecs[col].AppendGroupKey(e.kbuf, i)
			}
			e.match(i, c.ix.lookup(e.kbuf))
		}
	}

	// Under keep the vectors are fresh and leave with the batch; otherwise
	// the previous batch's, which nobody reads any more, back this one's.
	lw := len(c.probe.b.cols)
	out := &e.out
	if e.keep {
		out = &schema.ColBatch{}
	}
	if e.keep || e.bufs == nil {
		e.bufs = make([]schema.ColVec, lw+len(c.bvecs))
	}
	*out = schema.ColBatch{Rel: c.rel, N: len(e.lsel), Vecs: e.bufs}
	for pos := range e.bufs {
		if pos < lw {
			e.bufs[pos] = cb.Vecs[pos].Gather(e.lsel, e.bufs[pos])
		} else {
			e.bufs[pos] = c.bvecs[pos-lw].Gather(e.rsel, e.bufs[pos])
		}
	}
	return out, nil
}

// probeTyped probes a typed front with one dense key vector, reporting
// false — nothing recorded — when this batch has to probe the encoded index.
func (e *vecJoinExec) probeTyped(v *schema.ColVec, sel []int, n int) bool {
	c := e.core
	if len(c.eqL) != 1 || v.Boxed() || v.Nulls != nil {
		return false
	}
	switch {
	case v.Typ == schema.TypeString && c.strs != nil:
		for k := 0; k < n; k++ {
			i := liveRow(sel, k)
			e.match(i, c.strs[v.Strs[i]])
		}
	case v.Typ == schema.TypeTime && c.times != nil:
		e.probeBits(c.times, v, sel, n)
	case (v.Typ == schema.TypeInt || v.Typ == schema.TypeFloat) && c.nums != nil:
		e.probeBits(c.nums, v, sel, n)
	default:
		return false
	}
	return true
}

// probeBits probes an 8-byte front with the live elements of a dense Int,
// Float or Time vector.
func (e *vecJoinExec) probeBits(front map[uint64][]int, v *schema.ColVec, sel []int, n int) {
	e.bits = keyBits(e.bits, v, n, sel)
	for k, b := range e.bits {
		e.match(liveRow(sel, k), front[b])
	}
}

// vecJoinIter is the join as a schema.ColIterator: one joined batch per
// probe batch that matched anything.
type vecJoinIter struct {
	src schema.ColIterator
	ex  *vecJoinExec
}

func (j *vecJoinIter) NextBatch() (*schema.ColBatch, error) {
	for {
		cb, err := j.src.NextBatch()
		if err != nil || cb == nil {
			return nil, err
		}
		out, err := j.ex.run(cb)
		if err != nil {
			return nil, err
		}
		if out.N > 0 {
			return out, nil
		}
	}
}

func (j *vecJoinIter) Close() { j.src.Close() }

// source is the join as the input of a whole-block kernel: the joined
// batches, with the block's residual filters compiled over the joined
// layout. nil when they do not compile.
func (c *vecJoinCore) source(blk *plan.Block) *vecSource {
	p, err := compileVecScan(c.rel, c.b, blk.FilterConds(), nil)
	if err != nil {
		return nil
	}
	return &vecSource{p: p, open: func(ctx context.Context, keep bool) (schema.ColIterator, error) {
		ci, err := c.probe.cs.OpenColScan(ctx, c.probe.table, c.probe.p.colScan(c.probe.arity))
		if err != nil {
			return nil, err
		}
		return &vecJoinIter{src: ci, ex: newVecJoinExec(c, keep)}, nil
	}}
}

// segment is the join as a morsel source for the row stages: each claim
// filters, probes and gathers its own batch on the claiming worker's
// goroutine against the shared immutable core, and the segment's adapter
// pivots the joined batch.
func (c *vecJoinCore) segment(ctx context.Context, workers int) (*parSeg, error) {
	ms, err := c.probe.cs.OpenColMorsels(ctx, c.probe.table, c.probe.p.colScan(c.probe.arity))
	if err != nil {
		return nil, err
	}
	mk := func() colStage { return newVecJoinExec(c, false) }
	return &parSeg{b: c.b, ms: newVecMorsels(ms, mk, workers), workers: workers}, nil
}
