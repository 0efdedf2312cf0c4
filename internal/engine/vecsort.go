package engine

import (
	"context"
	"sort"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// sortKeys is the typed ORDER BY machinery: one schema.KeyCol per order
// item, appended in row order, compared unboxed. It mirrors lessKeys /
// equalKeys exactly — schema.KeyCol.Compare is pairwise-identical to
// compareForSort — so swapping it under sort.SliceStable cannot change any
// result, only the cost per comparison.
type sortKeys struct {
	cols []schema.KeyCol
	desc []bool
}

func newSortKeys(items []sqlparser.OrderItem) *sortKeys {
	ks := &sortKeys{cols: make([]schema.KeyCol, len(items)), desc: make([]bool, len(items))}
	for i, it := range items {
		ks.desc[i] = it.Desc
	}
	return ks
}

// less orders rows a and b like lessKeys orders their key tuples.
func (ks *sortKeys) less(a, b int) bool {
	for i := range ks.cols {
		c := ks.cols[i].Compare(a, b)
		if c == 0 {
			continue
		}
		if ks.desc[i] {
			return c > 0
		}
		return c < 0
	}
	return false
}

// equal reports whether rows a and b are peers (all keys tie).
func (ks *sortKeys) equal(a, b int) bool {
	for i := range ks.cols {
		if ks.cols[i].Compare(a, b) != 0 {
			return false
		}
	}
	return true
}

// hasNaN reports whether any key column saw a float NaN. NaN ties with
// every float-comparable value, which breaks transitivity — less is then
// not a strict weak order. The full stable sort still matches the row path
// exactly (both run the identical comparator through sort.SliceStable on
// the same input order), but selection shortcuts like top-K would diverge,
// so they must decline.
func (ks *sortKeys) hasNaN() bool {
	for i := range ks.cols {
		if ks.cols[i].HasNaN() {
			return true
		}
	}
	return false
}

// lessStrict extends less to a strict total order by an original-index
// tiebreak. Valid only when hasNaN() is false: less is then a strict weak
// order, and under the tiebreak the first k elements of the full stable
// sort are exactly the k smallest under lessStrict, in lessStrict order.
func (ks *sortKeys) lessStrict(a, b int) bool {
	for i := range ks.cols {
		c := ks.cols[i].Compare(a, b)
		if c == 0 {
			continue
		}
		if ks.desc[i] {
			return c > 0
		}
		return c < 0
	}
	return a < b
}

// perm is the order in which the n appended rows leave an ORDER BY, cut to
// the first limit of them when limit is in [0, n): top-K selection when no
// key saw a NaN, else the full stable sort (the one deterministic answer
// under a comparator NaN makes non-transitive), truncated afterwards.
func (ks *sortKeys) perm(n, limit int) []int {
	if limit < 0 || limit > n {
		limit = n
	}
	if limit < n && !ks.hasNaN() {
		return ks.topK(n, limit)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, c int) bool {
		return ks.less(perm[a], perm[c])
	})
	return perm[:limit]
}

// topK selects the first k rows of the full stable sort of n rows without
// sorting all n, using a bounded max-heap under lessStrict (the heap root
// is the largest retained row; anything beating it displaces it). The
// result is in final output order. Caller guarantees 0 <= k < n and
// !hasNaN().
func (ks *sortKeys) topK(n, k int) []int {
	if k == 0 {
		return nil
	}
	h := make([]int, k)
	for i := 0; i < k; i++ {
		h[i] = i
	}
	for i := k/2 - 1; i >= 0; i-- {
		ks.siftDown(h, i)
	}
	for i := k; i < n; i++ {
		if ks.lessStrict(i, h[0]) {
			h[0] = i
			ks.siftDown(h, 0)
		}
	}
	// Heapsort extraction: repeatedly swap the max to the end. The array
	// ends up ascending under lessStrict — the final output order.
	for m := len(h) - 1; m > 0; m-- {
		h[0], h[m] = h[m], h[0]
		ks.siftDown(h[:m], 0)
	}
	return h
}

func (ks *sortKeys) siftDown(h []int, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && ks.lessStrict(h[c], h[r]) {
			c = r
		}
		if !ks.lessStrict(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// openVecSorted runs ORDER BY [LIMIT] over a block on a columnar source — a
// scan or a vectorized join — whose select list and sort keys are all plain
// columns, without the row path's pivot of
// the whole input: the sort keys come straight off the key vectors
// (drainSortKeys), the same typed comparator, top-K heap and NaN rule as
// sortResult order them, and only the rows of the final permutation — the
// LIMIT's 20 of 240 000 — are ever built. Expression keys or items, DISTINCT
// and windows stay with evalBroken, the reference.
func (e *Engine) openVecSorted(ctx context.Context, vs *vecSource, blk *plan.Block) (*schema.Relation, schema.RowIterator, error) {
	if vs == nil || blk.Distinct != nil {
		return nil, nil, nil
	}
	p := vs.p
	// The row path binds select list and sort keys to the scan's output
	// columns, never to the residual-only tail of the load layout.
	ob := p.outBinding()
	proj, err := buildProjector(blk.Items(), ob)
	if err != nil {
		return nil, nil, nil // row path reports the projection error
	}
	srcIdx, ok := projOutMap(proj)
	if !ok {
		return nil, nil, nil
	}
	srcs, needEval := planSortKeys(blk.Sort.By, proj.rel, bindingFromRelation(proj.rel, ""), ob)
	if needEval {
		return nil, nil, nil
	}
	keyCols := make([]int, len(srcs))
	for i, src := range srcs {
		keyCols[i] = src.idx
		if src.kind == srcOut {
			keyCols[i] = srcIdx[src.idx]
		}
	}

	ci, err := vs.open(ctx, true) // the run retains every batch until the pivot
	if err != nil {
		return nil, nil, err
	}
	defer ci.Close()
	// An identity pass over the load layout: filtered, owned batches.
	pass := &vecPassIter{ctx: ctx, src: ci, ex: newVecExec(p), orel: p.lrel}
	run, err := drainSortKeys(pass, keyCols, blk.Sort.By)
	if err != nil {
		return nil, nil, err
	}
	limit := -1
	if blk.Limit != nil {
		if limit = int(blk.Limit.N); limit < 0 {
			limit = 0
		}
	}
	rows := run.pivot(run.keys.perm(run.len(), limit), srcIdx)
	return proj.rel, schema.WithContext(ctx, schema.IterateRows(rows, schema.DefaultBatchSize)), nil
}

// vecSortRun is the drained input of a vectorized ORDER BY: the surviving
// batches, retained as they were pulled (the columnar ownership rule lets a
// consumer keep a batch: vectors are read-only windows, header and Sel its
// own), and their sort keys, appended from the key vectors without boxing
// an element. No row exists yet — pivot builds them, cell by cell, once the
// permutation says which ones leave.
type vecSortRun struct {
	batches []*schema.ColBatch
	// ends[b] counts the live rows of batches[:b+1]: live row g of the
	// whole input sits in the first batch b with ends[b] > g.
	ends []int
	keys *sortKeys
}

// drainSortKeys pulls pass dry. keyCols[i] is the position, in the batches'
// layout, of the i-th ORDER BY key.
func drainSortKeys(pass *vecPassIter, keyCols []int, items []sqlparser.OrderItem) (*vecSortRun, error) {
	run := &vecSortRun{keys: newSortKeys(items)}
	total := 0
	for {
		cb, err := pass.pull(true)
		if err != nil {
			return nil, err
		}
		if cb == nil {
			return run, nil
		}
		for i, c := range keyCols {
			run.keys.cols[i].AppendVec(&cb.Vecs[c], cb.N, cb.Sel)
		}
		total += cb.Len()
		run.batches = append(run.batches, cb)
		run.ends = append(run.ends, total)
	}
}

// len is the number of live rows drained.
func (r *vecSortRun) len() int {
	if len(r.ends) == 0 {
		return 0
	}
	return r.ends[len(r.ends)-1]
}

// locate maps live row g of the whole input to its batch and the physical
// row inside it.
func (r *vecSortRun) locate(g int) (*schema.ColBatch, int) {
	b := sort.SearchInts(r.ends, g+1)
	cb := r.batches[b]
	if b > 0 {
		g -= r.ends[b-1]
	}
	return cb, liveRow(cb.Sel, g)
}

// pivot builds the output rows of a sorted run: for each live row of perm,
// in that order, the columns srcIdx names. One backing array for all values.
// This is the sort's only pivot (scripts/vecguard.sh keeps the batch-wide
// ones out of this file): nothing is boxed for a row that does not leave.
func (r *vecSortRun) pivot(perm, srcIdx []int) schema.Rows {
	w := len(srcIdx)
	vals := make([]schema.Value, len(perm)*w)
	out := make(schema.Rows, len(perm))
	for k, g := range perm {
		cb, i := r.locate(g)
		row := vals[k*w : (k+1)*w : (k+1)*w]
		for c, src := range srcIdx {
			row[c] = cb.Vecs[src].Value(i)
		}
		out[k] = row
	}
	return out
}
