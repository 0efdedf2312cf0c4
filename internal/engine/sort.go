package engine

import (
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// keySrc is the statically-planned source of one ORDER BY key: a direct
// output-row column, a direct input-row column, or per-row expression
// evaluation. The per-row decision chain in orderKey is row-independent for
// plain column references, so it is hoisted out of the row loop here — the
// hot path then extracts keys by plain slice indexing instead of resolving
// (and, for projected-away columns, failing to resolve) per row.
type keySrc struct {
	kind int // srcOut | srcIn | srcEval
	idx  int
}

const (
	srcOut = iota
	srcIn
	srcEval
)

// planSortKeys resolves, once per query, where each ORDER BY key comes from,
// mirroring orderKey's chain for a plain column reference: an unqualified
// output name, then resolution against the output binding, then — when the
// input is aligned with the output (inB non-nil) — the input binding.
// needEval reports that some item stayed srcEval: an expression, or a
// reference none of the three resolves.
func planSortKeys(items []sqlparser.OrderItem, out *schema.Relation, outB, inB *binding) (srcs []keySrc, needEval bool) {
	srcs = make([]keySrc, len(items))
	for i, it := range items {
		srcs[i] = keySrc{kind: srcEval}
		c, ok := it.Expr.(*sqlparser.ColumnRef)
		if !ok {
			needEval = true
			continue
		}
		if c.Table == "" {
			if j, err := out.Index(c.Name); err == nil {
				srcs[i] = keySrc{kind: srcOut, idx: j}
				continue
			}
		}
		if j, err := outB.resolve(c); err == nil {
			srcs[i] = keySrc{kind: srcOut, idx: j}
			continue
		}
		if inB != nil {
			if j, err := inB.resolve(c); err == nil {
				srcs[i] = keySrc{kind: srcIn, idx: j}
				continue
			}
		}
		needEval = true
	}
	return srcs, needEval
}

// sortResult orders the result rows by the ORDER BY items. Each item may
// reference an output column (alias or projected name) or — when inputRows
// is non-nil and aligned 1:1 with the output — any expression over the input
// binding (SQL allows ordering by columns that were projected away).
//
// Keys are extracted once into typed key columns (schema.KeyCol) and
// compared unboxed; the comparator is pairwise-identical to the boxed
// lessKeys/compareForSort path, so the stable sort's output is unchanged.
// A non-negative limit additionally enables top-K selection — returning
// only the first limit rows of the full sort — when no key contains NaN
// (with NaN the comparison is not a strict weak order and only the full
// stable sort is deterministic).
func sortResult(res *Result, inputRows schema.Rows, b *binding, items []sqlparser.OrderItem, limit int) error {
	n := len(res.Rows)
	ks := newSortKeys(items)

	outB := bindingFromRelation(res.Schema, "")
	inB := b
	if inputRows == nil {
		inB = nil
	}
	srcs, needEval := planSortKeys(items, res.Schema, outB, inB)

	// Expression keys first, row-major, so an evaluation error surfaces for
	// the same (row, item) as the row-at-a-time path would report.
	if needEval {
		outEnv := (&rowEnv{b: outB}).reuse()
		var inEnv *rowEnv
		if b != nil {
			inEnv = (&rowEnv{b: b}).reuse()
		}
		for ri := 0; ri < n; ri++ {
			for i := range items {
				if srcs[i].kind != srcEval {
					continue
				}
				v, err := orderKey(res, outEnv, inputRows, inEnv, ri, items[i].Expr)
				if err != nil {
					return err
				}
				ks.cols[i].Append(v)
			}
		}
	}
	// Column keys column-major: no resolution, no errors, cache-friendly.
	for i := range items {
		switch srcs[i].kind {
		case srcOut:
			for ri := 0; ri < n; ri++ {
				ks.cols[i].Append(res.Rows[ri][srcs[i].idx])
			}
		case srcIn:
			for ri := 0; ri < n; ri++ {
				ks.cols[i].Append(inputRows[ri][srcs[i].idx])
			}
		}
	}

	perm := ks.perm(n, limit)
	sorted := make(schema.Rows, len(perm))
	for i, p := range perm {
		sorted[i] = res.Rows[p]
	}
	res.Rows = sorted
	return nil
}

// orderKey computes one ORDER BY key for one row, preferring output columns
// and falling back to the input row. The environments are reused across
// rows (resolution is memoized per expression node). sortResult pre-plans
// the column-reference cases; this remains the per-row path for expression
// keys, and the definition the static plan must mirror.
func orderKey(res *Result, outEnv *rowEnv, inputRows schema.Rows, inEnv *rowEnv, ri int, ex sqlparser.Expr) (schema.Value, error) {
	// A plain column reference that names an output column orders by it.
	if c, ok := ex.(*sqlparser.ColumnRef); ok && c.Table == "" {
		if i, err := res.Schema.Index(c.Name); err == nil {
			return res.Rows[ri][i], nil
		}
	}
	// Try the full expression against the output schema (covers ORDER BY on
	// computed aliases spelled out again).
	outEnv.row = res.Rows[ri]
	if v, err := evalExpr(outEnv, ex); err == nil {
		return v, nil
	}
	// Fall back to the aligned input row when available.
	if inputRows != nil && inEnv != nil {
		inEnv.row = inputRows[ri]
		return evalExpr(inEnv, ex)
	}
	// Surface the output-schema error.
	return evalExpr(outEnv, ex)
}
