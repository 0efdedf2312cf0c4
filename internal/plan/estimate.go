package plan

import (
	"math"
	"strings"

	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// This file is the cardinality- and traffic-cost model over the plan IR.
// It turns per-column base statistics (rows, NDV, min/max, average wire
// bytes — see storage's incremental accumulators) into estimated output
// rows and bytes for any plan node, using the textbook selectivity rules:
// equality 1/NDV, ranges by min/max interpolation, equi-joins by the
// larger NDV, everything capped by its input and clamped to a sane range.
// The fragmenter's placement search ranks alternatives with it;
// network.Run's measured Figure 3 accounting is its ground truth (pinned by
// the modeled-vs-measured harness in internal/fragment).

// defaultSel is the selectivity assumed for predicates the model cannot
// analyze (expressions over multiple columns, LIKE, CASE, ...).
const defaultSel = 1.0 / 3

// exprBytes is the assumed average wire size of a computed expression
// value (numbers ship in 8 bytes plus bookkeeping).
const exprBytes = 8

// Hist is the estimator's view of a value-distribution histogram: enough
// to turn a range bound into a fraction of rows. The storage layer's
// equi-width segment histograms satisfy it; plan never learns the bucket
// layout.
type Hist interface {
	// FracBelow estimates the fraction of counted values strictly below v:
	// 0 at or below the histogram's minimum, 1 above its maximum.
	FracBelow(v float64) float64
	// Total is the number of counted values (0 means no information).
	Total() int64
}

// ColStats summarizes one column for estimation.
type ColStats struct {
	// NDV is the estimated number of distinct non-null values (>= 1 when
	// any value was observed).
	NDV float64
	// NullFrac is the fraction of rows with a NULL in this column.
	NullFrac float64
	// Min/Max bound the numeric values; meaningful only when HasRange.
	HasRange bool
	Min, Max float64
	// AvgBytes is the mean wire size of one value.
	AvgBytes float64
	// Hist, when non-nil, refines range selectivities with the column's
	// measured distribution instead of uniform min/max interpolation.
	Hist Hist
}

// TableStats describes one relation (base table or derived stage output)
// for estimation: its cardinality and per-column summaries. Cols is keyed
// by lower-cased column name; scans additionally register the qualified
// "alias.name" spelling so predicates over joins resolve their side.
type TableStats struct {
	Rows float64
	// RowBytes is the average serialized row width.
	RowBytes float64
	Cols     map[string]ColStats
}

// Col resolves a column reference against the stats, trying the qualified
// spelling first.
func (t *TableStats) Col(ref *sqlparser.ColumnRef) (ColStats, bool) {
	if t == nil || t.Cols == nil {
		return ColStats{}, false
	}
	if ref.Table != "" {
		c, ok := t.Cols[strings.ToLower(ref.Table)+"."+strings.ToLower(ref.Name)]
		if ok {
			return c, true
		}
		return ColStats{}, false
	}
	c, ok := t.Cols[strings.ToLower(ref.Name)]
	return c, ok
}

// Stats resolves base-relation statistics by table name; ok is false for
// unknown tables (the estimator then falls back to neutral defaults). It
// mirrors the Catalog function type: the storage layer provides one
// without plan importing storage.
type Stats func(table string) (*TableStats, bool)

// Cardinality is an estimated operator output: how many rows, how many
// serialized bytes. It is the unit of the placement search's cost — bytes
// crossing a level boundary.
type Cardinality struct {
	Rows  float64
	Bytes float64
}

// Estimate predicts the output cardinality of the plan rooted at n.
// Estimates are always finite, non-negative, and bounded by the cross
// product of the base relations involved; a scan with no predicate is
// exact. A nil stats source degrades to neutral defaults rather than
// failing — the model never makes execution impossible.
func Estimate(n Node, stats Stats) Cardinality {
	ts := Derive(n, stats)
	return Cardinality{Rows: ts.Rows, Bytes: ts.Rows * ts.RowBytes}
}

// Derive computes the full statistical description of the plan's output —
// cardinality plus per-column stats — so stage outputs can feed the next
// stage's estimate (the fragment chain reads stage k's Derive as stage
// k+1's base stats).
func Derive(n Node, stats Stats) *TableStats {
	ts := deriveNode(n, stats)
	sanitize(ts)
	return ts
}

// sanitize clamps a derived table description to the estimator's
// guarantees: finite non-negative rows and widths, NDVs within [0, rows].
func sanitize(ts *TableStats) {
	ts.Rows = clampNonNeg(ts.Rows)
	ts.RowBytes = clampNonNeg(ts.RowBytes)
	for k, c := range ts.Cols {
		c.NDV = clampNonNeg(c.NDV)
		if c.NDV > ts.Rows {
			c.NDV = ts.Rows
		}
		if ts.Rows > 0 && c.NDV < 1 {
			c.NDV = 1
		}
		c.NullFrac = clamp01(c.NullFrac)
		c.AvgBytes = clampNonNeg(c.AvgBytes)
		ts.Cols[k] = c
	}
}

func clampNonNeg(f float64) float64 {
	if math.IsNaN(f) || f < 0 {
		return 0
	}
	if math.IsInf(f, 1) {
		return math.MaxFloat64
	}
	return f
}

func clamp01(f float64) float64 {
	if math.IsNaN(f) || f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

func deriveNode(n Node, stats Stats) *TableStats {
	switch x := n.(type) {
	case *Scan:
		return deriveScan(x, stats)
	case *Values:
		return &TableStats{Rows: 1, RowBytes: 1, Cols: map[string]ColStats{}}
	case *Derived:
		return deriveDerived(x, stats)
	case *Join:
		return deriveJoin(x, stats)
	case *Filter:
		in := deriveNode(x.Input, stats)
		applyFilter(in, x.Cond)
		return in
	case *Project:
		in := deriveNode(x.Input, stats)
		return deriveItems(in, x.Items)
	case *Aggregate:
		return deriveAggregate(x, stats)
	case *Window:
		in := deriveNode(x.Input, stats)
		out := deriveItems(in, x.Items)
		out.Rows = in.Rows // windows never change cardinality
		return out
	case *Distinct:
		in := deriveNode(x.Input, stats)
		in.Rows = distinctRows(in)
		return in
	case *Sort:
		return deriveNode(x.Input, stats)
	case *Limit:
		in := deriveNode(x.Input, stats)
		if f := float64(x.N); f < in.Rows {
			in.Rows = f
		}
		return in
	default:
		// Unknown operator: neutral single-row default keeps the model total.
		return &TableStats{Rows: 1, RowBytes: exprBytes, Cols: map[string]ColStats{}}
	}
}

// deriveScan builds the scan's output description from base statistics,
// applying the pushed-down predicate and the pruned projection.
func deriveScan(s *Scan, stats Stats) *TableStats {
	qual := strings.ToLower(s.Alias)
	if qual == "" {
		qual = strings.ToLower(s.Table)
	}
	var base *TableStats
	if stats != nil {
		if b, ok := stats(s.Table); ok && b != nil {
			base = b
		}
	}
	out := &TableStats{Cols: map[string]ColStats{}}
	if base == nil {
		// Unknown relation: a neutral default so estimation stays total.
		out.Rows = 1000
		out.RowBytes = 4 * exprBytes
	} else {
		out.Rows = base.Rows
		width := 0.0
		for name, c := range base.Cols {
			if strings.Contains(name, ".") {
				continue // base stats are keyed by bare names
			}
			keep := s.Columns == nil || nameIn(s.Columns, name)
			if keep {
				width += c.AvgBytes
			}
			// Register the column under bare and qualified spellings even
			// when pruned: the pushed predicate still references it.
			out.Cols[name] = c
			out.Cols[qual+"."+name] = c
		}
		if s.Columns == nil && base.RowBytes > 0 {
			width = base.RowBytes
		}
		out.RowBytes = width
	}
	if s.Predicate != nil {
		applyFilter(out, s.Predicate)
	}
	return out
}

// deriveDerived re-qualifies the inner block's output under the derived
// table's alias.
func deriveDerived(d *Derived, stats Stats) *TableStats {
	in := deriveNode(d.Input, stats)
	out := &TableStats{Rows: in.Rows, RowBytes: in.RowBytes, Cols: map[string]ColStats{}}
	alias := strings.ToLower(d.Alias)
	for name, c := range in.Cols {
		if strings.Contains(name, ".") {
			continue // inner qualifiers are out of scope above the boundary
		}
		out.Cols[name] = c
		if alias != "" {
			out.Cols[alias+"."+name] = c
		}
	}
	return out
}

// deriveJoin estimates a join: the cross product scaled by 1/max(NDV) per
// equi-join conjunct (the containment assumption), by defaultSel per
// residual conjunct, capped at the cross product; a LEFT join never
// returns fewer rows than its left input.
func deriveJoin(j *Join, stats Stats) *TableStats {
	l := deriveNode(j.Left, stats)
	r := deriveNode(j.Right, stats)
	out := &TableStats{
		RowBytes: l.RowBytes + r.RowBytes,
		Cols:     map[string]ColStats{},
	}
	// Right side wins bare-name collisions last — matches resolution being
	// ambiguous anyway; qualified keys never collide.
	for name, c := range l.Cols {
		out.Cols[name] = c
	}
	for name, c := range r.Cols {
		out.Cols[name] = c
	}
	cross := l.Rows * r.Rows
	rows := cross
	if j.On != nil {
		merged := &TableStats{Rows: cross, Cols: out.Cols}
		for _, c := range sqlparser.Conjuncts(j.On) {
			if lc, rc, ok := equiJoinCols(c, l, r); ok {
				ndv := math.Max(lc.NDV, rc.NDV)
				if ndv > 1 {
					rows /= ndv
				}
				continue
			}
			rows *= selectivity(c, merged)
		}
	}
	if rows > cross {
		rows = cross
	}
	if j.Type == sqlparser.JoinLeft && rows < l.Rows {
		rows = l.Rows
	}
	out.Rows = rows
	return out
}

// equiJoinCols recognizes `a = b` with one column per join side and
// returns both sides' column stats.
func equiJoinCols(c sqlparser.Expr, l, r *TableStats) (lc, rc ColStats, ok bool) {
	b, isBin := c.(*sqlparser.BinaryExpr)
	if !isBin || b.Op != sqlparser.OpEq {
		return ColStats{}, ColStats{}, false
	}
	cl, okL := b.L.(*sqlparser.ColumnRef)
	cr, okR := b.R.(*sqlparser.ColumnRef)
	if !okL || !okR {
		return ColStats{}, ColStats{}, false
	}
	if lc, ok = l.Col(cl); ok {
		if rc, ok = r.Col(cr); ok {
			return lc, rc, true
		}
		return ColStats{}, ColStats{}, false
	}
	// The conjunct may be spelled right = left.
	if lc, ok = l.Col(cr); ok {
		if rc, ok = r.Col(cl); ok {
			return lc, rc, true
		}
	}
	return ColStats{}, ColStats{}, false
}

// applyFilter scales the description by the predicate's selectivity and
// re-caps column NDVs; an equality against a literal collapses that
// column to a single value.
func applyFilter(ts *TableStats, cond sqlparser.Expr) {
	if cond == nil {
		return
	}
	sel := selectivity(cond, ts)
	ts.Rows *= sel
	for _, c := range sqlparser.Conjuncts(cond) {
		if ref, _, _, ok := colCompareLiteral(c, sqlparser.OpEq); ok {
			if cs, found := ts.Col(ref); found {
				cs.NDV = 1
				setCol(ts, ref, cs)
			}
		}
	}
	for k, c := range ts.Cols {
		if c.NDV > ts.Rows {
			c.NDV = ts.Rows
			ts.Cols[k] = c
		}
	}
}

// setCol updates a column's stats under every spelling that resolves to it.
func setCol(ts *TableStats, ref *sqlparser.ColumnRef, cs ColStats) {
	bare := strings.ToLower(ref.Name)
	for k := range ts.Cols {
		if k == bare || strings.HasSuffix(k, "."+bare) {
			ts.Cols[k] = cs
		}
	}
}

// selectivity estimates the fraction of rows satisfying the condition.
// Always in [0, 1].
func selectivity(cond sqlparser.Expr, ts *TableStats) float64 {
	return clamp01(selExpr(cond, ts))
}

func selExpr(e sqlparser.Expr, ts *TableStats) float64 {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case sqlparser.OpAnd:
			return selExpr(x.L, ts) * selExpr(x.R, ts)
		case sqlparser.OpOr:
			l, r := selExpr(x.L, ts), selExpr(x.R, ts)
			return l + r - l*r
		case sqlparser.OpEq, sqlparser.OpNeq, sqlparser.OpLt,
			sqlparser.OpLeq, sqlparser.OpGt, sqlparser.OpGeq:
			return selCompare(x, ts)
		default:
			return defaultSel
		}
	case *sqlparser.UnaryExpr:
		if x.Op == sqlparser.UnaryNot {
			return 1 - selExpr(x.X, ts)
		}
		return defaultSel
	case *sqlparser.IsNull:
		ref, ok := x.X.(*sqlparser.ColumnRef)
		if !ok {
			return defaultSel
		}
		c, found := ts.Col(ref)
		if !found {
			return defaultSel
		}
		if x.Not {
			return 1 - c.NullFrac
		}
		return c.NullFrac
	case *sqlparser.Between:
		s := selBetween(x, ts)
		if x.Not {
			return 1 - s
		}
		return s
	case *sqlparser.InList:
		ref, ok := x.X.(*sqlparser.ColumnRef)
		if !ok {
			return defaultSel
		}
		c, found := ts.Col(ref)
		if !found || c.NDV < 1 {
			return defaultSel
		}
		s := float64(len(x.List)) / c.NDV
		if x.Not {
			return 1 - s
		}
		return s
	case *sqlparser.Literal:
		// A bare boolean literal (TRUE keeps everything).
		if x.Value.Type() == schema.TypeBool {
			if x.Value.AsBool() {
				return 1
			}
			return 0
		}
		return defaultSel
	default:
		return defaultSel
	}
}

// selBetween interpolates `col BETWEEN lo AND hi` as one interval —
// (hi-lo)/width — rather than the product of its two bound conjuncts,
// which would double-count the restriction.
func selBetween(b *sqlparser.Between, ts *TableStats) float64 {
	ref, okX := b.X.(*sqlparser.ColumnRef)
	lo, okLo := b.Lo.(*sqlparser.Literal)
	hi, okHi := b.Hi.(*sqlparser.Literal)
	if okX && okLo && okHi && lo.Value.Type().Numeric() && hi.Value.Type().Numeric() {
		if c, found := ts.Col(ref); found && c.HasRange {
			if c.Hist != nil && c.Hist.Total() > 0 {
				// BETWEEN hi is inclusive; nudging past hi approximates <=
				// at histogram granularity.
				span := c.Hist.FracBelow(math.Nextafter(hi.Value.AsFloat(), math.Inf(1))) -
					c.Hist.FracBelow(lo.Value.AsFloat())
				return clamp01(span)
			}
			width := c.Max - c.Min
			if width <= 0 {
				if lo.Value.AsFloat() <= c.Min && c.Min <= hi.Value.AsFloat() {
					return 1
				}
				return 0
			}
			span := math.Min(hi.Value.AsFloat(), c.Max) - math.Max(lo.Value.AsFloat(), c.Min)
			return clamp01(span / width)
		}
	}
	// Fall back to the two bound conjuncts under independence.
	loC := &sqlparser.BinaryExpr{Op: sqlparser.OpGeq, L: b.X, R: b.Lo}
	hiC := &sqlparser.BinaryExpr{Op: sqlparser.OpLeq, L: b.X, R: b.Hi}
	return selExpr(loC, ts) * selExpr(hiC, ts)
}

// selCompare handles a comparison conjunct: column vs literal uses NDV or
// range interpolation, column vs column uses 1/max NDV.
func selCompare(b *sqlparser.BinaryExpr, ts *TableStats) float64 {
	if ref, lit, op, ok := colCompareLiteral(b, b.Op); ok {
		c, found := ts.Col(ref)
		if !found {
			return defaultSel
		}
		switch op {
		case sqlparser.OpEq:
			if c.NDV >= 1 {
				return 1 / c.NDV
			}
			return defaultSel
		case sqlparser.OpNeq:
			if c.NDV >= 1 {
				return 1 - 1/c.NDV
			}
			return defaultSel
		default:
			return selRange(c, op, lit)
		}
	}
	// column-vs-column on one relation (e.g. x > y): equality by
	// 1/max NDV, inequalities by the default.
	cl, okL := b.L.(*sqlparser.ColumnRef)
	cr, okR := b.R.(*sqlparser.ColumnRef)
	if okL && okR && b.Op == sqlparser.OpEq {
		sl, foundL := ts.Col(cl)
		sr, foundR := ts.Col(cr)
		if foundL && foundR {
			if ndv := math.Max(sl.NDV, sr.NDV); ndv >= 1 {
				return 1 / ndv
			}
		}
	}
	return defaultSel
}

// colCompareLiteral matches `col OP literal` (either spelling) for the
// given comparison. The returned operator is normalized to the
// column-on-the-left form: `5 < x` comes back as (x, 5, OpGt).
func colCompareLiteral(e sqlparser.Expr, want sqlparser.BinaryOp) (*sqlparser.ColumnRef, schema.Value, sqlparser.BinaryOp, bool) {
	b, ok := e.(*sqlparser.BinaryExpr)
	if !ok || b.Op != want {
		return nil, schema.Value{}, 0, false
	}
	if ref, okL := b.L.(*sqlparser.ColumnRef); okL {
		if lit, okR := b.R.(*sqlparser.Literal); okR {
			return ref, lit.Value, b.Op, true
		}
	}
	if ref, okR := b.R.(*sqlparser.ColumnRef); okR {
		if lit, okL := b.L.(*sqlparser.Literal); okL {
			return ref, lit.Value, mirrorOp(b.Op), true
		}
	}
	return nil, schema.Value{}, 0, false
}

// mirrorOp swaps a comparison's sides: literal OP col == col mirror(OP)
// literal.
func mirrorOp(op sqlparser.BinaryOp) sqlparser.BinaryOp {
	switch op {
	case sqlparser.OpLt:
		return sqlparser.OpGt
	case sqlparser.OpLeq:
		return sqlparser.OpGeq
	case sqlparser.OpGt:
		return sqlparser.OpLt
	case sqlparser.OpGeq:
		return sqlparser.OpLeq
	}
	return op
}

// selRange interpolates a range predicate's selectivity from the column's
// min/max. The comparison is taken as column-on-the-left; when the
// literal was on the left the caller's operator is mirrored, which at
// this estimation granularity changes the answer by at most the
// single-point mass — acceptable for a model whose default is 1/3.
func selRange(c ColStats, op sqlparser.BinaryOp, lit schema.Value) float64 {
	if !c.HasRange || !lit.Type().Numeric() {
		return defaultSel
	}
	v := lit.AsFloat()
	if c.Hist != nil && c.Hist.Total() > 0 {
		// Histogram path: the measured distribution replaces the uniform
		// assumption. <= and < differ by at most one value's mass, below
		// this model's resolution; the bucket interpolation absorbs it.
		switch op {
		case sqlparser.OpLt, sqlparser.OpLeq:
			return clamp01(c.Hist.FracBelow(v))
		case sqlparser.OpGt, sqlparser.OpGeq:
			return clamp01(1 - c.Hist.FracBelow(v))
		}
		return defaultSel
	}
	width := c.Max - c.Min
	if width <= 0 {
		// Single-point column: the predicate either keeps it or not.
		switch op {
		case sqlparser.OpLt:
			if c.Min < v {
				return 1
			}
		case sqlparser.OpLeq:
			if c.Min <= v {
				return 1
			}
		case sqlparser.OpGt:
			if c.Min > v {
				return 1
			}
		case sqlparser.OpGeq:
			if c.Min >= v {
				return 1
			}
		}
		return 0
	}
	frac := (v - c.Min) / width
	switch op {
	case sqlparser.OpLt, sqlparser.OpLeq:
		return clamp01(frac)
	case sqlparser.OpGt, sqlparser.OpGeq:
		return clamp01(1 - frac)
	}
	return defaultSel
}

// deriveItems computes the output description of a select list (Project,
// Window, Aggregate items): row width from the items, column stats
// propagated for plain column references under their output names.
func deriveItems(in *TableStats, items []sqlparser.SelectItem) *TableStats {
	out := &TableStats{Rows: in.Rows, Cols: map[string]ColStats{}}
	width := 0.0
	for i, it := range items {
		if _, isStar := it.Expr.(*sqlparser.Star); isStar {
			width += in.RowBytes
			for name, c := range in.Cols {
				if !strings.Contains(name, ".") {
					out.Cols[name] = c
				}
			}
			continue
		}
		name := it.Alias
		if name == "" {
			name = outputName(it.Expr, i)
		}
		key := strings.ToLower(name)
		if ref, isCol := it.Expr.(*sqlparser.ColumnRef); isCol {
			if c, found := in.Col(ref); found {
				out.Cols[key] = c
				width += c.AvgBytes
				continue
			}
		}
		// Computed expression: assume a numeric-sized value, distinctness
		// unknown (rows is the safe bound, applied by sanitize).
		out.Cols[key] = ColStats{NDV: in.Rows, AvgBytes: exprBytes}
		width += exprBytes
	}
	out.RowBytes = width
	return out
}

// deriveAggregate estimates group count as the product of the group-by
// columns' NDVs, capped at the input cardinality (every input row its own
// group is the worst case); the single-group form returns exactly one row.
func deriveAggregate(a *Aggregate, stats Stats) *TableStats {
	in := deriveNode(a.Input, stats)
	out := deriveItems(in, a.Items)
	if len(a.GroupBy) == 0 {
		out.Rows = math.Min(1, math.Ceil(in.Rows))
	} else {
		groups := 1.0
		for _, g := range a.GroupBy {
			ref, ok := g.(*sqlparser.ColumnRef)
			if !ok {
				groups *= math.Max(1, in.Rows*defaultSel)
				continue
			}
			if c, found := in.Col(ref); found && c.NDV >= 1 {
				groups *= c.NDV
			} else {
				groups *= math.Max(1, in.Rows*defaultSel)
			}
		}
		if groups > in.Rows {
			groups = in.Rows
		}
		out.Rows = groups
	}
	if a.Having != nil {
		out.Rows *= selectivity(a.Having, out)
	}
	return out
}

// distinctRows caps the row count by the product of the output columns'
// NDVs.
func distinctRows(in *TableStats) float64 {
	prod := 1.0
	any := false
	for name, c := range in.Cols {
		if strings.Contains(name, ".") {
			continue
		}
		any = true
		prod *= math.Max(1, c.NDV)
		if prod >= in.Rows {
			return in.Rows
		}
	}
	if !any {
		return in.Rows
	}
	return math.Min(prod, in.Rows)
}
