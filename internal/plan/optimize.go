package plan

import (
	"strings"

	"paradise/internal/sqlparser"
)

// Catalog resolves the column names of a base relation; ok is false for
// unknown tables. The optimizer consults it to prune scan columns safely and
// to decide which join side owns an unqualified column reference.
type Catalog func(table string) (cols []string, ok bool)

// Options tune Optimize.
type Options struct {
	// Catalog enables projection pruning (Scan.Columns) and unqualified
	// column attribution in join pushdown; nil disables both.
	Catalog Catalog
	// CrossBlock lets predicates migrate through Derived boundaries into
	// inner query blocks (after rewriting them through the inner projection).
	// The fragmenter keeps this off so block boundaries — the paper's query
	// nesting — stay exactly where the rewriter placed them.
	CrossBlock bool
}

// Optimize rewrites the plan in place and returns its (possibly new) root.
// Rules: constant folding over every expression, predicate pushdown toward
// the scans (filters merge downward, split across join sides, and — with
// CrossBlock — migrate into derived blocks), and projection pruning
// (Scan.Columns narrows to the columns the block above actually reads).
// The tree must be owned by the caller; provenance annotations travel with
// the conjuncts they describe.
func Optimize(root Node, opts Options) Node {
	root = foldNodeExprs(root)
	root = pushFilters(root, opts)
	pruneScans(root, opts.Catalog)
	return root
}

// foldNodeExprs applies constant folding to every expression in the tree and
// drops filters that folded to constant TRUE.
func foldNodeExprs(n Node) Node {
	if n == nil {
		return nil
	}
	switch x := n.(type) {
	case *Scan:
		x.Predicate = foldExpr(x.Predicate)
		if x.Predicate != nil && isTrueLiteral(x.Predicate) {
			x.Predicate = nil
		}
	case *Derived:
		x.Input = foldNodeExprs(x.Input)
	case *Join:
		x.Left = foldNodeExprs(x.Left)
		x.Right = foldNodeExprs(x.Right)
		x.On = foldExpr(x.On)
	case *Filter:
		x.Input = foldNodeExprs(x.Input)
		x.Cond = foldExpr(x.Cond)
		if isTrueLiteral(x.Cond) {
			return x.Input
		}
	case *Project:
		x.Input = foldNodeExprs(x.Input)
		for i := range x.Items {
			x.Items[i].Expr = foldExpr(x.Items[i].Expr)
		}
	case *Aggregate:
		x.Input = foldNodeExprs(x.Input)
		for i := range x.Items {
			x.Items[i].Expr = foldExpr(x.Items[i].Expr)
		}
		for i := range x.GroupBy {
			x.GroupBy[i] = foldExpr(x.GroupBy[i])
		}
		x.Having = foldExpr(x.Having)
	case *Window:
		x.Input = foldNodeExprs(x.Input)
		for i := range x.Items {
			x.Items[i].Expr = foldExpr(x.Items[i].Expr)
		}
	case *Distinct:
		x.Input = foldNodeExprs(x.Input)
	case *Sort:
		x.Input = foldNodeExprs(x.Input)
		for i := range x.By {
			x.By[i].Expr = foldExpr(x.By[i].Expr)
		}
	case *Limit:
		x.Input = foldNodeExprs(x.Input)
	}
	return n
}

// pushFilters moves Filter nodes as close to the scans as semantics allow.
func pushFilters(n Node, opts Options) Node {
	if n == nil {
		return nil
	}
	switch x := n.(type) {
	case *Filter:
		in := pushFilters(x.Input, opts)
		return pushFilterInto(in, x.Cond, x.Prov, opts)
	case *Derived:
		x.Input = pushFilters(x.Input, opts)
	case *Join:
		x.Left = pushFilters(x.Left, opts)
		x.Right = pushFilters(x.Right, opts)
	case *Project:
		x.Input = pushFilters(x.Input, opts)
	case *Aggregate:
		x.Input = pushFilters(x.Input, opts)
	case *Window:
		x.Input = pushFilters(x.Input, opts)
	case *Distinct:
		x.Input = pushFilters(x.Input, opts)
	case *Sort:
		x.Input = pushFilters(x.Input, opts)
	case *Limit:
		x.Input = pushFilters(x.Input, opts)
	}
	return n
}

// pushFilterInto sinks a filter condition into the given input node,
// carrying its provenance along.
func pushFilterInto(in Node, cond sqlparser.Expr, prov []Provenance, opts Options) Node {
	switch t := in.(type) {
	case *Scan:
		// A single-relation filter always merges into the scan: the scan
		// predicate sees full-width rows, so every column the condition
		// references is in scope.
		t.Predicate = sqlparser.And(t.Predicate, cond)
		t.Prov = append(t.Prov, prov...)
		return t
	case *Filter:
		// Adjacent filters merge downward (outer conjuncts after inner ones).
		return pushFilterInto(t.Input, sqlparser.And(t.Cond, cond), append(t.Prov, prov...), opts)
	case *Join:
		return pushIntoJoin(t, cond, prov, opts)
	case *Derived:
		if opts.CrossBlock {
			if pushed := pushThroughDerived(t, cond, prov, opts); pushed {
				return t
			}
		}
		return &Filter{Input: in, Cond: cond, Prov: prov}
	default:
		return &Filter{Input: in, Cond: cond, Prov: prov}
	}
}

// pushIntoJoin distributes filter conjuncts onto the join sides that own all
// of their (qualified) column references. Conjuncts on the null-extended
// side of a LEFT JOIN stay above the join — pushing them below would turn
// filtered rows into spurious null-extensions.
func pushIntoJoin(j *Join, cond sqlparser.Expr, prov []Provenance, opts Options) Node {
	leftQuals := sourceQuals(j.Left)
	rightQuals := sourceQuals(j.Right)
	var keep []sqlparser.Expr
	for _, c := range sqlparser.Conjuncts(cond) {
		side := conjunctSide(c, leftQuals, rightQuals, opts.Catalog)
		switch {
		case side < 0:
			j.Left = pushFilterInto(j.Left, c, provFor(prov, c), opts)
		case side > 0 && j.Type != sqlparser.JoinLeft:
			j.Right = pushFilterInto(j.Right, c, provFor(prov, c), opts)
		default:
			keep = append(keep, c)
		}
	}
	if len(keep) == 0 {
		return j
	}
	return &Filter{Input: j, Cond: sqlparser.AndAll(keep), Prov: prov}
}

// provFor keeps the provenance entries that describe the given conjunct.
func provFor(prov []Provenance, c sqlparser.Expr) []Provenance {
	if len(prov) == 0 {
		return nil
	}
	sql := strings.ToLower(c.SQL())
	var out []Provenance
	for _, p := range prov {
		if p.Detail == "" || strings.ToLower(p.Detail) == sql {
			out = append(out, p)
		}
	}
	return out
}

// sourceQuals collects the qualifiers (aliases or table names) a join side
// exposes, lower-cased.
func sourceQuals(n Node) map[string]bool {
	out := make(map[string]bool)
	var walk func(Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *Scan:
			q := x.Alias
			if q == "" {
				q = x.Table
			}
			out[strings.ToLower(q)] = true
		case *Derived:
			out[strings.ToLower(x.Alias)] = true
		case *Join:
			walk(x.Left)
			walk(x.Right)
		case *Filter:
			walk(x.Input)
		}
	}
	walk(n)
	return out
}

// conjunctSide decides which join side owns every column the conjunct
// references: -1 left, +1 right, 0 undecidable (stay above the join).
// Qualified references resolve by qualifier; unqualified ones resolve
// through the catalog when exactly one side's base tables define the name.
func conjunctSide(c sqlparser.Expr, leftQuals, rightQuals map[string]bool, cat Catalog) int {
	refs := sqlparser.ColumnRefs(c)
	if len(refs) == 0 {
		return 0
	}
	side := 0
	for _, r := range refs {
		var s int
		if r.Table != "" {
			q := strings.ToLower(r.Table)
			switch {
			case leftQuals[q]:
				s = -1
			case rightQuals[q]:
				s = 1
			default:
				return 0
			}
		} else {
			s = unqualifiedSide(r.Name, leftQuals, rightQuals, cat)
			if s == 0 {
				return 0
			}
		}
		if side == 0 {
			side = s
		} else if side != s {
			return 0
		}
	}
	return side
}

// unqualifiedSide attributes an unqualified column to the single join side
// whose base tables define it, via the catalog.
func unqualifiedSide(name string, leftQuals, rightQuals map[string]bool, cat Catalog) int {
	if cat == nil {
		return 0
	}
	has := func(quals map[string]bool) int {
		n := 0
		for q := range quals {
			cols, ok := cat(q)
			if !ok {
				return 2 // derived or unknown side: cannot attribute safely
			}
			for _, c := range cols {
				if strings.EqualFold(c, name) {
					n++
					break
				}
			}
		}
		return n
	}
	l, r := has(leftQuals), has(rightQuals)
	if l == 1 && r == 0 {
		return -1
	}
	if l == 0 && r == 1 {
		return 1
	}
	return 0
}

// pushThroughDerived migrates a filter into a derived block when the block
// is a pure projection chain (Project over Filters over a source — no
// aggregation, windows, DISTINCT, ORDER BY or LIMIT) and every referenced
// output column maps to a rewritable item. The condition is rewritten
// through the projection (aliases substitute their defining expressions)
// and sinks further toward the scan inside the block.
func pushThroughDerived(d *Derived, cond sqlparser.Expr, prov []Provenance, opts Options) bool {
	p, ok := d.Input.(*Project)
	if !ok {
		return false
	}
	subst := map[string]sqlparser.Expr{}
	names := map[string]bool{}
	for i, it := range p.Items {
		if _, isStar := it.Expr.(*sqlparser.Star); isStar {
			return false
		}
		// Two output items sharing a name (aliased or derived — SELECT
		// abs(x), y AS abs both expose "abs") make any reference to it
		// ambiguous, and the unoptimized plan rejects it at resolution
		// time. Never push through — substituting one of the duplicates
		// would silently pick a side and change (or hide) the error.
		name := it.Alias
		if name == "" {
			name = outputName(it.Expr, i)
		}
		key := strings.ToLower(name)
		if names[key] {
			return false
		}
		names[key] = true
		if it.Alias == "" {
			if _, okc := it.Expr.(*sqlparser.ColumnRef); !okc {
				continue // not substitutable; name still guards ambiguity
			}
		}
		subst[key] = it.Expr
	}
	// Every referenced column must map to an item, and qualifiers (if any)
	// must name the derived table itself.
	for _, r := range sqlparser.ColumnRefs(cond) {
		if r.Table != "" && !strings.EqualFold(r.Table, d.Alias) {
			return false
		}
		if _, okr := subst[strings.ToLower(r.Name)]; !okr {
			return false
		}
	}
	rewritten := sqlparser.RewriteExpr(cond, func(e sqlparser.Expr) sqlparser.Expr {
		if c, okc := e.(*sqlparser.ColumnRef); okc {
			return sqlparser.CloneExpr(subst[strings.ToLower(c.Name)])
		}
		return e
	})
	p.Input = pushFilterInto(p.Input, rewritten, rewriteProv(prov, rewritten), opts)
	return true
}

// rewriteProv re-details provenance entries whose condition was rewritten
// through a projection.
func rewriteProv(prov []Provenance, rewritten sqlparser.Expr) []Provenance {
	if len(prov) == 0 {
		return nil
	}
	out := make([]Provenance, len(prov))
	copy(out, prov)
	for i := range out {
		if out[i].Detail != "" {
			out[i].Detail += " => " + rewritten.SQL()
		}
	}
	return out
}

// pruneScans narrows Scan.Columns throughout the tree. It works block by
// block (plan.SplitBlock): the operators directly above a scan (or above the
// scans of a join) determine which columns are read; everything else never
// leaves storage. The scan predicate runs before projection, so its columns
// need not be kept. Pruning requires the catalog — without the full column
// list the identity case (nothing to prune) cannot be detected.
func pruneScans(n Node, cat Catalog) {
	if n == nil || cat == nil {
		return
	}
	blockTop, src := SplitBlock(n)
	switch s := src.(type) {
	case *Scan:
		pruneSingleScan(blockTop, s, cat)
	case *Derived:
		pruneScans(s.Input, cat)
	case *Join:
		pruneJoinScans(blockTop, s, cat)
		// Recurse into derived blocks nested under the join.
		var walkSides func(Node)
		walkSides = func(side Node) {
			switch x := side.(type) {
			case *Derived:
				pruneScans(x.Input, cat)
			case *Join:
				walkSides(x.Left)
				walkSides(x.Right)
			case *Filter:
				walkSides(x.Input)
			}
		}
		walkSides(s.Left)
		walkSides(s.Right)
	}
}

// pruneRefs is the pruning view of a block's requirements: the clause
// columns first, then the residual-filter columns. Filters above a derived
// table or join run over already-projected rows, so their columns must
// survive the projection (unlike the scan predicate, which runs inside the
// scan over full-width rows); refs ordering keeps select-list columns first
// so a pruned scan lines up with the projection above it.
func pruneRefs(blk *Block) (refs []*sqlparser.ColumnRef, ok bool) {
	reqs := blk.Requirements()
	if !reqs.Prunable() {
		return nil, false
	}
	refs = append(refs, reqs.Cols...)
	refs = append(refs, reqs.FilterCols...)
	return refs, true
}

// pruneSingleScan narrows one single-table block's scan.
func pruneSingleScan(blk *Block, s *Scan, cat Catalog) {
	if s.Columns != nil {
		return
	}
	cols, ok := cat(s.Table)
	if !ok {
		return
	}
	refs, ok := pruneRefs(blk)
	if !ok {
		return
	}
	qual := s.Alias
	if qual == "" {
		qual = s.Table
	}
	var needed []string
	seen := map[string]bool{}
	for _, r := range refs {
		if r.Table != "" && !strings.EqualFold(r.Table, qual) {
			return // reference escapes this scan: bail out
		}
		key := strings.ToLower(r.Name)
		if seen[key] {
			continue
		}
		seen[key] = true
		if !nameIn(cols, r.Name) {
			return // not a column of the relation (will error downstream)
		}
		needed = append(needed, r.Name)
	}
	if len(needed) >= len(cols) {
		return // full width: nothing to prune
	}
	s.Columns = needed
}

// pruneJoinScans narrows the scans under a join. Only references qualified
// with a side's alias can be attributed, so any unqualified reference in
// the block disables pruning.
func pruneJoinScans(blk *Block, j *Join, cat Catalog) {
	refs, ok := pruneRefs(blk)
	if !ok {
		return
	}
	var scans []*Scan
	var collect func(Node)
	collect = func(n Node) {
		switch x := n.(type) {
		case *Scan:
			scans = append(scans, x)
		case *Join:
			refs = append(refs, sqlparser.ColumnRefs(x.On)...)
			collect(x.Left)
			collect(x.Right)
		case *Filter:
			refs = append(refs, sqlparser.ColumnRefs(x.Cond)...)
			collect(x.Input)
		}
	}
	refs = append(refs, sqlparser.ColumnRefs(j.On)...)
	collect(j.Left)
	collect(j.Right)

	for _, r := range refs {
		if r.Table == "" {
			return // cannot attribute unqualified references across a join
		}
	}
	for _, s := range scans {
		if s.Columns != nil {
			continue
		}
		cols, ok := cat(s.Table)
		if !ok {
			continue
		}
		qual := s.Alias
		if qual == "" {
			qual = s.Table
		}
		var needed []string
		seen := map[string]bool{}
		usable := true
		for _, r := range refs {
			if !strings.EqualFold(r.Table, qual) {
				continue
			}
			key := strings.ToLower(r.Name)
			if seen[key] {
				continue
			}
			seen[key] = true
			if !nameIn(cols, r.Name) {
				usable = false
				break
			}
			needed = append(needed, r.Name)
		}
		if !usable || len(needed) == 0 || len(needed) >= len(cols) {
			continue
		}
		// The scan predicate runs pre-projection; its columns need not stay.
		s.Columns = needed
	}
}
