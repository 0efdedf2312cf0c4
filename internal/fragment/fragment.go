package fragment

import (
	"errors"
	"fmt"
	"strings"

	logical "paradise/internal/plan"
	"paradise/internal/sqlparser"
)

// ErrFragment wraps fragmentation errors.
var ErrFragment = errors.New("fragment: cannot fragment query")

// Fragment is one pushed-down piece of the vertical decomposition. Fragments
// form a chain: each reads the output relation of its predecessor (or a base
// relation) and ships its result one hop up.
type Fragment struct {
	// Stage is the 1-based position in the chain, bottom (sensor) first.
	Stage int
	// MinLevel is the least capable rung that can execute the fragment.
	MinLevel Level
	// Root is the fragment's logical plan subtree; its scans reference
	// Input. The engine compiles Root directly — fragments ship plan trees,
	// not SQL strings.
	Root logical.Node
	// Query is the SQL surface of Root (rendered via plan.ToSelect), kept
	// for reports, the CLI and the paper-match exhibits.
	Query *sqlparser.Select
	// Input is the relation the fragment reads: a base table for stage 1,
	// else the previous fragment's Output.
	Input string
	// Output is the name under which the fragment's result is visible to
	// the next stage (d1, d2, ... — the paper's notation).
	Output string
	// Description summarizes the fragment's role for reports and the CLI.
	Description string
	// Level is the placement decision: the rung the fragment should run
	// at, chosen by PlaceCostBased to minimize modeled traffic. Zero means
	// unplaced — execution falls back to MinLevel (the fixed policy).
	// Level never goes below MinLevel: privacy and capability floors are
	// hard, only the traffic model is negotiable.
	Level Level
	// EstRows and EstBytes are the modeled output size of the fragment
	// (cardinality model over the plan IR), for explain output and the
	// modeled-vs-measured harness. Zero when the plan was never placed.
	EstRows  int64
	EstBytes int64
}

// EffectiveLevel is the rung the fragment executes at: the cost-based
// placement when one was computed, else the MinLevel floor.
func (f *Fragment) EffectiveLevel() Level {
	if f.Level > f.MinLevel {
		return f.Level
	}
	return f.MinLevel
}

// SQL renders the fragment query.
func (f *Fragment) SQL() string { return f.Query.SQL() }

// Plan is a complete vertical decomposition of one query.
type Plan struct {
	// Fragments bottom-up: Fragments[0] runs at the sensor.
	Fragments []*Fragment
	// Root is the logical plan the decomposition was derived from (already
	// privacy-rewritten).
	Root logical.Node
	// Original is the SQL surface of Root, for reports.
	Original *sqlparser.Select
}

// Remainder returns the highest fragment — the paper's Qδ, the only part
// that must run on a node above the apartment boundary when the in-home
// ladder tops out at the given level.
func (p *Plan) Remainder(homeTop Level) []*Fragment {
	var out []*Fragment
	for _, f := range p.Fragments {
		if f.MinLevel > homeTop {
			out = append(out, f)
		}
	}
	return out
}

// String renders a human-readable plan. When cost-based placement moved a
// fragment above its floor, the chosen rung is appended after the floor.
func (p *Plan) String() string {
	var b strings.Builder
	for _, f := range p.Fragments {
		lvl := f.MinLevel.String()
		if f.Level > f.MinLevel {
			lvl += "->" + f.Level.String()
		}
		fmt.Fprintf(&b, "Q%d @ %-12s %-28s %s\n", f.Stage, lvl, f.Description, f.SQL())
	}
	return b.String()
}

// Explain renders every fragment's logical plan tree, for -explain output,
// with the placement decision and modeled output size when available.
// paths, when the plan has run, is each stage's StageResult.Path — how its
// output crossed the stage boundary — appended to the stage's heading.
func (p *Plan) Explain(paths ...string) string {
	var b strings.Builder
	for i, f := range p.Fragments {
		fmt.Fprintf(&b, "Q%d @ %s — %s (reads %s, emits %s)", f.Stage, f.MinLevel, f.Description, f.Input, f.Output)
		if f.Level > f.MinLevel {
			fmt.Fprintf(&b, " [placed %s]", f.Level)
		}
		if f.EstRows > 0 || f.EstBytes > 0 {
			fmt.Fprintf(&b, " [est %d rows / %d bytes]", f.EstRows, f.EstBytes)
		}
		if i < len(paths) && paths[i] != "" {
			fmt.Fprintf(&b, " [ships %s]", paths[i])
		}
		b.WriteByte('\n')
		for _, line := range strings.Split(strings.TrimRight(logical.String(f.Root), "\n"), "\n") {
			b.WriteString("  " + line + "\n")
		}
	}
	return b.String()
}

// Fragmenter decomposes queries along the capability ladder.
type Fragmenter struct{}

// New creates a Fragmenter.
func New() *Fragmenter { return &Fragmenter{} }

// Fragment parses the statement's logical structure and decomposes it.
// The input is not modified.
func (fr *Fragmenter) Fragment(q *sqlparser.Select) (*Plan, error) {
	root, err := logical.FromAST(q)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFragment, err)
	}
	return fr.FromPlan(root)
}

// FromPlan decomposes a logical plan into the maximal pushed-down chain.
// Decomposition walks the plan's block spine (Derived boundaries — the
// nesting of the source SQL) with plan.SplitBlock — the block-shape rule
// itself lives in internal/plan; this package only decides placement. The
// innermost block is split into sensor-level constant filters,
// appliance-level attribute filters and projections, and an appliance-level
// aggregation; every enclosing block becomes one fragment at the level its
// operators require. The plan tree is not modified; fragment Roots are
// fresh trees (blocks are cloned before any mutation).
func (fr *Fragmenter) FromPlan(root logical.Node) (*Plan, error) {
	orig, err := logical.ToSelect(root)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFragment, err)
	}

	// Collect the block spine, outermost first.
	var spine []*logical.Block
	cur := root
	for {
		blk, src := logical.SplitBlock(cur)
		spine = append(spine, blk)
		if d, ok := src.(*logical.Derived); ok {
			cur = d.Input
			continue
		}
		break
	}
	inner := spine[len(spine)-1]

	plan := &Plan{Root: root, Original: orig}
	next := 1
	output := func() string { return fmt.Sprintf("d%d", next) }

	addFragment := func(node logical.Node, lvl Level, desc string, input string) (*Fragment, error) {
		sel, err := logical.ToSelect(node)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFragment, err)
		}
		f := &Fragment{
			Stage:       next,
			MinLevel:    lvl,
			Root:        node,
			Query:       sel,
			Input:       input,
			Output:      output(),
			Description: desc,
		}
		plan.Fragments = append(plan.Fragments, f)
		next++
		return f, nil
	}

	baseName, err := baseInput(inner.Src)
	if err != nil {
		return nil, err
	}

	// A join in the innermost block cannot run on a single sensor, and
	// splitting it would lose the column qualifiers its clauses rely on:
	// the whole block becomes one appliance-level fragment (sensors still
	// only ship their own streams; the join happens one hop up).
	if _, isJoin := inner.Src.(*logical.Join); isJoin {
		lvl := LevelAppliance
		if itemsWindow(inner.Items()) || inner.Sort != nil || inner.Limit != nil || inner.Distinct != nil {
			lvl = LevelPC
		}
		conds, _ := inner.Conjuncts() // returns clones; no need to Clone the filters too
		joinBlk := inner.Clone()
		joinBlk.Filters = nil
		prev, err := addFragment(rebuildOver(joinBlk, inner.Src, conds), lvl, "appliance join", baseName)
		if err != nil {
			return nil, err
		}
		return plan, fr.addSpine(plan, spine, prev, addFragment)
	}

	scan, ok := inner.Src.(*logical.Scan)
	if !ok {
		return nil, fmt.Errorf("%w: SELECT without FROM", ErrFragment)
	}

	// The innermost WHERE surface (scan predicate + residual filters) as
	// conjuncts with their policy provenance, re-partitioned across levels.
	conds, prov := inner.Conjuncts()
	constConj, otherConj := splitConjuncts(conds)

	// Stage 1 (E4): SELECT * FROM base WHERE <constant filters>.
	sensorRoot := &logical.Project{
		Items: []sqlparser.SelectItem{{Expr: &sqlparser.Star{}}},
		Input: &logical.Scan{
			Table:     scan.Table,
			Alias:     scan.Alias,
			Predicate: sqlparser.AndAll(constConj),
			Prov:      provFiltered(prov, constConj),
		},
	}
	desc := "sensor scan"
	if len(constConj) > 0 {
		desc = "sensor filter (attr vs const)"
	}
	prev, err := addFragment(sensorRoot, LevelSensor, desc, baseName)
	if err != nil {
		return nil, err
	}

	hasAgg := inner.Agg != nil
	hasWin := itemsWindow(inner.Items())

	// The stages above the sensor work on an owned copy of the block (the
	// input tree must not be mutated); their WHERE travels in otherConj.
	work := inner.Clone()
	work.Filters = nil

	// Above the sensor stage the single base table is renamed d1, d2, ...;
	// qualified references to the original name would dangle, and with one
	// table they are redundant, so they are stripped.
	stripQualifiers(work)
	otherConj = stripExprQualifiers(otherConj)

	switch {
	case hasWin:
		// Rare shape: innermost with windows — keep it whole above the
		// sensor filter.
		prev, err = addFragment(rebuildOver(work, &logical.Scan{Table: prev.Output}, otherConj), LevelPC, "window evaluation", prev.Output)
		if err != nil {
			return nil, err
		}
	case hasAgg:
		// Stage 2 (E3): attribute filter + projection of the raw columns
		// the aggregation needs.
		needed := neededColumns(work)
		projRoot := &logical.Project{
			Items: columnsToItems(needed),
			Input: &logical.Scan{
				Table:     prev.Output,
				Predicate: sqlparser.AndAll(otherConj),
				Prov:      provFiltered(prov, otherConj),
			},
		}
		desc := "appliance projection"
		if len(otherConj) > 0 {
			desc = "appliance filter + projection"
		}
		prev, err = addFragment(projRoot, LevelAppliance, desc, prev.Output)
		if err != nil {
			return nil, err
		}

		// Stage 3 (E3): the aggregation itself (the media center's part).
		agg := &logical.Block{
			Agg:   work.Agg,
			Sort:  work.Sort,
			Limit: work.Limit,
		}
		lvl := LevelAppliance
		if work.Sort != nil || work.Limit != nil {
			lvl = LevelPC
		}
		prev, err = addFragment(agg.Rebuild(&logical.Scan{Table: prev.Output}), lvl, "aggregation (GROUP BY/HAVING)", prev.Output)
		if err != nil {
			return nil, err
		}
	default:
		// Stage 2 (E3): attribute filters + the final projection of this
		// block in one appliance fragment.
		lvl := LevelAppliance
		if work.Sort != nil || work.Limit != nil || work.Distinct != nil {
			lvl = LevelPC
		}
		if onlyStarItems(work.Items()) && len(otherConj) == 0 && lvl == LevelAppliance {
			// Nothing left to do at this level; skip the no-op fragment.
			break
		}
		prev, err = addFragment(rebuildOver(work, &logical.Scan{Table: prev.Output}, otherConj), lvl, "appliance filter + projection", prev.Output)
		if err != nil {
			return nil, err
		}
	}

	return plan, fr.addSpine(plan, spine, prev, addFragment)
}

// addSpine appends one fragment per enclosing spine block, inner to outer.
func (fr *Fragmenter) addSpine(plan *Plan, spine []*logical.Block, prev *Fragment,
	addFragment func(logical.Node, Level, string, string) (*Fragment, error)) error {
	for i := len(spine) - 2; i >= 0; i-- {
		conds, _ := spine[i].Conjuncts() // returns clones; no need to Clone the filters too
		b := spine[i].Clone()
		b.Filters = nil
		node := rebuildOver(b, &logical.Scan{Table: prev.Output}, conds)
		f, err := addFragment(node, blockLevel(b), blockDescribe(b), prev.Output)
		if err != nil {
			return err
		}
		prev = f
	}
	return nil
}

// rebuildOver reassembles a block over the given source with the given
// WHERE conjuncts, folding them into the scan predicate (single-relation
// sources keep the paper's SELECT ... WHERE surface) or wrapping them as a
// filter node otherwise. The block's own Filters slot must be empty — the
// fragmenter always re-partitions conjuncts explicitly.
func rebuildOver(b *logical.Block, src logical.Node, conds []sqlparser.Expr) logical.Node {
	if cond := sqlparser.AndAll(conds); cond != nil {
		if s, ok := src.(*logical.Scan); ok {
			s.Predicate = sqlparser.And(s.Predicate, cond)
		} else {
			src = &logical.Filter{Input: src, Cond: cond}
		}
	}
	return b.Rebuild(src)
}

// blockLevel classifies one already-isolated block on the capability ladder.
func blockLevel(b *logical.Block) Level {
	if itemsWindow(b.Items()) || b.Sort != nil || b.Limit != nil || b.Distinct != nil {
		return LevelPC
	}
	return LevelAppliance
}

func blockDescribe(b *logical.Block) string {
	switch {
	case itemsWindow(b.Items()):
		return "window/analytic evaluation"
	case b.Agg != nil:
		return "aggregation (GROUP BY/HAVING)"
	case b.Sort != nil || b.Limit != nil:
		return "sort/limit"
	default:
		return "filter + projection"
	}
}

// baseInput names the base relation(s) the innermost block reads.
func baseInput(src logical.Node) (string, error) {
	switch x := src.(type) {
	case *logical.Scan:
		return x.Table, nil
	case *logical.Join:
		return strings.Join(logical.BaseTables(x), "+"), nil
	case *logical.Values, nil:
		return "", fmt.Errorf("%w: SELECT without FROM", ErrFragment)
	default:
		return "", fmt.Errorf("%w: unexpected source %T", ErrFragment, src)
	}
}

// splitConjuncts partitions the block's WHERE conjuncts (already cloned by
// plan.Block.Conjuncts) into sensor-capable constant filters and the rest.
func splitConjuncts(conjs []sqlparser.Expr) (constConj, other []sqlparser.Expr) {
	for _, c := range conjs {
		if isConstFilter(c) {
			constConj = append(constConj, c)
		} else {
			other = append(other, c)
		}
	}
	return constConj, other
}

// provFiltered keeps the provenance entries describing one of the given
// conjuncts, so policy annotations follow their conditions into the stage
// that evaluates them.
func provFiltered(prov []logical.Provenance, conjs []sqlparser.Expr) []logical.Provenance {
	if len(prov) == 0 || len(conjs) == 0 {
		return nil
	}
	var out []logical.Provenance
	for _, p := range prov {
		if p.Detail == "" {
			continue
		}
		for _, c := range conjs {
			if strings.EqualFold(p.Detail, c.SQL()) {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// neededColumns lists the raw columns an aggregation stage consumes, in
// first-use order — the plan.Block requirements analysis projected onto
// plain names. Stars (COUNT(*)) read no columns; ORDER BY references that
// resolve in the stage's own output (aliases, projected names) do not need
// to be shipped by the projection stage below it.
func neededColumns(b *logical.Block) []string {
	reqs := b.Requirements()
	seen := map[string]bool{}
	var out []string
	for _, r := range reqs.Cols {
		key := strings.ToLower(r.Name)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, r.Name)
	}
	return out
}

func columnsToItems(cols []string) []sqlparser.SelectItem {
	out := make([]sqlparser.SelectItem, len(cols))
	for i, c := range cols {
		out[i] = sqlparser.SelectItem{Expr: &sqlparser.ColumnRef{Name: c}}
	}
	return out
}

// stripQualifiers removes table qualifiers from every clause of an owned
// (cloned) block — valid only when the block reads a single base table,
// whose name the chain replaces with d1, d2, ...
func stripQualifiers(b *logical.Block) {
	strip := func(e sqlparser.Expr) sqlparser.Expr {
		return sqlparser.RewriteExpr(e, func(x sqlparser.Expr) sqlparser.Expr {
			if c, ok := x.(*sqlparser.ColumnRef); ok && c.Table != "" {
				return &sqlparser.ColumnRef{Name: c.Name}
			}
			if s, ok := x.(*sqlparser.Star); ok && s.Table != "" {
				return &sqlparser.Star{}
			}
			return x
		})
	}
	stripItems := func(items []sqlparser.SelectItem) {
		for i := range items {
			items[i].Expr = strip(items[i].Expr)
		}
	}
	switch {
	case b.Agg != nil:
		stripItems(b.Agg.Items)
		for i := range b.Agg.GroupBy {
			b.Agg.GroupBy[i] = strip(b.Agg.GroupBy[i])
		}
		b.Agg.Having = strip(b.Agg.Having)
	case b.Win != nil:
		stripItems(b.Win.Items)
	case b.Proj != nil:
		stripItems(b.Proj.Items)
	}
	if b.Sort != nil {
		for i := range b.Sort.By {
			b.Sort.By[i].Expr = strip(b.Sort.By[i].Expr)
		}
	}
}

func stripExprQualifiers(es []sqlparser.Expr) []sqlparser.Expr {
	out := make([]sqlparser.Expr, len(es))
	for i, e := range es {
		out[i] = sqlparser.RewriteExpr(e, func(x sqlparser.Expr) sqlparser.Expr {
			if c, ok := x.(*sqlparser.ColumnRef); ok && c.Table != "" {
				return &sqlparser.ColumnRef{Name: c.Name}
			}
			return x
		})
	}
	return out
}

func itemsWindow(items []sqlparser.SelectItem) bool {
	for _, it := range items {
		if sqlparser.ContainsWindow(it.Expr) {
			return true
		}
	}
	return false
}

func onlyStarItems(items []sqlparser.SelectItem) bool {
	for _, it := range items {
		if _, ok := it.Expr.(*sqlparser.Star); !ok {
			return false
		}
	}
	return true
}
