package plan

import (
	"errors"
	"fmt"
	"strings"

	"paradise/internal/sqlparser"
)

// ErrPlan wraps lowering and plan-shape errors.
var ErrPlan = errors.New("plan: invalid plan")

// Provenance records why an operator (or one of its conjuncts/items) exists:
// straight from the user's query, or injected by the privacy rewriter. It is
// what lets a rewritten plan still report rule + columns on violations and
// render an audit-grade EXPLAIN.
type Provenance struct {
	// Origin is "policy" for operators the privacy rewriter introduced.
	Origin string
	// Module is the policy module that mandated the transformation.
	Module string
	// Rule names the policy rule ("selection control", "projection control",
	// "mandated aggregation", "compression").
	Rule string
	// Columns are the attributes the rule acted on.
	Columns []string
	// Detail carries the injected condition or enforced alias, rendered.
	Detail string
}

func (p Provenance) String() string {
	s := p.Origin
	if p.Module != "" {
		s += ":" + p.Module
	}
	s += " " + p.Rule
	if len(p.Columns) > 0 {
		s += " [" + strings.Join(p.Columns, ", ") + "]"
	}
	if p.Detail != "" {
		s += " (" + p.Detail + ")"
	}
	return s
}

// Node is one logical operator. Nodes form a tree: unary operators hold one
// Input, Join holds two, Scan and Values are leaves.
type Node interface {
	// Children returns the operator's inputs, left to right.
	Children() []Node
	// describe renders the one-line EXPLAIN form of the operator.
	describe() string
}

// Scan reads a named base relation (or, inside a fragment chain, the output
// of the previous stage). The optimizer narrows Columns (projection pruning)
// and fills Predicate (predicate pushdown); both travel into
// storage.Table.Scan so the store filters and projects before a single row
// reaches the engine.
type Scan struct {
	// Table names the relation.
	Table string
	// Alias qualifies column references ("" uses Table).
	Alias string
	// Columns is the pruned projection in output order; nil reads every
	// column.
	Columns []string
	// Predicate filters rows inside the scan. It is evaluated against the
	// full-width row (before Columns projects), so it may reference pruned
	// columns.
	Predicate sqlparser.Expr
	// Prov documents policy conjuncts that were pushed into Predicate.
	Prov []Provenance
}

// Values is the FROM-less SELECT source: exactly one empty row.
type Values struct{}

// Derived marks a query-block boundary: a derived table (FROM (SELECT ...))
// in the source SQL. The fragmenter splits chains at Derived nodes, so the
// paper's "innermost possible part of the nested query" stays addressable in
// plan form.
type Derived struct {
	Input Node
	Alias string
}

// Join combines two inputs. On is nil for cross joins.
type Join struct {
	Type        sqlparser.JoinType
	Left, Right Node
	On          sqlparser.Expr
}

// Filter keeps rows satisfying Cond.
type Filter struct {
	Input Node
	Cond  sqlparser.Expr
	// Prov documents conjuncts of Cond injected by the privacy rewriter.
	Prov []Provenance
}

// Project evaluates the select list (expressions, stars, aliases).
type Project struct {
	Input Node
	Items []sqlparser.SelectItem
	// Prov documents projection control: attributes the privacy rewriter
	// removed from the select list, and compression rewrites of items.
	Prov []Provenance
}

// Aggregate groups its input and evaluates an aggregated select list; Having
// filters groups. A nil GroupBy with aggregate items is the single-group
// form (SELECT COUNT(*) ...).
type Aggregate struct {
	Input   Node
	GroupBy []sqlparser.Expr
	Items   []sqlparser.SelectItem
	Having  sqlparser.Expr
	// Prov documents mandated aggregations and injected HAVING conjuncts.
	Prov []Provenance
}

// Window evaluates a select list containing window functions (OVER ...).
// It is a pipeline breaker: partitions need the whole input.
type Window struct {
	Input Node
	Items []sqlparser.SelectItem
}

// Distinct removes duplicate output rows.
type Distinct struct {
	Input Node
}

// Sort orders the input by the given items. Sorting above a Project may
// reference columns of the Project's input (SQL allows ordering by columns
// that were projected away); the engine keeps input rows aligned for that.
type Sort struct {
	Input Node
	By    []sqlparser.OrderItem
}

// Limit truncates the stream after N rows.
type Limit struct {
	Input Node
	N     int64
}

// Children implementations.
func (*Scan) Children() []Node      { return nil }
func (*Values) Children() []Node    { return nil }
func (d *Derived) Children() []Node { return []Node{d.Input} }
func (j *Join) Children() []Node    { return []Node{j.Left, j.Right} }
func (f *Filter) Children() []Node  { return []Node{f.Input} }
func (p *Project) Children() []Node { return []Node{p.Input} }
func (a *Aggregate) Children() []Node {
	return []Node{a.Input}
}
func (w *Window) Children() []Node   { return []Node{w.Input} }
func (d *Distinct) Children() []Node { return []Node{d.Input} }
func (s *Sort) Children() []Node     { return []Node{s.Input} }
func (l *Limit) Children() []Node    { return []Node{l.Input} }

func itemsSQL(items []sqlparser.SelectItem) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = it.SQL()
	}
	return strings.Join(parts, ", ")
}

func exprsSQL(es []sqlparser.Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.SQL()
	}
	return strings.Join(parts, ", ")
}

func (s *Scan) describe() string {
	out := "Scan " + s.Table
	if s.Alias != "" && s.Alias != s.Table {
		out += " AS " + s.Alias
	}
	if s.Columns != nil {
		out += " cols=[" + strings.Join(s.Columns, ", ") + "]"
	}
	if s.Predicate != nil {
		out += " pushed=(" + s.Predicate.SQL() + ")"
	}
	return out
}

func (*Values) describe() string { return "Values (1 empty row)" }

func (d *Derived) describe() string {
	out := "Derived"
	if d.Alias != "" {
		out += " AS " + d.Alias
	}
	return out
}

func (j *Join) describe() string {
	out := "Join " + j.Type.String()
	if j.On != nil {
		out += " ON " + j.On.SQL()
	}
	return out
}

func (f *Filter) describe() string { return "Filter " + f.Cond.SQL() }

func (p *Project) describe() string { return "Project " + itemsSQL(p.Items) }

func (a *Aggregate) describe() string {
	out := "Aggregate " + itemsSQL(a.Items)
	if len(a.GroupBy) > 0 {
		out += " GROUP BY " + exprsSQL(a.GroupBy)
	}
	if a.Having != nil {
		out += " HAVING " + a.Having.SQL()
	}
	return out
}

func (w *Window) describe() string { return "Window " + itemsSQL(w.Items) }

func (*Distinct) describe() string { return "Distinct" }

func (s *Sort) describe() string {
	parts := make([]string, len(s.By))
	for i, o := range s.By {
		parts[i] = o.SQL()
	}
	return "Sort " + strings.Join(parts, ", ")
}

func (l *Limit) describe() string { return fmt.Sprintf("Limit %d", l.N) }

// provOf returns the operator's provenance annotations, if any.
func provOf(n Node) []Provenance {
	switch x := n.(type) {
	case *Scan:
		return x.Prov
	case *Filter:
		return x.Prov
	case *Project:
		return x.Prov
	case *Aggregate:
		return x.Prov
	}
	return nil
}

// Clone deep-copies a plan tree: fresh operator nodes with cloned
// expressions and copied provenance, sharing nothing mutable with the
// original. Optimize rewrites in place and needs an owned tree; a tree that
// shares subtrees with another (a fragment root and the plan it was cut from)
// is cloned first.
func Clone(n Node) Node {
	prov := func(p []Provenance) []Provenance { return append([]Provenance(nil), p...) }
	switch x := n.(type) {
	case nil:
		return nil
	case *Scan:
		out := &Scan{Table: x.Table, Alias: x.Alias, Predicate: sqlparser.CloneExpr(x.Predicate), Prov: prov(x.Prov)}
		if x.Columns != nil { // empty is not nil: "no columns" is not "every column"
			out.Columns = append([]string{}, x.Columns...)
		}
		return out
	case *Values:
		return &Values{}
	case *Derived:
		return &Derived{Input: Clone(x.Input), Alias: x.Alias}
	case *Join:
		return &Join{Type: x.Type, Left: Clone(x.Left), Right: Clone(x.Right), On: sqlparser.CloneExpr(x.On)}
	case *Filter:
		return &Filter{Input: Clone(x.Input), Cond: sqlparser.CloneExpr(x.Cond), Prov: prov(x.Prov)}
	case *Project:
		return &Project{Input: Clone(x.Input), Items: cloneItems(x.Items), Prov: prov(x.Prov)}
	case *Aggregate:
		return &Aggregate{Input: Clone(x.Input), GroupBy: cloneExprs(x.GroupBy), Items: cloneItems(x.Items),
			Having: sqlparser.CloneExpr(x.Having), Prov: prov(x.Prov)}
	case *Window:
		return &Window{Input: Clone(x.Input), Items: cloneItems(x.Items)}
	case *Distinct:
		return &Distinct{Input: Clone(x.Input)}
	case *Sort:
		return &Sort{Input: Clone(x.Input), By: cloneOrder(x.By)}
	case *Limit:
		return &Limit{Input: Clone(x.Input), N: x.N}
	}
	panic(fmt.Sprintf("plan: Clone of unknown node %T", n))
}

// Walk visits n and every descendant, pre-order.
func Walk(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}

// String renders the plan as an indented operator tree — the EXPLAIN form.
// Policy-injected operators carry their provenance on the following line.
func String(root Node) string {
	var b strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		if n == nil {
			return
		}
		indent := strings.Repeat("  ", depth)
		b.WriteString(indent)
		b.WriteString(n.describe())
		b.WriteByte('\n')
		for _, p := range provOf(n) {
			b.WriteString(indent)
			b.WriteString("  ^ ")
			b.WriteString(p.String())
			b.WriteByte('\n')
		}
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}

// BaseTables returns the names of every base relation the plan scans, in
// first-appearance order.
func BaseTables(root Node) []string {
	seen := make(map[string]bool)
	var out []string
	Walk(root, func(n Node) {
		if s, ok := n.(*Scan); ok && !seen[s.Table] {
			seen[s.Table] = true
			out = append(out, s.Table)
		}
	})
	return out
}
