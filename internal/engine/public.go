package engine

import (
	"fmt"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// EvalExpr evaluates a scalar expression against a single row of the given
// relation.
func EvalExpr(rel *schema.Relation, row schema.Row, e sqlparser.Expr) (schema.Value, error) {
	env := &rowEnv{b: bindingFromRelation(rel, rel.Name), row: row}
	return evalExpr(env, e)
}

// EvalPredicate evaluates a boolean expression as a filter over one row,
// collapsing NULL to false per SQL filter semantics.
func EvalPredicate(rel *schema.Relation, row schema.Row, e sqlparser.Expr) (bool, error) {
	env := &rowEnv{b: bindingFromRelation(rel, rel.Name), row: row}
	return truthy(env, e)
}

// EvalAggregate computes a single aggregate call over a set of rows of the
// given relation, e.g. AVG(z) over the rows of a window.
func EvalAggregate(rel *schema.Relation, rows schema.Rows, f *sqlparser.FuncCall) (schema.Value, error) {
	return evalAggregate(bindingFromRelation(rel, rel.Name), rows, f)
}

// OutputSchema computes the output relation a SELECT statement produces
// against the source, without executing it: the statement is lowered to the
// plan IR and the schema is derived operator by operator (no rows are
// touched). Used by the rewriter and fragmenter for schema reasoning.
func (e *Engine) OutputSchema(sel *sqlparser.Select) (*schema.Relation, error) {
	root, err := plan.FromAST(sel)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrQuery, err)
	}
	return e.PlanSchema(root)
}

// PlanSchema derives the output relation of a plan without executing it.
func (e *Engine) PlanSchema(root plan.Node) (*schema.Relation, error) {
	blk, src := plan.SplitBlock(root)
	b, err := e.bindSource(src)
	if err != nil {
		return nil, err
	}
	items := blk.Items()
	if blk.Agg != nil {
		rel := &schema.Relation{Columns: make([]schema.Column, len(items))}
		for i, it := range items {
			name := it.Alias
			if name == "" {
				name = outputName(it.Expr, i)
			}
			rel.Columns[i] = schema.Column{
				Name:      name,
				Type:      b.staticType(it.Expr),
				Sensitive: b.sensitiveExpr(it.Expr),
			}
		}
		return rel, nil
	}
	p, err := buildProjector(items, b)
	if err != nil {
		return nil, err
	}
	return p.rel, nil
}

// bindSource derives the binding of a plan source node without opening any
// scans.
func (e *Engine) bindSource(src plan.Node) (*binding, error) {
	switch x := src.(type) {
	case *plan.Values:
		return &binding{}, nil
	case *plan.Scan:
		rel, err := RelationSchema(e.src, x.Table)
		if err != nil {
			return nil, err
		}
		qual := x.Table
		if x.Alias != "" {
			qual = x.Alias
		}
		b := bindingFromRelation(rel, qual)
		if x.Columns != nil {
			if idxs := e.scanColumns(x, &plan.Block{}, b); idxs != nil {
				b = bindingFromRelation(rel.Project(idxs), qual)
			}
		}
		return b, nil
	case *plan.Derived:
		rel, err := e.PlanSchema(x.Input)
		if err != nil {
			return nil, err
		}
		return bindingFromRelation(rel, x.Alias), nil
	case *plan.Join:
		lb, err := e.bindSource(x.Left)
		if err != nil {
			return nil, err
		}
		rb, err := e.bindSource(x.Right)
		if err != nil {
			return nil, err
		}
		return lb.concat(rb), nil
	case *plan.Filter:
		return e.bindSource(x.Input)
	default:
		rel, err := e.PlanSchema(src)
		if err != nil {
			return nil, err
		}
		return bindingFromRelation(rel, ""), nil
	}
}
