package engine

import (
	"fmt"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// group is one GROUP BY equivalence class.
type group struct {
	rep  schema.Row // representative (first) row for non-aggregate exprs
	rows schema.Rows
}

// groupSpecCompile validates a grouped block's select list, collects every
// aggregate call appearing in items, HAVING and ORDER BY, and builds the
// output schema. Shared by the row (evalGrouped) and vectorized
// (vecgroup.go) grouped paths.
func groupSpecCompile(blk *plan.Block, b *binding) ([]*sqlparser.FuncCall, *schema.Relation, error) {
	items := blk.Items()
	for _, it := range items {
		if _, ok := it.Expr.(*sqlparser.Star); ok {
			return nil, nil, fmt.Errorf("%w: SELECT * is not valid in a grouped query", ErrQuery)
		}
		if sqlparser.ContainsWindow(it.Expr) {
			return nil, nil, fmt.Errorf("%w: window function over a grouped query is not supported", ErrQuery)
		}
	}

	var aggCalls []*sqlparser.FuncCall
	seen := make(map[string]bool)
	collect := func(ex sqlparser.Expr) {
		for _, f := range sqlparser.Aggregates(ex) {
			if !seen[f.SQL()] {
				seen[f.SQL()] = true
				aggCalls = append(aggCalls, f)
			}
		}
	}
	for _, it := range items {
		collect(it.Expr)
	}
	collect(blk.Having())
	for _, o := range blk.OrderBy() {
		collect(o.Expr)
	}

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
	return aggCalls, rel, nil
}

// evalOneGroup folds one group's aggregates (over its rows in input
// order), applies HAVING and evaluates the select list. keep is false when
// HAVING rejected the group. env must belong to the calling goroutine;
// groups are otherwise independent, which is what evalGroups exploits.
func evalOneGroup(b *binding, env *rowEnv, blk *plan.Block, aggCalls []*sqlparser.FuncCall, g *group) (schema.Row, bool, error) {
	aggVals := make(map[string]schema.Value, len(aggCalls))
	for _, f := range aggCalls {
		v, err := evalAggregate(b, g.rows, f)
		if err != nil {
			return nil, false, err
		}
		aggVals[f.SQL()] = v
	}
	env.row, env.agg = g.rep, aggVals
	if having := blk.Having(); having != nil {
		ok, err := truthy(env, having)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
	}
	items := blk.Items()
	orow := make(schema.Row, len(items))
	for i, it := range items {
		v, err := evalExpr(env, it.Expr)
		if err != nil {
			return nil, false, err
		}
		orow[i] = v
	}
	return orow, true, nil
}
