package engine

import (
	"fmt"
	"strings"

	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// bcol is one column visible to expression resolution: its optional table
// qualifier (alias or base-table name), its name and static type.
type bcol struct {
	qual string
	name string
	typ  schema.Type
	sens bool
}

// binding is the set of columns produced by a FROM clause (or by a derived
// table) against which expressions resolve.
type binding struct {
	cols []bcol
}

// resolve finds the positional index of a column reference. Plain-identifier
// matching is case-insensitive (the parser lower-cases unquoted names).
func (b *binding) resolve(c *sqlparser.ColumnRef) (int, error) {
	name := strings.ToLower(c.Name)
	qual := strings.ToLower(c.Table)
	found := -1
	for i, col := range b.cols {
		if strings.ToLower(col.name) != name {
			continue
		}
		if qual != "" && strings.ToLower(col.qual) != qual {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("%w: column %q is ambiguous", ErrQuery, c.SQL())
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("%w: %q not found in %s", schema.ErrUnknownColumn, c.SQL(), b.describe())
	}
	return found, nil
}

// has reports whether the reference resolves without error.
func (b *binding) has(c *sqlparser.ColumnRef) bool {
	_, err := b.resolve(c)
	return err == nil
}

func (b *binding) describe() string {
	parts := make([]string, len(b.cols))
	for i, c := range b.cols {
		if c.qual != "" {
			parts[i] = c.qual + "." + c.name
		} else {
			parts[i] = c.name
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// starIndexes returns the column positions a (possibly qualified) star
// expands to.
func (b *binding) starIndexes(s *sqlparser.Star) ([]int, error) {
	var out []int
	qual := strings.ToLower(s.Table)
	for i, c := range b.cols {
		if qual == "" || strings.ToLower(c.qual) == qual {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: %s matches no columns in %s", ErrQuery, s.SQL(), b.describe())
	}
	return out, nil
}

// bindingFromRelation lifts a base-table schema into a binding under the
// given qualifier.
func bindingFromRelation(rel *schema.Relation, qual string) *binding {
	b := &binding{cols: make([]bcol, rel.Arity())}
	for i, c := range rel.Columns {
		b.cols[i] = bcol{qual: qual, name: c.Name, typ: c.Type, sens: c.Sensitive}
	}
	return b
}

// project restricts the binding to the given column positions, in that
// order, like Relation.Project: nil cols returns the receiver unchanged.
func (b *binding) project(cols []int) *binding {
	if cols == nil {
		return b
	}
	out := &binding{cols: make([]bcol, len(cols))}
	for i, c := range cols {
		out.cols[i] = b.cols[c]
	}
	return out
}

// concat merges two bindings (for joins).
func (b *binding) concat(o *binding) *binding {
	out := &binding{cols: make([]bcol, 0, len(b.cols)+len(o.cols))}
	out.cols = append(out.cols, b.cols...)
	out.cols = append(out.cols, o.cols...)
	return out
}

// relation converts a binding into an output relation schema.
func (b *binding) relation(name string) *schema.Relation {
	rel := &schema.Relation{Name: name, Columns: make([]schema.Column, len(b.cols))}
	for i, c := range b.cols {
		rel.Columns[i] = schema.Column{Name: c.name, Type: c.typ, Sensitive: c.sens}
	}
	return rel
}

// staticType infers the type an expression will evaluate to, used to type
// derived-table columns. Unknown cases degrade to TypeNull, which the
// runtime tolerates because values carry their own types.
func (b *binding) staticType(e sqlparser.Expr) schema.Type {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return x.Value.Type()
	case *sqlparser.ColumnRef:
		if i, err := b.resolve(x); err == nil {
			return b.cols[i].typ
		}
		return schema.TypeNull
	case *sqlparser.BinaryExpr:
		if x.Op.Comparison() || x.Op == sqlparser.OpAnd || x.Op == sqlparser.OpOr {
			return schema.TypeBool
		}
		if x.Op == sqlparser.OpConcat {
			return schema.TypeString
		}
		lt, rt := b.staticType(x.L), b.staticType(x.R)
		if x.Op == sqlparser.OpDiv || lt == schema.TypeFloat || rt == schema.TypeFloat {
			return schema.TypeFloat
		}
		if lt == schema.TypeInt && rt == schema.TypeInt {
			return schema.TypeInt
		}
		return schema.TypeFloat
	case *sqlparser.UnaryExpr:
		if x.Op == sqlparser.UnaryNot {
			return schema.TypeBool
		}
		return b.staticType(x.X)
	case *sqlparser.IsNull, *sqlparser.Between, *sqlparser.InList:
		return schema.TypeBool
	case *sqlparser.CaseExpr:
		if len(x.Whens) > 0 {
			return b.staticType(x.Whens[0].Then)
		}
		return schema.TypeNull
	case *sqlparser.FuncCall:
		return b.funcType(x)
	default:
		return schema.TypeNull
	}
}

func (b *binding) funcType(f *sqlparser.FuncCall) schema.Type {
	switch f.Name {
	case "count", "row_number", "rank", "dense_rank", "length", "sign":
		return schema.TypeInt
	case "avg", "stddev", "variance", "regr_intercept", "regr_slope", "regr_r2",
		"corr", "sqrt", "power", "exp", "ln", "log10", "round", "floor", "ceil":
		return schema.TypeFloat
	case "sum", "min", "max", "abs", "lag", "lead", "first_value", "last_value",
		"coalesce", "nullif", "least", "greatest":
		if len(f.Args) > 0 {
			return b.staticType(f.Args[0])
		}
		return schema.TypeNull
	case "upper", "lower", "substr", "trim", "concat":
		return schema.TypeString
	case "like":
		return schema.TypeBool
	default:
		return schema.TypeNull
	}
}

// sensitiveExpr reports whether the expression touches any column flagged
// Sensitive in the base schemas; derived columns propagate the flag.
func (b *binding) sensitiveExpr(e sqlparser.Expr) bool {
	out := false
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if c, ok := x.(*sqlparser.ColumnRef); ok {
			if i, err := b.resolve(c); err == nil && b.cols[i].sens {
				out = true
			}
		}
		return true
	})
	return out
}

// outputName derives the column name for a select item without alias.
func outputName(e sqlparser.Expr, idx int) string {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		return x.Name
	case *sqlparser.FuncCall:
		return x.Name
	default:
		return fmt.Sprintf("col%d", idx+1)
	}
}
