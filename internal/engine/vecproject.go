package engine

import (
	"context"
	"fmt"
	"math"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// Vectorized expression projection: numeric select-list expressions are
// compiled into a tree of vector operators that run over unboxed payload
// slices, so x + y over a 256-row batch is one tight float64 loop instead of
// 256 evalExpr walks boxing six-field Values at every node. Pass-through
// columns keep using ColVec.fill, and only the final output rows pivot to
// row form.
//
// The compiler is deliberately narrow: plain column references of static
// numeric type, numeric literals, NULL, unary minus/plus and the arithmetic
// operators + - * / %. Anything else — string ops, CASE, functions,
// comparisons producing booleans — declines, and the block falls back to the
// row path, which stays the semantic reference. Within that fragment the
// semantics are bit-identical to evalBinary/evalArith:
//
//   - NULL on either side yields NULL (checked before any arithmetic, so
//     NULL / 0 is NULL, not an error).
//   - int op int stays integral except division; both use Go's wrapping
//     int64 arithmetic like the row path.
//   - Division/modulo by zero errors with the row path's exact message and
//     expression text.
//   - Error ordering: the row path aborts on the first failing row,
//     evaluating items left to right. Vector evaluation runs item by item
//     (column-major), so each item reports its first error position and the
//     iterator surfaces the error with the smallest row index, ties broken
//     by item order.
//
// Boxed vectors (heterogeneous columns) make static types meaningless; any
// batch referencing one falls back to row-at-a-time projection for that
// batch, keeping results exact.

// ptype is the static result type of a compiled projection node.
type ptype int

const (
	pInt ptype = iota
	pFloat
	pNull // statically NULL (a NULL literal somewhere in the tree)
)

// pcol is one evaluated projection column over the current batch's
// candidates: dense payloads of length n, or a single constant (konst), or
// all-NULL. Payload and null slices are scratch owned by the producing node,
// valid until its next eval.
type pcol struct {
	isFloat bool
	konst   bool
	allNull bool
	ints    []int64
	floats  []float64
	nulls   []bool // nil = no NULLs (ignored for konst/allNull)
}

func (p *pcol) nullAt(k int) bool {
	if p.allNull {
		return true
	}
	return !p.konst && p.nulls != nil && p.nulls[k]
}

func (p *pcol) intAt(k int) int64 {
	if p.konst {
		return p.ints[0]
	}
	return p.ints[k]
}

func (p *pcol) floatAt(k int) float64 {
	if p.isFloat {
		if p.konst {
			return p.floats[0]
		}
		return p.floats[k]
	}
	return float64(p.intAt(k))
}

// pnode is a compiled projection operator. eval returns the column over the
// batch's candidates (sel nil = all n physical rows), or the node's first
// error with its candidate position (the row the serial evaluator would have
// failed at).
type pnode interface {
	eval(cb *schema.ColBatch, sel []int, n int) (*pcol, int, error)
}

// pLit is a numeric or NULL literal.
type pLit struct{ out pcol }

func (l *pLit) eval(*schema.ColBatch, []int, int) (*pcol, int, error) { return &l.out, -1, nil }

// pRef reads one loaded column: a zero-copy alias of the payload when no
// selection is active, a gather into scratch otherwise.
type pRef struct {
	col     int
	isFloat bool
	out     pcol
	ibuf    []int64
	fbuf    []float64
	nbuf    []bool
}

func (r *pRef) eval(cb *schema.ColBatch, sel []int, n int) (*pcol, int, error) {
	v := &cb.Vecs[r.col]
	o := &r.out
	o.isFloat, o.konst, o.allNull = r.isFloat, false, false
	if sel == nil {
		o.nulls = v.Nulls
		if r.isFloat {
			o.floats = v.Floats
		} else {
			o.ints = v.Ints
		}
		return o, -1, nil
	}
	if r.isFloat {
		r.fbuf = r.fbuf[:0]
		for _, i := range sel {
			r.fbuf = append(r.fbuf, v.Floats[i])
		}
		o.floats = r.fbuf
	} else {
		r.ibuf = r.ibuf[:0]
		for _, i := range sel {
			r.ibuf = append(r.ibuf, v.Ints[i])
		}
		o.ints = r.ibuf
	}
	o.nulls = nil
	if v.Nulls != nil {
		r.nbuf = r.nbuf[:0]
		for _, i := range sel {
			r.nbuf = append(r.nbuf, v.Nulls[i])
		}
		o.nulls = r.nbuf
	}
	return o, -1, nil
}

// pNeg is unary minus (and unary plus compiles to the child directly).
type pNeg struct {
	x    pnode
	out  pcol
	ibuf []int64
	fbuf []float64
}

func (g *pNeg) eval(cb *schema.ColBatch, sel []int, n int) (*pcol, int, error) {
	xc, k, err := g.x.eval(cb, sel, n)
	if err != nil {
		return nil, k, err
	}
	o := &g.out
	if xc.allNull {
		*o = pcol{konst: true, allNull: true}
		return o, -1, nil
	}
	o.isFloat, o.konst, o.allNull, o.nulls = xc.isFloat, xc.konst, false, nil
	m := n
	if o.konst {
		m = 1
	} else {
		o.nulls = xc.nulls
	}
	if xc.isFloat {
		g.fbuf = g.fbuf[:0]
		for k := 0; k < m; k++ {
			g.fbuf = append(g.fbuf, -xc.floatAt(k))
		}
		o.floats = g.fbuf
	} else {
		g.ibuf = g.ibuf[:0]
		for k := 0; k < m; k++ {
			g.ibuf = append(g.ibuf, -xc.intAt(k))
		}
		o.ints = g.ibuf
	}
	return o, -1, nil
}

// pBin is one arithmetic operator.
type pBin struct {
	op     sqlparser.BinaryOp
	at     *sqlparser.BinaryExpr // for error text, like the row path
	l, r   pnode
	intRes bool // statically int op int with op != / (stays integral)
	out    pcol
	ibuf   []int64
	fbuf   []float64
	nbuf   []bool
}

func (b *pBin) eval(cb *schema.ColBatch, sel []int, n int) (*pcol, int, error) {
	// Both children always evaluate (the row path evaluates both operands
	// before its NULL check, so a dividing-by-zero right side errors even
	// under a NULL left side). The earlier error position wins; on the same
	// row the left operand fails first.
	lc, kl, el := b.l.eval(cb, sel, n)
	rc, kr, er := b.r.eval(cb, sel, n)
	if el != nil || er != nil {
		if el != nil && (er == nil || kl <= kr) {
			return nil, kl, el
		}
		return nil, kr, er
	}
	o := &b.out
	if lc.allNull || rc.allNull {
		*o = pcol{konst: true, allNull: true}
		return o, -1, nil
	}
	o.allNull = false
	o.konst = lc.konst && rc.konst
	m := n
	if o.konst {
		m = 1
	}
	// Merge the null masks: NULL on either side nulls the result row.
	var ln, rn []bool
	if !lc.konst {
		ln = lc.nulls
	}
	if !rc.konst {
		rn = rc.nulls
	}
	switch {
	case ln == nil:
		o.nulls = rn
	case rn == nil:
		o.nulls = ln
	default:
		b.nbuf = b.nbuf[:0]
		for k := 0; k < m; k++ {
			b.nbuf = append(b.nbuf, ln[k] || rn[k])
		}
		o.nulls = b.nbuf
	}
	nulls := o.nulls
	if o.konst {
		nulls = nil
	}

	if b.intRes {
		o.isFloat = false
		b.ibuf = b.ibuf[:0]
		for k := 0; k < m; k++ {
			if nulls != nil && nulls[k] {
				b.ibuf = append(b.ibuf, 0)
				continue
			}
			x, y := lc.intAt(k), rc.intAt(k)
			var z int64
			switch b.op {
			case sqlparser.OpAdd:
				z = x + y
			case sqlparser.OpSub:
				z = x - y
			case sqlparser.OpMul:
				z = x * y
			case sqlparser.OpMod:
				if y == 0 {
					return nil, k, fmt.Errorf("%w: division by zero in %s", ErrQuery, b.at.SQL())
				}
				z = x % y
			}
			b.ibuf = append(b.ibuf, z)
		}
		o.ints = b.ibuf
		return o, -1, nil
	}

	o.isFloat = true
	b.fbuf = b.fbuf[:0]
	for k := 0; k < m; k++ {
		if nulls != nil && nulls[k] {
			b.fbuf = append(b.fbuf, 0)
			continue
		}
		x, y := lc.floatAt(k), rc.floatAt(k)
		var z float64
		switch b.op {
		case sqlparser.OpAdd:
			z = x + y
		case sqlparser.OpSub:
			z = x - y
		case sqlparser.OpMul:
			z = x * y
		case sqlparser.OpDiv:
			if y == 0 {
				return nil, k, fmt.Errorf("%w: division by zero in %s", ErrQuery, b.at.SQL())
			}
			z = x / y
		case sqlparser.OpMod:
			if y == 0 {
				return nil, k, fmt.Errorf("%w: division by zero in %s", ErrQuery, b.at.SQL())
			}
			z = math.Mod(x, y)
		}
		b.fbuf = append(b.fbuf, z)
	}
	o.floats = b.fbuf
	return o, -1, nil
}

// compilePExpr compiles one select-list expression into a projection node,
// recording every referenced load-layout column in *refs. ok=false declines
// (unsupported form or non-numeric static type).
func compilePExpr(e sqlparser.Expr, lb *binding, lrel *schema.Relation, refs *[]int) (pnode, ptype, bool) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		switch x.Value.Type() {
		case schema.TypeInt:
			return &pLit{out: pcol{konst: true, ints: []int64{x.Value.AsInt()}}}, pInt, true
		case schema.TypeFloat:
			return &pLit{out: pcol{konst: true, isFloat: true, floats: []float64{x.Value.AsFloat()}}}, pFloat, true
		case schema.TypeNull:
			return &pLit{out: pcol{konst: true, allNull: true}}, pNull, true
		}
		return nil, 0, false
	case *sqlparser.ColumnRef:
		i, err := lb.resolve(x)
		if err != nil {
			return nil, 0, false
		}
		switch lrel.Columns[i].Type {
		case schema.TypeInt:
			*refs = append(*refs, i)
			return &pRef{col: i}, pInt, true
		case schema.TypeFloat:
			*refs = append(*refs, i)
			return &pRef{col: i, isFloat: true}, pFloat, true
		}
		return nil, 0, false
	case *sqlparser.UnaryExpr:
		if x.Op != sqlparser.UnaryNeg {
			return nil, 0, false
		}
		child, t, ok := compilePExpr(x.X, lb, lrel, refs)
		if !ok {
			return nil, 0, false
		}
		return &pNeg{x: child}, t, true
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv, sqlparser.OpMod:
		default:
			return nil, 0, false
		}
		l, lt, ok := compilePExpr(x.L, lb, lrel, refs)
		if !ok {
			return nil, 0, false
		}
		r, rt, ok := compilePExpr(x.R, lb, lrel, refs)
		if !ok {
			return nil, 0, false
		}
		t := pFloat
		switch {
		case lt == pNull || rt == pNull:
			t = pNull
		case lt == pInt && rt == pInt && x.Op != sqlparser.OpDiv:
			t = pInt
		}
		return &pBin{op: x.Op, at: x, l: l, r: r, intRes: t == pInt}, t, true
	}
	return nil, 0, false
}

// projItem is one output column of the vectorized projection: a pass-through
// of a loaded column, or a compiled expression node.
type projItem struct {
	pass int // load-layout position when >= 0
	node pnode
}

// openVecProject compiles a plain SELECT over a columnar source — no
// breaker, no DISTINCT. A select list of stars and plain columns needs no
// evaluation at all and is served as column batches (vecPassIter,
// vecblock.go); expression items must all vectorize, and their results leave
// as rows. The contract is openVecBlock's.
func (e *Engine) openVecProject(ctx context.Context, vs *vecSource, blk *plan.Block) (*schema.Relation, schema.RowIterator, string, error) {
	if vs == nil {
		return nil, nil, DeclineProjection, nil
	}
	p := vs.p
	proj, err := buildProjector(blk.Items(), p.lb)
	if err != nil {
		return nil, nil, DeclineProjection, nil // row path reports the projection error
	}
	items := make([]projItem, len(proj.cols))
	var refs []int
	exprs := 0
	for i, c := range proj.cols {
		if c.starIdx >= 0 {
			items[i] = projItem{pass: c.starIdx}
			continue
		}
		node, _, ok := compilePExpr(c.expr, p.lb, p.lrel, &refs)
		if !ok {
			return nil, nil, DeclineProjection, nil
		}
		items[i] = projItem{pass: -1, node: node}
		exprs++
	}
	if exprs == 0 && blk.Limit != nil {
		// The segment path owns the streaming LIMIT of a bare scan: it pushes
		// the limit into the scan's batch size.
		return nil, nil, DeclineLimit, nil
	}

	// The pass hands its batches on; the projection pivots each at once.
	ci, err := vs.open(ctx, exprs == 0)
	if err != nil {
		return nil, nil, "", err
	}
	if exprs == 0 {
		return proj.rel, newVecPassIter(ctx, ci, p, proj), "", nil
	}
	var out schema.RowIterator = &vecProjIter{
		src:     ci,
		ex:      newVecExec(p),
		proj:    proj,
		env:     (&rowEnv{b: p.lb}).reuse(),
		items:   items,
		results: make([]*pcol, len(items)),
		refs:    refs,
		orel:    proj.rel,
	}
	if blk.Limit != nil {
		n := int(blk.Limit.N)
		if n < 0 {
			n = 0
		}
		out = &limitIter{src: out, remaining: n}
	}
	return proj.rel, schema.WithContext(ctx, out), DeclineProjection, nil
}

// vecProjIter filters each batch with the compiled kernels, evaluates the
// projection item by item over the surviving candidates, and pivots only the
// final output rows.
type vecProjIter struct {
	src     schema.ColIterator
	ex      *vecExec
	proj    *projector // row fallback for batches with boxed vectors
	env     *rowEnv
	items   []projItem
	results []*pcol
	refs    []int
	orel    *schema.Relation
}

func (v *vecProjIter) Next() (schema.Rows, error) {
	for {
		cb, err := v.src.NextBatch()
		if err != nil {
			return nil, err
		}
		if cb == nil {
			return nil, nil
		}
		sel, err := v.ex.filterSel(cb)
		if err != nil {
			return nil, err
		}
		n := cb.N
		if sel != nil {
			n = len(sel)
		}
		if n == 0 {
			continue
		}
		boxed := false
		for _, c := range v.refs {
			if cb.Vecs[c].Boxed() {
				boxed = true
				break
			}
		}
		if boxed {
			// Heterogeneous column: static types don't hold, pivot the
			// survivors and project row-at-a-time.
			rows, err := v.rowFallback(cb, sel)
			if err != nil {
				return nil, err
			}
			return rows, nil
		}

		var pend error
		pendK := -1
		for ci, it := range v.items {
			if it.pass >= 0 {
				continue
			}
			pc, k, err := it.node.eval(cb, sel, n)
			if err != nil {
				if pend == nil || k < pendK {
					pend, pendK = err, k
				}
				continue
			}
			v.results[ci] = pc
		}
		if pend != nil {
			return nil, pend
		}

		w := len(v.items)
		vals := make([]schema.Value, n*w)
		out := make(schema.Rows, n)
		for i := range out {
			out[i] = schema.Row(vals[i*w : (i+1)*w : (i+1)*w])
		}
		for ci, it := range v.items {
			if it.pass >= 0 {
				cb.Vecs[it.pass].Fill(vals[ci:], w, cb.N, sel)
				continue
			}
			pc := v.results[ci]
			if pc.allNull {
				continue // zero Values are NULL already
			}
			if pc.isFloat {
				for k := 0; k < n; k++ {
					if !pc.nullAt(k) {
						vals[k*w+ci] = schema.Float(pc.floatAt(k))
					}
				}
			} else {
				for k := 0; k < n; k++ {
					if !pc.nullAt(k) {
						vals[k*w+ci] = schema.Int(pc.intAt(k))
					}
				}
			}
		}
		return out, nil
	}
}

func (v *vecProjIter) rowFallback(cb *schema.ColBatch, sel []int) (schema.Rows, error) {
	tmp := schema.ColBatch{Rel: v.ex.p.lrel, Vecs: cb.Vecs, N: cb.N, Sel: sel}
	in := tmp.Rows()
	w := len(v.proj.cols)
	vals := make([]schema.Value, len(in)*w)
	out := make(schema.Rows, len(in))
	for i, r := range in {
		v.env.row = r
		orow := schema.Row(vals[i*w : (i+1)*w : (i+1)*w])
		if err := v.proj.projectInto(v.env, orow); err != nil {
			return nil, err
		}
		out[i] = orow
	}
	return out, nil
}

func (v *vecProjIter) Close() { v.src.Close() }
