package engine

import (
	"fmt"
	"math"

	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// accumulator folds argument tuples of one aggregate call over the rows of a
// group (or window frame) and produces the aggregate value.
type accumulator interface {
	// add feeds the evaluated arguments for one row. For COUNT(*) the slice
	// is empty.
	add(args []schema.Value)
	// result returns the aggregate value over everything added so far.
	// Accumulators are cumulative: add may be interleaved with result,
	// which is what the window operator's running frames rely on.
	result() schema.Value
}

// numAcc is the unboxed entry of the accumulators that fold one numeric
// argument (COUNT(x), SUM, AVG, MIN, MAX, STDDEV/VARIANCE): the vectorized
// GROUP BY feeds them straight from Ints/Floats payloads, skipping NULLs
// itself. Their add(args) lands on the same two methods, so a value folds
// identically — float sums bit for bit — whichever way it arrives.
type numAcc interface {
	addInt(x int64)
	addFloat(x float64)
}

// newAccumulator builds the accumulator for the named aggregate.
func newAccumulator(f *sqlparser.FuncCall) (accumulator, error) {
	var inner accumulator
	switch f.Name {
	case "count":
		inner = &countAcc{star: f.Star}
	case "sum":
		inner = &sumAcc{}
	case "avg":
		inner = &avgAcc{}
	case "min":
		inner = &minmaxAcc{min: true}
	case "max":
		inner = &minmaxAcc{min: false}
	case "stddev", "variance":
		inner = &varAcc{std: f.Name == "stddev"}
	case "regr_intercept", "regr_slope", "regr_r2", "corr":
		if f.Star || len(f.Args) != 2 {
			return nil, fmt.Errorf("%w: %s takes exactly 2 arguments", ErrQuery, f.Name)
		}
		inner = &regrAcc{kind: f.Name}
	default:
		return nil, fmt.Errorf("%w: unknown aggregate %s", ErrQuery, f.Name)
	}
	if f.Distinct {
		return &distinctAcc{inner: inner, seen: make(map[string]bool)}, nil
	}
	return inner, nil
}

// distinctAcc deduplicates argument tuples before forwarding to the wrapped
// accumulator (COUNT(DISTINCT x), SUM(DISTINCT x), ...).
type distinctAcc struct {
	inner accumulator
	seen  map[string]bool
	kbuf  []byte
}

func (d *distinctAcc) add(args []schema.Value) {
	d.kbuf = d.kbuf[:0]
	for _, a := range args {
		d.kbuf = a.AppendGroupKey(d.kbuf)
	}
	if d.seen[string(d.kbuf)] {
		return
	}
	d.seen[string(d.kbuf)] = true
	d.inner.add(args)
}

func (d *distinctAcc) result() schema.Value { return d.inner.result() }

// countAcc implements COUNT(*) and COUNT(x).
type countAcc struct {
	star bool
	n    int64
}

func (c *countAcc) add(args []schema.Value) {
	if c.star {
		c.n++
		return
	}
	if len(args) > 0 && !args[0].IsNull() {
		c.n++
	}
}

func (c *countAcc) addInt(int64)     { c.n++ }
func (c *countAcc) addFloat(float64) { c.n++ }

func (c *countAcc) result() schema.Value { return schema.Int(c.n) }

// sumAcc implements SUM with integer preservation.
type sumAcc struct {
	anyFloat bool
	sawValue bool
	i        int64
	f        float64
}

func (s *sumAcc) add(args []schema.Value) {
	if len(args) == 0 || args[0].IsNull() {
		return
	}
	switch v := args[0]; v.Type() {
	case schema.TypeInt:
		s.addInt(v.AsInt())
	case schema.TypeFloat:
		s.addFloat(v.AsFloat())
	default:
		s.sawValue = true // a non-numeric value adds nothing, but is a value
	}
}

func (s *sumAcc) addInt(x int64) {
	s.sawValue = true
	s.f += float64(x)
	s.i += x
}

func (s *sumAcc) addFloat(x float64) {
	s.sawValue, s.anyFloat = true, true
	s.f += x
}

func (s *sumAcc) result() schema.Value {
	if !s.sawValue {
		return schema.Null() // SQL: SUM over empty/all-NULL input is NULL
	}
	if s.anyFloat {
		return schema.Float(s.f)
	}
	return schema.Int(s.i)
}

// avgAcc implements AVG.
type avgAcc struct {
	n   int64
	sum float64
}

func (a *avgAcc) add(args []schema.Value) {
	if len(args) == 0 || args[0].IsNull() || !args[0].Type().Numeric() {
		return
	}
	a.addFloat(args[0].AsFloat())
}

func (a *avgAcc) addInt(x int64) { a.addFloat(float64(x)) }

func (a *avgAcc) addFloat(x float64) {
	a.n++
	a.sum += x
}

func (a *avgAcc) result() schema.Value {
	if a.n == 0 {
		return schema.Null()
	}
	return schema.Float(a.sum / float64(a.n))
}

// minmaxAcc implements MIN/MAX over any comparable type.
type minmaxAcc struct {
	min  bool
	best schema.Value
}

func (m *minmaxAcc) add(args []schema.Value) {
	if len(args) == 0 || args[0].IsNull() {
		return
	}
	v := args[0]
	if m.best.IsNull() {
		m.best = v
		return
	}
	if c, ok := v.Compare(m.best); ok && ((m.min && c < 0) || (!m.min && c > 0)) {
		m.best = v
	}
}

// addInt and addFloat compare unboxed while the running best has the
// value's own type, where </> is Value.Compare exactly (a NaN on either side
// is incomparable there and false here, so best stays); a best of another
// type, or none yet, takes the boxed route.
func (m *minmaxAcc) addInt(x int64) {
	if m.best.Type() != schema.TypeInt {
		m.add([]schema.Value{schema.Int(x)})
	} else if b := m.best.AsInt(); (m.min && x < b) || (!m.min && x > b) {
		m.best = schema.Int(x)
	}
}

func (m *minmaxAcc) addFloat(x float64) {
	if m.best.Type() != schema.TypeFloat {
		m.add([]schema.Value{schema.Float(x)})
	} else if b := m.best.AsFloat(); (m.min && x < b) || (!m.min && x > b) {
		m.best = schema.Float(x)
	}
}

func (m *minmaxAcc) result() schema.Value { return m.best }

// varAcc implements sample VARIANCE and STDDEV via Welford's algorithm.
type varAcc struct {
	std  bool
	n    int64
	mean float64
	m2   float64
}

func (v *varAcc) add(args []schema.Value) {
	if len(args) == 0 || args[0].IsNull() || !args[0].Type().Numeric() {
		return
	}
	v.addFloat(args[0].AsFloat())
}

func (v *varAcc) addInt(x int64) { v.addFloat(float64(x)) }

func (v *varAcc) addFloat(x float64) {
	v.n++
	d := x - v.mean
	v.mean += d / float64(v.n)
	v.m2 += d * (x - v.mean)
}

func (v *varAcc) result() schema.Value {
	if v.n < 2 {
		return schema.Null()
	}
	variance := v.m2 / float64(v.n-1)
	if v.std {
		return schema.Float(math.Sqrt(variance))
	}
	return schema.Float(variance)
}

// regrAcc implements the SQL:2003 linear-regression aggregates over (y, x)
// pairs: REGR_SLOPE, REGR_INTERCEPT, REGR_R2 and CORR. Pairs with a NULL on
// either side are ignored, per the standard.
type regrAcc struct {
	kind string
	n    int64
	sx   float64
	sy   float64
	sxx  float64
	syy  float64
	sxy  float64
}

func (r *regrAcc) add(args []schema.Value) {
	if len(args) != 2 || args[0].IsNull() || args[1].IsNull() {
		return
	}
	if !args[0].Type().Numeric() || !args[1].Type().Numeric() {
		return
	}
	y, x := args[0].AsFloat(), args[1].AsFloat()
	r.n++
	r.sx += x
	r.sy += y
	r.sxx += x * x
	r.syy += y * y
	r.sxy += x * y
}

func (r *regrAcc) result() schema.Value {
	if r.n == 0 {
		return schema.Null()
	}
	n := float64(r.n)
	covXY := r.sxy - r.sx*r.sy/n
	varX := r.sxx - r.sx*r.sx/n
	varY := r.syy - r.sy*r.sy/n
	switch r.kind {
	case "regr_slope":
		if varX == 0 {
			return schema.Null()
		}
		return schema.Float(covXY / varX)
	case "regr_intercept":
		if varX == 0 {
			return schema.Null()
		}
		slope := covXY / varX
		return schema.Float(r.sy/n - slope*r.sx/n)
	case "regr_r2":
		if varX == 0 {
			return schema.Null()
		}
		if varY == 0 {
			return schema.Float(1)
		}
		rr := covXY * covXY / (varX * varY)
		return schema.Float(rr)
	case "corr":
		if varX == 0 || varY == 0 {
			return schema.Null()
		}
		return schema.Float(covXY / math.Sqrt(varX*varY))
	default:
		return schema.Null()
	}
}

// evalAggregate computes one aggregate call over a set of rows.
func evalAggregate(b *binding, rows schema.Rows, f *sqlparser.FuncCall) (schema.Value, error) {
	acc, err := newAccumulator(f)
	if err != nil {
		return schema.Null(), err
	}
	af := newAggFeeder(b, f)
	for _, row := range rows {
		if err := af.feed(acc, row); err != nil {
			return schema.Null(), err
		}
	}
	return acc.result(), nil
}

// aggFeeder evaluates one aggregate call's arguments row after row with a
// single environment and argument buffer: accumulators consume the argument
// values synchronously, so the buffer is safe to reuse across rows.
type aggFeeder struct {
	f    *sqlparser.FuncCall
	env  *rowEnv
	args []schema.Value
}

func newAggFeeder(b *binding, f *sqlparser.FuncCall) *aggFeeder {
	af := &aggFeeder{f: f, env: (&rowEnv{b: b}).reuse()}
	if !f.Star {
		af.args = make([]schema.Value, len(f.Args))
	}
	return af
}

// feed evaluates the call's arguments against one row and adds them to acc.
func (af *aggFeeder) feed(acc accumulator, row schema.Row) error {
	if af.f.Star {
		acc.add(nil)
		return nil
	}
	af.env.row = row
	for i, a := range af.f.Args {
		v, err := evalExpr(af.env, a)
		if err != nil {
			return err
		}
		af.args[i] = v
	}
	acc.add(af.args)
	return nil
}
