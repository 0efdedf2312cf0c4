package schema

import (
	"math"
	"strings"
	"time"
)

// CompareForSort totally orders two values for sorting: NULL sorts before
// everything, comparable pairs use Compare, and incomparable pairs (mixed
// non-numeric types, NaN against anything) order by type tag so sorting
// stays deterministic. This is the single ordering used by ORDER BY and
// window partition sorts; KeyCol.Compare must agree with it pairwise.
func CompareForSort(a, b Value) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	if c, ok := a.Compare(b); ok {
		return c
	}
	switch {
	case a.typ < b.typ:
		return -1
	case a.typ > b.typ:
		return 1
	default:
		return 0
	}
}

// KeyCol is one extracted sort-key column: values appended in row order,
// stored unboxed while every non-NULL value shares one runtime type, with a
// lazily-allocated null mask. A mixed-type column degrades to boxed Values
// and compares through CompareForSort, so Compare(i, j) always equals
// CompareForSort(row i's value, row j's value) — the typed fast paths are
// an encoding, never a semantic change.
type KeyCol struct {
	typ    Type // runtime type of the non-NULL values; TypeNull until the first one
	n      int
	nulls  []bool // nil while the column is NULL-free
	bools  []bool
	ints   []int64
	floats []float64
	strs   []string
	times  []time.Time
	box    []Value // non-nil once runtime types mixed; payloads above are dead
	nan    bool    // some appended float was NaN (kills the top-K total order)
}

// Len returns the number of appended values.
func (k *KeyCol) Len() int { return k.n }

// HasNaN reports whether any appended value was a float NaN. With NaN
// present the pairwise order is not transitive (NaN ties with everything
// float-comparable), so callers must not treat Compare as a strict weak
// order — stable full sorts remain deterministic, selection shortcuts do
// not.
func (k *KeyCol) HasNaN() bool { return k.nan }

// Append adds the next row's key value.
func (k *KeyCol) Append(v Value) {
	if v.typ == TypeFloat && math.IsNaN(v.f) {
		k.nan = true
	}
	if k.box != nil {
		k.box = append(k.box, v)
		k.n++
		return
	}
	if v.typ == TypeNull {
		if k.nulls == nil {
			k.nulls = make([]bool, k.n, k.n+1)
		}
		k.nulls = append(k.nulls, true)
		k.appendZero()
		k.n++
		return
	}
	if k.typ == TypeNull {
		// First non-NULL value fixes the payload type; any NULLs so far
		// already sit in the mask, backfill their payload slots.
		k.typ = v.typ
		for i := 0; i < k.n; i++ {
			k.appendZero()
		}
	} else if v.typ != k.typ {
		k.degrade()
		k.box = append(k.box, v)
		k.n++
		return
	}
	if k.nulls != nil {
		k.nulls = append(k.nulls, false)
	}
	switch k.typ {
	case TypeBool:
		k.bools = append(k.bools, v.b)
	case TypeInt:
		k.ints = append(k.ints, v.i)
	case TypeFloat:
		k.floats = append(k.floats, v.f)
	case TypeString:
		k.strs = append(k.strs, v.s)
	case TypeTime:
		k.times = append(k.times, v.t)
	}
	k.n++
}

// AppendVec adds the live elements of a column vector — the first n
// physical positions, or the positions sel lists — exactly as appending
// each element's boxed Value would, without boxing: a dense typed vector
// whose type the column already has (or can still take) is copied payload
// to payload. Vectors with a NULL mask, boxed vectors and type changes go
// element by element through Append, which owns masks and degradation.
func (k *KeyCol) AppendVec(v *ColVec, n int, sel []int) {
	if v.Box != nil || v.Nulls != nil || k.box != nil || (k.typ != TypeNull && k.typ != v.Typ) {
		if sel == nil {
			for i := 0; i < n; i++ {
				k.Append(v.Value(i))
			}
		} else {
			for _, i := range sel {
				k.Append(v.Value(i))
			}
		}
		return
	}
	live := n
	if sel != nil {
		live = len(sel)
	}
	if live == 0 {
		return
	}
	if k.typ == TypeNull {
		// Like Append's first non-NULL value: fix the payload type and
		// backfill the slots behind the NULLs seen so far.
		k.typ = v.Typ
		for i := 0; i < k.n; i++ {
			k.appendZero()
		}
	}
	if k.nulls != nil {
		k.nulls = append(k.nulls, make([]bool, live)...)
	}
	switch k.typ {
	case TypeBool:
		k.bools = appendLive(k.bools, v.Bools, n, sel)
	case TypeInt:
		k.ints = appendLive(k.ints, v.Ints, n, sel)
	case TypeFloat:
		k.floats = appendLive(k.floats, v.Floats, n, sel)
		if !k.nan {
			for _, f := range k.floats[len(k.floats)-live:] {
				if f != f {
					k.nan = true
					break
				}
			}
		}
	case TypeString:
		k.strs = appendLive(k.strs, v.Strs, n, sel)
	case TypeTime:
		k.times = appendLive(k.times, v.Times, n, sel)
	}
	k.n += live
}

// appendLive appends a payload's live elements: src[:n], or src at sel.
func appendLive[T any](dst, src []T, n int, sel []int) []T {
	if sel == nil {
		return append(dst, src[:n]...)
	}
	for _, i := range sel {
		dst = append(dst, src[i])
	}
	return dst
}

func (k *KeyCol) appendZero() {
	switch k.typ {
	case TypeBool:
		k.bools = append(k.bools, false)
	case TypeInt:
		k.ints = append(k.ints, 0)
	case TypeFloat:
		k.floats = append(k.floats, 0)
	case TypeString:
		k.strs = append(k.strs, "")
	case TypeTime:
		k.times = append(k.times, time.Time{})
	}
}

// degrade re-boxes everything appended so far; from here on the column
// compares through CompareForSort per pair.
func (k *KeyCol) degrade() {
	k.box = make([]Value, k.n, k.n+1)
	for i := 0; i < k.n; i++ {
		k.box[i] = k.value(i)
	}
	k.nulls = nil
}

// value reconstructs the boxed form of element i (typed storage only).
func (k *KeyCol) value(i int) Value {
	if k.nulls != nil && k.nulls[i] {
		return Value{}
	}
	switch k.typ {
	case TypeBool:
		return Bool(k.bools[i])
	case TypeInt:
		return Int(k.ints[i])
	case TypeFloat:
		return Float(k.floats[i])
	case TypeString:
		return String(k.strs[i])
	case TypeTime:
		return Time(k.times[i])
	}
	return Value{}
}

// Compare orders elements i and j exactly as CompareForSort orders their
// boxed forms. The typed branches below are each pairwise-identical to
// Value.Compare for a same-type pair: int64 order for ints, IEEE order for
// floats with NaN tying everything (Compare reports !ok, the type tags are
// equal, so CompareForSort returns 0), strings.Compare for strings,
// false < true for bools, and Before/After for times.
func (k *KeyCol) Compare(i, j int) int {
	if k.box != nil {
		return CompareForSort(k.box[i], k.box[j])
	}
	if k.nulls != nil {
		ni, nj := k.nulls[i], k.nulls[j]
		switch {
		case ni && nj:
			return 0
		case ni:
			return -1
		case nj:
			return 1
		}
	}
	switch k.typ {
	case TypeBool:
		a, b := k.bools[i], k.bools[j]
		switch {
		case a == b:
			return 0
		case !a:
			return -1
		default:
			return 1
		}
	case TypeInt:
		a, b := k.ints[i], k.ints[j]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	case TypeFloat:
		a, b := k.floats[i], k.floats[j]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	case TypeString:
		return strings.Compare(k.strs[i], k.strs[j])
	case TypeTime:
		a, b := k.times[i], k.times[j]
		switch {
		case a.Before(b):
			return -1
		case a.After(b):
			return 1
		default:
			return 0
		}
	}
	return 0 // all-NULL column: the mask already handled every pair
}
