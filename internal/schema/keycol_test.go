package schema

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// keyColGen draws one random value. mode picks a uniform type (so the column
// stays typed) or, when mixed, any type (so the column degrades to boxed
// storage mid-append). NULLs appear in every mode.
func keyColGen(rng *rand.Rand, mode int) Value {
	if rng.Intn(6) == 0 {
		return Null()
	}
	kind := mode
	if mode < 0 {
		kind = rng.Intn(5)
	}
	switch kind {
	case 0:
		return Int(int64(rng.Intn(7) - 3))
	case 1:
		switch rng.Intn(6) {
		case 0:
			return Float(math.NaN())
		case 1:
			return Float(math.Copysign(0, -1))
		case 2:
			return Float(math.Inf(1))
		default:
			return Float(float64(rng.Intn(9)-4) / 2)
		}
	case 2:
		return String([]string{"", "a", "b", "ab", "a\x00b"}[rng.Intn(5)])
	case 3:
		return Bool(rng.Intn(2) == 0)
	default:
		return Time(time.Unix(int64(rng.Intn(3)), int64(rng.Intn(2))))
	}
}

// TestKeyColCompareMatchesCompareForSort is the comparator-equivalence fuzz:
// for random columns — uniformly typed and deliberately mixed (boxed) —
// KeyCol.Compare(i, j) must agree with CompareForSort on every pair,
// including NaN, -0.0, infinities, NULLs and cross-type pairs. The sorts
// built on KeyCol are only correct because of this pairwise identity.
func TestKeyColCompareMatchesCompareForSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20160316))
	for round := 0; round < 120; round++ {
		mode := round%6 - 1 // -1 = mixed, else one uniform type per round
		n := 2 + rng.Intn(30)
		vals := make([]Value, n)
		var kc KeyCol
		for i := range vals {
			vals[i] = keyColGen(rng, mode)
			kc.Append(vals[i])
		}
		if kc.Len() != n {
			t.Fatalf("round %d: Len = %d, want %d", round, kc.Len(), n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got, want := kc.Compare(i, j), CompareForSort(vals[i], vals[j]); got != want {
					t.Fatalf("round %d: Compare(%d,%d) = %d, CompareForSort(%s, %s) = %d",
						round, i, j, got, vals[i].Format(), vals[j].Format(), want)
				}
			}
		}
		wantNaN := false
		for _, v := range vals {
			if v.Type() == TypeFloat && math.IsNaN(v.AsFloat()) {
				wantNaN = true
			}
		}
		if kc.HasNaN() != wantNaN {
			t.Fatalf("round %d: HasNaN = %v, want %v", round, kc.HasNaN(), wantNaN)
		}
	}
}

// TestKeyColLeadingNulls pins the deferred-typing backfill: a column whose
// first non-NULL value arrives late must still compare its leading NULLs as
// NULLs, not as the payload zero value.
func TestKeyColLeadingNulls(t *testing.T) {
	var kc KeyCol
	kc.Append(Null())
	kc.Append(Null())
	kc.Append(Int(0)) // payload zero — must stay distinct from NULL
	kc.Append(Int(-1))
	if kc.Compare(0, 1) != 0 {
		t.Fatal("NULL vs NULL != 0")
	}
	if kc.Compare(0, 2) >= 0 {
		t.Fatal("NULL must sort before Int(0)")
	}
	if kc.Compare(2, 3) <= 0 {
		t.Fatal("Int(0) vs Int(-1) ordered wrong")
	}
}

// TestKeyColAppendVecMatchesAppend pins the typed bulk append against the
// boxed one: for random streams of batches — typed, NULL-bearing, boxed by a
// stray value, a type change between batches, dense and under a selection —
// a column fed by AppendVec must compare every pair, and report NaN, exactly
// like one fed the same live values through Append.
func TestKeyColAppendVecMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for round := 0; round < 300; round++ {
		var got, want KeyCol
		mode := rng.Intn(5)
		for b := rng.Intn(4) + 1; b > 0; b-- {
			if rng.Intn(8) == 0 {
				mode = rng.Intn(5) // the column's type changes mid-stream
			}
			typ := []Type{TypeInt, TypeFloat, TypeString, TypeBool, TypeTime}[mode]
			v := NewColVec(typ)
			n := rng.Intn(12)
			dense := rng.Intn(2) == 0
			for i := 0; i < n; i++ {
				val := keyColGen(rng, mode)
				for dense && val.IsNull() {
					val = keyColGen(rng, mode)
				}
				if rng.Intn(40) == 0 {
					val = keyColGen(rng, -1) // may box the vector
				}
				v.Append(val)
			}
			var sel []int
			if rng.Intn(2) == 0 {
				sel = []int{}
				for i := 0; i < n; i++ {
					if rng.Intn(2) == 0 {
						sel = append(sel, i)
					}
				}
			}
			got.AppendVec(&v, n, sel)
			if sel == nil {
				for i := 0; i < n; i++ {
					want.Append(v.Value(i))
				}
			} else {
				for _, i := range sel {
					want.Append(v.Value(i))
				}
			}
		}
		if got.Len() != want.Len() || got.HasNaN() != want.HasNaN() {
			t.Fatalf("round %d: Len/HasNaN = %d/%v, want %d/%v", round, got.Len(), got.HasNaN(), want.Len(), want.HasNaN())
		}
		for i := 0; i < got.Len(); i++ {
			for j := 0; j < got.Len(); j++ {
				if g, w := got.Compare(i, j), want.Compare(i, j); g != w {
					t.Fatalf("round %d: Compare(%d,%d) = %d, want %d", round, i, j, g, w)
				}
			}
		}
	}
}
