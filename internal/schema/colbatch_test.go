package schema

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"
)

// rowsEqual compares two row sets value by value with GroupEqual-style
// strictness relaxed to plain equality semantics: same type, same payload.
func rowsEqual(a, b Rows) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			x, y := a[i][c], b[i][c]
			if x.Type() != y.Type() {
				return false
			}
			if x.IsNull() {
				continue
			}
			cmp, ok := x.Compare(y)
			if !ok || cmp != 0 {
				// NaN compares unequal to itself; treat matching NaNs as equal.
				if x.Type() == TypeFloat && math.IsNaN(x.AsFloat()) && math.IsNaN(y.AsFloat()) {
					continue
				}
				return false
			}
		}
	}
	return true
}

func pivotRel() *Relation {
	return NewRelation("p",
		Col("b", TypeBool),
		Col("i", TypeInt),
		Col("f", TypeFloat),
		Col("s", TypeString),
		Col("t", TypeTime),
	)
}

func pivotRows() Rows {
	t0 := time.Date(2016, 3, 15, 12, 0, 0, 0, time.UTC)
	return Rows{
		{Bool(true), Int(1), Float(1.5), String("a"), Time(t0)},
		{Bool(false), Int(-2), Float(math.NaN()), String(""), Time(t0.Add(time.Hour))},
		{Null(), Null(), Null(), Null(), Null()},
		{Bool(true), Int(math.MaxInt64), Float(math.Inf(-1)), String("a\x00b"), Time(time.Time{})},
	}
}

// TestBatchRoundTripAllTypes pivots rows of every type (with NULLs mixed in)
// to columns and back and requires an exact round trip.
func TestBatchRoundTripAllTypes(t *testing.T) {
	rel, rows := pivotRel(), pivotRows()
	cb := BatchFromRows(rel, rows)
	if cb.N != len(rows) || cb.Len() != len(rows) {
		t.Fatalf("batch size: N=%d Len=%d, want %d", cb.N, cb.Len(), len(rows))
	}
	for _, v := range cb.Vecs {
		if v.Boxed() {
			t.Fatalf("homogeneous column degraded to boxed storage")
		}
	}
	if got := cb.Rows(); !rowsEqual(got, rows) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, rows)
	}
	for i := range rows {
		if got := cb.RowAt(i); !rowsEqual(Rows{got}, Rows{rows[i]}) {
			t.Fatalf("RowAt(%d) = %v, want %v", i, got, rows[i])
		}
	}
}

// TestBatchBoxedDegradation inserts a value of the wrong runtime type into a
// declared-int column; the vector must degrade to boxed storage and still
// round-trip exactly.
func TestBatchBoxedDegradation(t *testing.T) {
	rel := NewRelation("p", Col("i", TypeInt))
	rows := Rows{{Int(1)}, {String("not an int")}, {Null()}, {Int(2)}}
	cb := BatchFromRows(rel, rows)
	if !cb.Vecs[0].Boxed() {
		t.Fatal("heterogeneous column must degrade to boxed storage")
	}
	if got := cb.Rows(); !rowsEqual(got, rows) {
		t.Fatalf("boxed round trip mismatch:\n got %v\nwant %v", got, rows)
	}
	// Per-element accessors agree with the boxed values.
	for i := range rows {
		if cb.Vecs[0].Null(i) != rows[i][0].IsNull() {
			t.Fatalf("Null(%d) mismatch", i)
		}
	}
}

// TestBatchSelectionEdges covers the selection-vector edge cases: nil
// (all rows), empty non-nil (no rows), a single row, and a strict subset.
func TestBatchSelectionEdges(t *testing.T) {
	rel, rows := pivotRel(), pivotRows()
	base := BatchFromRows(rel, rows)
	cases := []struct {
		name string
		sel  []int
		want Rows
	}{
		{"nil sel selects all", nil, rows},
		{"empty sel selects none", []int{}, Rows{}},
		{"single row", []int{2}, Rows{rows[2]}},
		{"subset", []int{0, 3}, Rows{rows[0], rows[3]}},
	}
	for _, c := range cases {
		cb := ColBatch{Rel: rel, Vecs: base.Vecs, N: base.N, Sel: c.sel}
		if cb.Len() != len(c.want) {
			t.Errorf("%s: Len = %d, want %d", c.name, cb.Len(), len(c.want))
		}
		got := cb.Rows()
		if got == nil {
			t.Errorf("%s: Rows() returned nil, want non-nil", c.name)
		}
		if !rowsEqual(got, c.want) {
			t.Errorf("%s: rows mismatch:\n got %v\nwant %v", c.name, got, c.want)
		}
	}
}

// TestColVecAppendGroupKeyMatchesValue pins the columnar key fast path to the
// boxed definition: ColVec.AppendGroupKey(dst, i) must produce the same bytes
// as boxing the element and calling Value.AppendGroupKey.
func TestColVecAppendGroupKeyMatchesValue(t *testing.T) {
	rel, rows := pivotRel(), pivotRows()
	cb := BatchFromRows(rel, rows)
	check := func(label string, v *ColVec) {
		for i := 0; i < v.Len(); i++ {
			fast := v.AppendGroupKey(nil, i)
			slow := v.Value(i).AppendGroupKey(nil)
			if !bytes.Equal(fast, slow) {
				t.Errorf("%s[%d]: columnar key %q != boxed key %q", label, i, fast, slow)
			}
		}
	}
	for c := range cb.Vecs {
		check(rel.Columns[c].Name, &cb.Vecs[c])
	}
	// Same contract on a boxed (degraded) vector.
	boxed := NewColVec(TypeInt)
	for _, v := range []Value{Int(1), String("x"), Null(), Float(1.0)} {
		boxed.Append(v)
	}
	if !boxed.Boxed() {
		t.Fatal("expected degraded vector")
	}
	check("boxed", &boxed)
}

// TestColVecWindow checks that windows alias the right elements and preserve
// the NULL mask.
func TestColVecWindow(t *testing.T) {
	v := NewColVec(TypeInt)
	for _, x := range []Value{Int(0), Null(), Int(2), Int(3)} {
		v.Append(x)
	}
	w := v.Window(1, 3)
	if w.Len() != 2 {
		t.Fatalf("window len = %d, want 2", w.Len())
	}
	if !w.Null(0) || w.Null(1) {
		t.Fatal("window null mask misaligned")
	}
	if w.Value(1).AsInt() != 2 {
		t.Fatalf("window element = %v, want 2", w.Value(1))
	}
}

// TestBatchWireSizeMatchesRows is the accounting property the columnar stage
// boundary rests on: a batch weighs exactly what its pivoted rows weigh —
// over typed vectors, NULL masks, vectors degraded to boxed storage, refined
// and empty selections, and windows.
func TestBatchWireSizeMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(20160315))
	rel := pivotRel()
	t0 := time.Date(2016, 3, 15, 12, 0, 0, 0, time.UTC)
	words := []string{"", "a", "status-ok", "a\x00b", "längere Zeichenkette"}
	randomRow := func(nulls, wrongType bool) Row {
		r := Row{
			Bool(rng.Intn(2) == 0),
			Int(rng.Int63n(1000) - 500),
			Float(rng.NormFloat64()),
			String(words[rng.Intn(len(words))]),
			Time(t0.Add(time.Duration(rng.Intn(1000)) * time.Second)),
		}
		for c := range r {
			if nulls && rng.Intn(4) == 0 {
				r[c] = Null()
			}
		}
		if wrongType && rng.Intn(3) == 0 {
			r[rng.Intn(len(r))] = String("wrong type") // degrades that vector to boxed
		}
		return r
	}
	check := func(label string, cb *ColBatch) {
		t.Helper()
		if got, want := cb.WireSize(), cb.Rows().WireSize(); got != want {
			t.Fatalf("%s: ColBatch.WireSize() = %d, Rows().WireSize() = %d (N=%d Sel=%v)", label, got, want, cb.N, cb.Sel)
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		nulls, wrongType := trial%2 == 1, trial%5 == 4
		rows := make(Rows, n)
		for i := range rows {
			rows[i] = randomRow(nulls, wrongType)
		}
		base := BatchFromRows(rel, rows)
		check("dense", base)

		// A refined selection: an ascending random subset, possibly empty.
		sel := []int{}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				sel = append(sel, i)
			}
		}
		check("sel", &ColBatch{Rel: rel, Vecs: base.Vecs, N: n, Sel: sel})
		check("empty sel", &ColBatch{Rel: rel, Vecs: base.Vecs, N: n, Sel: []int{}})

		// A window of the vectors whose N is shorter than their backing.
		if n > 2 {
			lo, hi := 1, n-1
			vecs := make([]ColVec, len(base.Vecs))
			for c := range vecs {
				vecs[c] = base.Vecs[c].Window(lo, hi)
			}
			check("window", &ColBatch{Rel: rel, Vecs: vecs, N: hi - lo})
		}
		// Re-sliced to fewer columns, as a stage boundary's projection does.
		check("narrowed", &ColBatch{Rel: rel.Project([]int{3, 1}), Vecs: []ColVec{base.Vecs[3], base.Vecs[1]}, N: n, Sel: sel})
	}
	// No columns at all (COUNT(*) shapes ship empty rows): the row prefix only.
	check("zero width", &ColBatch{Rel: rel.Project([]int{}), N: 7})
	// A payload slot behind a NULL mask entry is not data and ships nothing.
	masked := ColVec{Typ: TypeString, Strs: []string{"hidden", "x"}, Nulls: []bool{true, false}}
	check("payload behind a NULL", &ColBatch{Rel: NewRelation("p", Col("s", TypeString)), Vecs: []ColVec{masked}, N: 2})
}

// TestColVecGather: a gather keeps the vector's representation — typed
// payload, NULL mask only where something gathered is NULL, boxed stays
// boxed — repeats positions, turns -1 into NULL, and writes into the buffer
// it is given without leaving anything of the buffer's past behind.
func TestColVecGather(t *testing.T) {
	rel, rows := pivotRel(), pivotRows()
	cb := BatchFromRows(rel, rows)
	idx := []int{3, 0, 0, -1, 2, 1, 3}
	check := func(label string, v *ColVec, got ColVec) {
		t.Helper()
		if got.Boxed() != v.Boxed() || got.Typ != v.Typ {
			t.Fatalf("%s: representation changed: boxed %v -> %v, type %v -> %v", label, v.Boxed(), got.Boxed(), v.Typ, got.Typ)
		}
		if got.Len() != len(idx) {
			t.Fatalf("%s: %d elements, want %d", label, got.Len(), len(idx))
		}
		for k, i := range idx {
			want := Null()
			if i >= 0 {
				want = v.Value(i)
			}
			if !rowsEqual(Rows{{got.Value(k)}}, Rows{{want}}) {
				t.Fatalf("%s[%d]: %s, want %s", label, k, got.Value(k).Format(), want.Format())
			}
		}
	}
	boxed := NewColVec(TypeInt)
	for _, v := range []Value{Int(1), String("x"), Null(), Float(1.0)} {
		boxed.Append(v)
	}
	vecs := append([]ColVec{boxed}, cb.Vecs...)
	for c := range vecs {
		v := &vecs[c]
		fresh := v.Gather(idx, ColVec{})
		check("fresh", v, fresh)
		// Reuse: the buffer last held a longer gather with NULLs elsewhere.
		buf := v.Gather([]int{-1, 1, 1, 1, 0, 0, 0, -1, 2}, ColVec{})
		check("reused", v, v.Gather(idx, buf))
	}
	// No NULL gathered: no mask, even out of a masked vector into a masked
	// buffer. An empty boxed gather is still boxed.
	ints := &cb.Vecs[1]
	if got := ints.Gather([]int{0, 1, 0}, ints.Gather([]int{2, -1}, ColVec{})); got.Nulls != nil {
		t.Fatalf("dense gather carries a mask: %v", got.Nulls)
	}
	if got := boxed.Gather(nil, ColVec{}); !got.Boxed() || got.Len() != 0 {
		t.Fatalf("empty boxed gather: boxed=%v len=%d", got.Boxed(), got.Len())
	}
}
