package schema

import "time"

// This file is the columnar half of the batch vocabulary: relations stored
// column-major as typed vectors, scanned as ColBatches carrying a selection
// vector, and pivoted back to row-major Rows at the boundary of operators
// that are not vectorized yet. The row-major RowIterator contract in
// iterator.go stays the compatibility surface — every columnar producer can
// serve rows by pivoting, so consumers convert operator by operator.
//
// Layout decisions, and why:
//
//   - One typed payload slice per vector ([]int64, []float64, []string,
//     []bool, []time.Time), selected by Typ. Kernels loop over unboxed
//     machine values instead of 6-field Value structs.
//   - NULLs are a []bool mask (byte per row), not a packed bitmap. Vectors
//     are append-only and scans hand out zero-copy windows of them; a packed
//     bitmap shares its last partial word between the appender and every
//     open window, which is a data race the moment ingestion and scanning
//     overlap. A byte mask has the same append-only safety as the payload
//     slices. Nulls == nil means "no NULL anywhere", so the common all-dense
//     case costs nothing.
//   - A vector whose column was declared one type but received a value of
//     another (legal for derived results; Value carries its own runtime tag)
//     falls back to boxed storage: the whole vector moves to Box []Value and
//     round-trips exactly. Kernels treat boxed vectors with the generic
//     Value-based loop, so correctness never depends on the fast layout.
//
// Ownership rules (the columnar analogue of the morsel contract in
// parallel.go):
//
//   - A ColBatch handed out by a scan is a read-only window over storage:
//     consumers must never append to or mutate its vectors. Refining the
//     selection means allocating a new Sel, not editing vectors.
//   - The batch header and Sel are owned by the consumer that pulled the
//     batch; payload slices may alias storage and stay valid because the
//     underlying vectors are append-only (existing elements are never
//     overwritten, truncation replaces whole vectors).
//   - Rows produced by pivoting are fresh allocations and follow the
//     row-iterator contract: immutable once emitted, retainable forever.

// ColVec is one typed column vector. Exactly one payload slice is active,
// chosen by Typ — unless Box is non-nil, in which case the vector has
// degraded to boxed row values (heterogeneous column) and the typed slices
// are unused.
type ColVec struct {
	// Typ is the declared element type of the vector.
	Typ Type
	// Typed payloads; only the one matching Typ is used.
	Bools  []bool
	Ints   []int64
	Floats []float64
	Strs   []string
	Times  []time.Time
	// Nulls marks NULL positions. nil means the vector holds no NULLs.
	Nulls []bool
	// Box, when non-nil, holds every element as a boxed Value and overrides
	// the typed payloads entirely. A vector degrades to Box on the first
	// append whose runtime type differs from Typ (NULL excepted).
	Box []Value
}

// NewColVec returns an empty vector for the given declared type. Types
// without a dedicated payload (TypeNull columns, which derived relations
// can legally declare) start out boxed.
func NewColVec(t Type) ColVec {
	v := ColVec{Typ: t}
	switch t {
	case TypeBool, TypeInt, TypeFloat, TypeString, TypeTime:
	default:
		v.Box = []Value{}
	}
	return v
}

// Boxed reports whether the vector stores boxed Values instead of a typed
// payload.
func (v *ColVec) Boxed() bool { return v.Box != nil }

// Len returns the number of elements.
func (v *ColVec) Len() int {
	if v.Box != nil {
		return len(v.Box)
	}
	switch v.Typ {
	case TypeBool:
		return len(v.Bools)
	case TypeInt:
		return len(v.Ints)
	case TypeFloat:
		return len(v.Floats)
	case TypeString:
		return len(v.Strs)
	case TypeTime:
		return len(v.Times)
	default:
		return 0
	}
}

// Append adds one value. A NULL appends to the mask; a value of the
// declared type appends to the typed payload; anything else degrades the
// whole vector to boxed storage so the value round-trips exactly.
func (v *ColVec) Append(val Value) {
	if v.Box != nil {
		v.Box = append(v.Box, val)
		return
	}
	if val.typ == TypeNull {
		if v.Nulls == nil {
			v.Nulls = make([]bool, v.Len())
		}
		v.Nulls = append(v.Nulls, true)
		v.appendZero()
		return
	}
	if val.typ != v.Typ {
		v.boxAll()
		v.Box = append(v.Box, val)
		return
	}
	if v.Nulls != nil {
		v.Nulls = append(v.Nulls, false)
	}
	switch v.Typ {
	case TypeBool:
		v.Bools = append(v.Bools, val.b)
	case TypeInt:
		v.Ints = append(v.Ints, val.i)
	case TypeFloat:
		v.Floats = append(v.Floats, val.f)
	case TypeString:
		v.Strs = append(v.Strs, val.s)
	case TypeTime:
		v.Times = append(v.Times, val.t)
	}
}

// appendZero grows the active payload by one zero element (the slot behind
// a NULL mask entry).
func (v *ColVec) appendZero() {
	switch v.Typ {
	case TypeBool:
		v.Bools = append(v.Bools, false)
	case TypeInt:
		v.Ints = append(v.Ints, 0)
	case TypeFloat:
		v.Floats = append(v.Floats, 0)
	case TypeString:
		v.Strs = append(v.Strs, "")
	case TypeTime:
		v.Times = append(v.Times, time.Time{})
	}
}

// boxAll converts the typed payload into boxed Values in place.
func (v *ColVec) boxAll() {
	n := v.Len()
	box := make([]Value, n)
	for i := 0; i < n; i++ {
		box[i] = v.Value(i)
	}
	v.Box = box
	v.Bools, v.Ints, v.Floats, v.Strs, v.Times, v.Nulls = nil, nil, nil, nil, nil, nil
}

// Value boxes the element at position i.
func (v *ColVec) Value(i int) Value {
	if v.Box != nil {
		return v.Box[i]
	}
	if v.Nulls != nil && v.Nulls[i] {
		return Value{}
	}
	switch v.Typ {
	case TypeBool:
		return Value{typ: TypeBool, b: v.Bools[i]}
	case TypeInt:
		return Value{typ: TypeInt, i: v.Ints[i]}
	case TypeFloat:
		return Value{typ: TypeFloat, f: v.Floats[i]}
	case TypeString:
		return Value{typ: TypeString, s: v.Strs[i]}
	case TypeTime:
		return Value{typ: TypeTime, t: v.Times[i]}
	default:
		return Value{}
	}
}

// Null reports whether the element at position i is NULL.
func (v *ColVec) Null(i int) bool {
	if v.Box != nil {
		return v.Box[i].typ == TypeNull
	}
	return v.Nulls != nil && v.Nulls[i]
}

// AppendGroupKey appends the canonical grouping key of element i, identical
// to Value.AppendGroupKey on the boxed element (pinned by tests). Columnar
// DISTINCT/GROUP BY/join hashing use it to build keys without boxing.
func (v *ColVec) AppendGroupKey(dst []byte, i int) []byte {
	if v.Box != nil {
		return v.Box[i].AppendGroupKey(dst)
	}
	if v.Nulls != nil && v.Nulls[i] {
		return AppendNullGroupKey(dst)
	}
	switch v.Typ {
	case TypeBool:
		return AppendBoolGroupKey(dst, v.Bools[i])
	case TypeInt:
		return AppendIntGroupKey(dst, v.Ints[i])
	case TypeFloat:
		return AppendFloatGroupKey(dst, v.Floats[i])
	case TypeString:
		return AppendStringGroupKey(dst, v.Strs[i])
	case TypeTime:
		return AppendTimeGroupKey(dst, v.Times[i])
	default:
		return append(dst, '?')
	}
}

// Window returns a read-only sub-vector covering positions [lo, hi). The
// payloads alias the receiver; callers must not append to the result.
func (v *ColVec) Window(lo, hi int) ColVec {
	out := ColVec{Typ: v.Typ}
	if v.Box != nil {
		out.Box = v.Box[lo:hi]
		return out
	}
	if v.Nulls != nil {
		out.Nulls = v.Nulls[lo:hi]
	}
	switch v.Typ {
	case TypeBool:
		out.Bools = v.Bools[lo:hi]
	case TypeInt:
		out.Ints = v.Ints[lo:hi]
	case TypeFloat:
		out.Floats = v.Floats[lo:hi]
	case TypeString:
		out.Strs = v.Strs[lo:hi]
	case TypeTime:
		out.Times = v.Times[lo:hi]
	}
	return out
}

// Fill pivots the vector into a row-major destination: element k of the
// selection (or physical position k when sel is nil) is written to
// dst[k*stride]. NULL positions are skipped — dst slots start as zero
// Values, which are NULL already.
func (v *ColVec) Fill(dst []Value, stride, n int, sel []int) {
	if v.Box != nil {
		if sel == nil {
			for i := 0; i < n; i++ {
				dst[i*stride] = v.Box[i]
			}
		} else {
			for k, i := range sel {
				dst[k*stride] = v.Box[i]
			}
		}
		return
	}
	nulls := v.Nulls
	switch v.Typ {
	case TypeBool:
		if sel == nil {
			for i := 0; i < n; i++ {
				if nulls == nil || !nulls[i] {
					dst[i*stride] = Value{typ: TypeBool, b: v.Bools[i]}
				}
			}
		} else {
			for k, i := range sel {
				if nulls == nil || !nulls[i] {
					dst[k*stride] = Value{typ: TypeBool, b: v.Bools[i]}
				}
			}
		}
	case TypeInt:
		if sel == nil {
			for i := 0; i < n; i++ {
				if nulls == nil || !nulls[i] {
					dst[i*stride] = Value{typ: TypeInt, i: v.Ints[i]}
				}
			}
		} else {
			for k, i := range sel {
				if nulls == nil || !nulls[i] {
					dst[k*stride] = Value{typ: TypeInt, i: v.Ints[i]}
				}
			}
		}
	case TypeFloat:
		if sel == nil {
			for i := 0; i < n; i++ {
				if nulls == nil || !nulls[i] {
					dst[i*stride] = Value{typ: TypeFloat, f: v.Floats[i]}
				}
			}
		} else {
			for k, i := range sel {
				if nulls == nil || !nulls[i] {
					dst[k*stride] = Value{typ: TypeFloat, f: v.Floats[i]}
				}
			}
		}
	case TypeString:
		if sel == nil {
			for i := 0; i < n; i++ {
				if nulls == nil || !nulls[i] {
					dst[i*stride] = Value{typ: TypeString, s: v.Strs[i]}
				}
			}
		} else {
			for k, i := range sel {
				if nulls == nil || !nulls[i] {
					dst[k*stride] = Value{typ: TypeString, s: v.Strs[i]}
				}
			}
		}
	case TypeTime:
		if sel == nil {
			for i := 0; i < n; i++ {
				if nulls == nil || !nulls[i] {
					dst[i*stride] = Value{typ: TypeTime, t: v.Times[i]}
				}
			}
		} else {
			for k, i := range sel {
				if nulls == nil || !nulls[i] {
					dst[k*stride] = Value{typ: TypeTime, t: v.Times[i]}
				}
			}
		}
	}
}

// Gather returns the elements idx names, in that order, as a vector of the
// receiver's representation: a typed payload stays typed and keeps its NULL
// mask (nil when nothing gathered is NULL), a boxed vector stays boxed.
// Unlike a selection vector, idx may repeat positions (one probe row matching
// many build rows) and may hold -1, which yields SQL NULL — a left join's
// null extension. The result is backed by buf's arrays where they are large
// enough: pass the zero ColVec for a vector the caller may keep, or an earlier
// result nobody reads any more to reuse it.
func (v *ColVec) Gather(idx []int, buf ColVec) ColVec {
	out := ColVec{Typ: v.Typ}
	if v.Box != nil {
		out.Box = gather(v.Box, buf.Box, idx) // the zero Value is NULL
		return out
	}
	for k, i := range idx {
		if i < 0 || (v.Nulls != nil && v.Nulls[i]) {
			if out.Nulls == nil {
				out.Nulls = sized(buf.Nulls, len(idx))
				clear(out.Nulls)
			}
			out.Nulls[k] = true
		}
	}
	switch v.Typ {
	case TypeBool:
		out.Bools = gather(v.Bools, buf.Bools, idx)
	case TypeInt:
		out.Ints = gather(v.Ints, buf.Ints, idx)
	case TypeFloat:
		out.Floats = gather(v.Floats, buf.Floats, idx)
	case TypeString:
		out.Strs = gather(v.Strs, buf.Strs, idx)
	case TypeTime:
		out.Times = gather(v.Times, buf.Times, idx)
	}
	return out
}

// gather copies src[i] for every i of idx; a negative i leaves the zero
// element, the slot behind a NULL mask entry.
func gather[T any](src, buf []T, idx []int) []T {
	out := sized(buf, len(idx))
	var zero T
	for k, i := range idx {
		if i >= 0 {
			out[k] = src[i]
		} else {
			out[k] = zero
		}
	}
	return out
}

// sized returns buf resliced to n elements, or a fresh slice when it is nil
// or too small; never nil, so an empty boxed gather stays boxed.
func sized[T any](buf []T, n int) []T {
	if buf == nil || cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// ColBatch is one unit of columnar data flow: a set of equally long column
// vectors plus an optional selection vector restricting which physical rows
// are live. N is the physical row count of the vectors; Sel, when non-nil,
// lists live physical row indices in ascending order (Sel == nil means all
// N rows are live).
type ColBatch struct {
	// Rel describes the columns; Rel.Columns[i] corresponds to Vecs[i].
	Rel *Relation
	// Vecs are the column vectors, all of length N.
	Vecs []ColVec
	// N is the physical (pre-selection) row count.
	N int
	// Sel is the selection vector: live physical row indices, ascending.
	// nil selects all N rows.
	Sel []int
}

// Len returns the live (selected) row count.
func (b *ColBatch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Rows pivots the live rows into row-major form. The result is freshly
// allocated (one backing array for all values) and follows the row-iterator
// retention contract; it is never nil, so an empty pivot is Rows{}.
func (b *ColBatch) Rows() Rows {
	n := b.Len()
	out := make(Rows, n)
	if n == 0 {
		return out
	}
	w := len(b.Vecs)
	vals := make([]Value, n*w)
	for i := range out {
		out[i] = Row(vals[i*w : (i+1)*w : (i+1)*w])
	}
	for c := range b.Vecs {
		b.Vecs[c].Fill(vals[c:], w, b.N, b.Sel)
	}
	return out
}

// WireSize is the simulated serialized size of the live rows — byte for
// byte Rows().WireSize(), computed from the vectors without pivoting: the
// 2-byte row prefix per live row plus each column's share. Dense fixed-width
// vectors cost O(1); NULL masks, strings and boxed vectors are walked once.
func (b *ColBatch) WireSize() int {
	n := 2 * b.Len()
	for c := range b.Vecs {
		n += b.Vecs[c].wireSize(b.N, b.Sel)
	}
	return n
}

// wireSize sums Value.WireSize over the vector's live elements: the first n
// physical positions, or the positions sel lists.
func (v *ColVec) wireSize(n int, sel []int) int {
	live := n
	if sel != nil {
		live = len(sel)
	}
	if v.Box != nil {
		size := 0
		if sel == nil {
			for _, val := range v.Box[:n] {
				size += val.WireSize()
			}
		} else {
			for _, i := range sel {
				size += v.Box[i].WireSize()
			}
		}
		return size
	}
	nulls := 0
	if v.Nulls != nil {
		if sel == nil {
			for _, null := range v.Nulls[:n] {
				if null {
					nulls++
				}
			}
		} else {
			for _, i := range sel {
				if v.Nulls[i] {
					nulls++
				}
			}
		}
	}
	// A NULL ships 1 byte whatever the column's type.
	switch v.Typ {
	case TypeBool:
		return live
	case TypeInt, TypeFloat, TypeTime:
		return 8*(live-nulls) + nulls
	case TypeString:
		size := 2*(live-nulls) + nulls
		masked := func(i int) bool { return nulls > 0 && v.Nulls[i] }
		if sel == nil {
			for i, s := range v.Strs[:n] {
				if !masked(i) {
					size += len(s)
				}
			}
		} else {
			for _, i := range sel {
				if !masked(i) {
					size += len(v.Strs[i])
				}
			}
		}
		return size
	default:
		return live
	}
}

// RowAt pivots the single physical row i (ignoring Sel) into a fresh Row.
func (b *ColBatch) RowAt(i int) Row {
	out := make(Row, len(b.Vecs))
	for c := range b.Vecs {
		out[c] = b.Vecs[c].Value(i)
	}
	return out
}

// BatchFromRows builds a columnar batch from row-major data, declaring
// column types from rel. Values whose runtime type differs from the
// declared type degrade that vector to boxed storage, so the round trip
// through Rows() is exact for arbitrary input.
func BatchFromRows(rel *Relation, rows Rows) *ColBatch {
	vecs := make([]ColVec, rel.Arity())
	for i := range vecs {
		vecs[i] = NewColVec(rel.Columns[i].Type)
	}
	for _, r := range rows {
		for i := range vecs {
			vecs[i].Append(r[i])
		}
	}
	return &ColBatch{Rel: rel, Vecs: vecs, N: len(rows)}
}

// ColIterator is the columnar analogue of RowIterator: NextBatch returns
// the next batch or nil when exhausted. Batches are read-only windows (see
// the ownership rules above) and remain valid after subsequent pulls —
// unlike row batches, there is no buffer reuse to guard against, because
// windows alias append-only storage.
type ColIterator interface {
	NextBatch() (*ColBatch, error)
	Close()
}

// ColMorsel is one unit of columnar parallel work, mirroring Morsel: Seq is
// the 0-based claim index, contiguous across workers; Batch is nil once the
// source is exhausted.
type ColMorsel struct {
	Seq   int
	Batch *ColBatch
}

// ColMorselSource hands out column-batch morsels to concurrent workers
// under the same contract as MorselSource: concurrent NextColMorsel calls
// are safe, an error is delivered exactly once carrying its serial Seq, and
// Close is idempotent and concurrent-safe.
type ColMorselSource interface {
	NextColMorsel() (ColMorsel, error)
	Close()
}

// ColView is one snapshot of a stored relation, opened for a consumer that
// reads some of its columns while the whole relation counts as read: a
// fragment chain's sensor stage (SELECT * FROM base) ships every column of
// every row, and the stage above reads two or three of them. The view
// serves the consumer's columns through exactly one of Scan or Morsels;
// Size and Verify stand in for the rest, which is never decoded.
type ColView interface {
	// Size reports the snapshot's rows and full-width wire bytes — what
	// every column of the relation weighed when the view opened, whatever
	// the consumer reads.
	Size() (rows, wireBytes int)
	// Scan serves the snapshot's batches to one consumer.
	Scan() ColIterator
	// Morsels serves them to concurrent workers (see ColMorselSource).
	Morsels() ColMorselSource
	// Verify checks the integrity of every part of the snapshot no pull
	// opened, without decoding it, and reports the first failure: a
	// relation that ships a column must fail the same whether or not anyone
	// reads it. Parts a pull opened were checked in full then. Call Verify
	// once the consumer is done pulling.
	Verify() error
}
