package schema

// This file defines the structured scan predicate: the narrow language the
// storage layer understands well enough to consult zone maps with. The
// engine's filter kernels and residual filter remain the authoritative
// predicate evaluation — ColPred is a *pruning hint*, a
// conservative re-statement of the kernelizable conjunct prefix over base
// table column positions. Storage may use it to skip whole segments whose
// zone maps prove no row can pass; it must never use it to admit rows.
//
// Soundness contract (mirrors the kernel chain in engine/veckernel.go):
//
//   - Predicate lists the scan's filter conjuncts in evaluation order,
//     restricted to the kernelizable prefix. The conjunct behind the first
//     non-kernelizable one must not appear — the row path would have
//     short-circuited rows (or raised errors) the earlier conjunct sees
//     first, and pruning on a later conjunct could skip those effects.
//   - A segment may be skipped only when some conjunct is provably FALSE
//     (not NULL, not an error) for every row of the segment, and every
//     conjunct before it is provably total (cannot error) on the segment.
//     NULL comparisons are NULL, not FALSE; NaN and cross-type comparisons
//     error — zone maps must prove their absence before pruning.

// PredOp is the comparison operator of one structured conjunct.
type PredOp uint8

// The structured predicate operators. The comparison set mirrors the
// kernelizable comparisons; PredIsNull/PredNotNull mirror IS [NOT] NULL.
const (
	PredEq PredOp = iota
	PredNe
	PredLt
	PredLe
	PredGt
	PredGe
	PredIsNull
	PredNotNull
)

// String names the operator for diagnostics.
func (op PredOp) String() string {
	switch op {
	case PredEq:
		return "="
	case PredNe:
		return "<>"
	case PredLt:
		return "<"
	case PredLe:
		return "<="
	case PredGt:
		return ">"
	case PredGe:
		return ">="
	case PredIsNull:
		return "IS NULL"
	case PredNotNull:
		return "IS NOT NULL"
	}
	return "?"
}

// ColPred is one structured conjunct over the scanned base relation:
// `col OP literal`, `col OP col2`, or `col IS [NOT] NULL`. Column positions
// index the base table's full-width layout (not the scan's projection).
type ColPred struct {
	// Op is the comparison; comparisons are normalized column-on-the-left
	// (`5 < x` arrives as x > 5).
	Op PredOp
	// Col is the left column's position in the base relation.
	Col int
	// RCol is the right column's position for column-vs-column conjuncts;
	// -1 when the right side is the literal Lit.
	RCol int
	// Lit is the right-hand literal when RCol < 0. A NULL literal encodes a
	// comparison whose result is NULL for every row (never prunable, never
	// an error).
	Lit Value
}

// ColScan describes a pushed-down columnar scan: which columns to serve,
// the structured pruning predicate, and the batch size. It is the columnar
// twin of Scan — there is no Filter because columnar consumers run their
// own kernels; Predicate carries the same pruning hint.
type ColScan struct {
	// Columns selects base-relation positions in output order; nil keeps
	// every column.
	Columns []int
	// Predicate is the structured pruning hint (see ColPred). Storage may
	// skip segments it proves empty of matches; consumers still filter.
	Predicate []ColPred
	// BatchSize caps rows per pull; <= 0 means DefaultBatchSize.
	BatchSize int
}
