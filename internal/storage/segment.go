package storage

import (
	"math"

	"paradise/internal/schema"
)

// Segmented storage. A table is a sequence of immutable sealed segments
// plus one mutable active tail: appends grow the tail, and when it reaches
// the configured segment size it is sealed — its vectors become immutable,
// a zone map (per-column min/max, null count, type census, NaN count) and a
// seal-time histogram are computed, and, when the table has a persistent
// backend, the segment is written out and its vectors dropped from memory.
//
// Scans consult the zone maps with the structured pruning predicate
// (schema.ColPred) and skip whole segments before a single batch is
// materialized: a selective scan over time-ordered sensor data touches
// O(matching segments), not O(table). The pruning soundness rule lives
// with zonePrune below; the segmented-vs-monolithic equivalence and fuzz
// suites pin that pruning never changes results.

// DefaultSegmentRows is the seal threshold when the store's configuration
// does not choose one: large enough that zone maps stay cheap relative to
// data, small enough that selective scans skip meaningful fractions.
const DefaultSegmentRows = 4096

// ZoneEntry is one column's zone-map entry for one sealed segment (or, for
// pruning the active tail, a snapshot of its segment-local accumulator).
type ZoneEntry struct {
	// Rows and Nulls count the segment's rows and this column's NULLs.
	Rows, Nulls int64
	// NaNs counts float NaN values: incomparable, so their presence blocks
	// pruning (a comparison over them errors, and errors must surface).
	NaNs int64
	// Numeric range over non-NaN Int/Float values. For Int values the
	// bounds are widened outward by one ulp beyond 2^53 so float64
	// rounding can never move a true value outside [NumMin, NumMax].
	HasNum         bool
	NumMin, NumMax float64
	// String range over String values.
	HasStr         bool
	StrMin, StrMax string
	// Non-null runtime-type census; pruning requires a type-clean segment.
	Ints, Floats, Strs, Bools, Times, Others int64
	// Bytes is the column's cumulative wire size within the segment (used
	// to rebuild table statistics on recovery without decoding columns).
	Bytes int64
}

// zoneEntryOf renders a segment-local accumulator as a zone entry, widening
// int-fed float bounds outward where float64 rounding is inexact.
func zoneEntryOf(c *colStat, rows int64) ZoneEntry {
	z := ZoneEntry{
		Rows:   rows,
		Nulls:  c.nulls,
		NaNs:   c.nans,
		HasNum: c.hasRange,
		NumMin: c.min,
		NumMax: c.max,
		HasStr: c.hasStr,
		StrMin: c.strMin,
		StrMax: c.strMax,
		Ints:   c.ints,
		Floats: c.floats,
		Strs:   c.strs,
		Bools:  c.bools,
		Times:  c.times,
		Others: c.others,
		Bytes:  c.bytes,
	}
	if z.HasNum && z.Ints > 0 {
		z.NumMin = widenLo(z.NumMin)
		z.NumMax = widenHi(z.NumMax)
	}
	return z
}

// exactFloatInt bounds the int64 range within which float64 conversion is
// exact; beyond it bounds are widened by one ulp to stay conservative.
const exactFloatInt = 1 << 53

func widenLo(f float64) float64 {
	if f <= -exactFloatInt {
		return math.Nextafter(f, math.Inf(-1))
	}
	return f
}

func widenHi(f float64) float64 {
	if f >= exactFloatInt {
		return math.Nextafter(f, math.Inf(1))
	}
	return f
}

// litBounds returns a conservative [lo, hi] float64 interval containing a
// numeric literal (exact for floats; outward-widened for large ints).
func litBounds(v schema.Value) (lo, hi float64) {
	if v.Type() == schema.TypeInt {
		i := v.AsInt()
		f := float64(i)
		if i >= exactFloatInt || i <= -exactFloatInt {
			return math.Nextafter(f, math.Inf(-1)), math.Nextafter(f, math.Inf(1))
		}
		return f, f
	}
	f := v.AsFloat()
	return f, f
}

// nonNull counts the entry's non-NULL rows.
func (z ZoneEntry) nonNull() int64 { return z.Rows - z.Nulls }

// allNumeric: every non-null value is Int or Float (NaN floats included in
// the census but flagged separately by NaNs).
func (z ZoneEntry) allNumeric() bool { return z.Ints+z.Floats == z.nonNull() }

// allString: every non-null value is a String.
func (z ZoneEntry) allString() bool { return z.Strs == z.nonNull() }

// segment is one sealed, immutable run of rows. Exactly one of mem / data
// is set: mem holds the vectors for in-memory segments; data is the backend handle for on-disk segments,
// decoded lazily per scan.
type segment struct {
	rows int
	wire int
	zone []ZoneEntry
	hist []*Histogram

	mem  *segMem
	data SegmentData
}

// segMem is the in-memory representation of a sealed segment.
type segMem struct {
	cols []schema.ColVec
}

// zonePrune decides whether a segment can be skipped for the given
// structured predicate.
//
// The soundness rule, matching the kernel chain's semantics exactly
// (engine/veckernel.go): the segment may be skipped iff some conjunct k is
// provably FALSE for every row of the segment AND every conjunct before k
// is provably total (cannot error) on the segment.
//
//   - FALSE, not just "no match": a NULL comparison result is not FALSE —
//     the row survives as a marked candidate and later conjuncts may error
//     on it. A segment with NULLs in the tested column is therefore never
//     skipped via a comparison conjunct (IS [NOT] NULL excepted, which is
//     always boolean).
//   - Total: a comparison errors on NaN or cross-type operands, and a
//     skipped error is a changed answer. Before pruning on conjunct k,
//     every earlier conjunct must be proven error-free on this segment
//     (type-clean operands, no NaNs, non-NaN literal).
//
// Conjuncts are examined in order and the walk stops at the first conjunct
// that is not provably total — beyond it, evaluation order could surface
// effects pruning would skip.
func zonePrune(preds []schema.ColPred, zone []ZoneEntry) bool {
	for _, p := range preds {
		if p.Col < 0 || p.Col >= len(zone) {
			return false // malformed hint: never prune on it
		}
		z := zone[p.Col]
		switch p.Op {
		case schema.PredIsNull:
			if z.Nulls == 0 {
				return true
			}
			continue // total: IS NULL never errors and is never NULL
		case schema.PredNotNull:
			if z.Nulls == z.Rows {
				return true
			}
			continue
		}
		if p.RCol >= 0 {
			if p.RCol >= len(zone) {
				return false
			}
			r := zone[p.RCol]
			if !cmpColsTotal(z, r) {
				return false
			}
			if z.Nulls == 0 && r.Nulls == 0 && rangeDisjointCols(p.Op, z, r) {
				return true
			}
			continue
		}
		if p.Lit.IsNull() {
			// Comparison with NULL literal: NULL for every row — total
			// (never errors), never FALSE. Walk on.
			continue
		}
		switch {
		case p.Lit.Type().Numeric():
			if !z.allNumeric() || z.NaNs > 0 || isNaNLit(p.Lit) {
				return false // possible comparison error: stop
			}
			if z.Nulls == 0 && numDisjoint(p.Op, z, p.Lit) {
				return true
			}
		case p.Lit.Type() == schema.TypeString:
			if !z.allString() {
				return false
			}
			if z.Nulls == 0 && strDisjoint(p.Op, z, p.Lit.AsString()) {
				return true
			}
		case p.Lit.Type() == schema.TypeBool:
			if z.Bools != z.nonNull() {
				return false
			}
			// Boolean ranges are not tracked; total but never prunable.
		case p.Lit.Type() == schema.TypeTime:
			if z.Times != z.nonNull() {
				return false
			}
			// Time ranges are not tracked; total but never prunable.
		default:
			return false
		}
	}
	return false
}

func isNaNLit(v schema.Value) bool {
	return v.Type() == schema.TypeFloat && math.IsNaN(v.AsFloat())
}

// cmpColsTotal reports whether a column-vs-column comparison is provably
// error-free on the segment: both sides type-clean and NaN-free in a
// mutually comparable family.
func cmpColsTotal(l, r ZoneEntry) bool {
	switch {
	case l.allNumeric() && r.allNumeric():
		return l.NaNs == 0 && r.NaNs == 0
	case l.allString() && r.allString():
		return true
	case l.Bools == l.nonNull() && r.Bools == r.nonNull():
		return true
	case l.Times == l.nonNull() && r.Times == r.nonNull():
		return true
	}
	// Also total when either side is entirely NULL (comparison is NULL).
	return l.nonNull() == 0 || r.nonNull() == 0
}

// rangeDisjointCols proves `l OP r` FALSE for every row pair drawn from
// the two columns' ranges. Only numeric and string families have tracked
// ranges; anything else is never prunable.
func rangeDisjointCols(op schema.PredOp, l, r ZoneEntry) bool {
	if l.allNumeric() && r.allNumeric() && l.HasNum && r.HasNum {
		return intervalDisjoint(op, l.NumMin, l.NumMax, r.NumMin, r.NumMax)
	}
	if l.allString() && r.allString() && l.HasStr && r.HasStr {
		if cmpDisjointStr(op, l.StrMin, l.StrMax, r.StrMin, r.StrMax) {
			return true
		}
	}
	return false
}

// intervalDisjoint proves `x OP y` false for all x in [lmin, lmax] and all
// y in [rmin, rmax].
func intervalDisjoint(op schema.PredOp, lmin, lmax, rmin, rmax float64) bool {
	switch op {
	case schema.PredEq:
		return lmax < rmin || lmin > rmax
	case schema.PredNe:
		return lmin == lmax && rmin == rmax && lmin == rmin
	case schema.PredLt:
		return lmin >= rmax
	case schema.PredLe:
		return lmin > rmax
	case schema.PredGt:
		return lmax <= rmin
	case schema.PredGe:
		return lmax < rmin
	}
	return false
}

func cmpDisjointStr(op schema.PredOp, lmin, lmax, rmin, rmax string) bool {
	switch op {
	case schema.PredEq:
		return lmax < rmin || lmin > rmax
	case schema.PredNe:
		return lmin == lmax && rmin == rmax && lmin == rmin
	case schema.PredLt:
		return lmin >= rmax
	case schema.PredLe:
		return lmin > rmax
	case schema.PredGt:
		return lmax <= rmin
	case schema.PredGe:
		return lmax < rmin
	}
	return false
}

// numDisjoint proves `col OP lit` FALSE for every row of the segment.
// Callers have established: all non-null values numeric, no NaNs, no
// NULLs, non-NaN literal — so the comparison is total and boolean, and the
// conservative interval test below is the whole truth.
func numDisjoint(op schema.PredOp, z ZoneEntry, lit schema.Value) bool {
	if !z.HasNum {
		return false // no numeric values at all (empty segment guard)
	}
	litLo, litHi := litBounds(lit)
	switch op {
	case schema.PredEq:
		return litHi < z.NumMin || litLo > z.NumMax
	case schema.PredNe:
		// Only when the whole segment provably equals the literal exactly.
		return z.NumMin == z.NumMax && litLo == litHi && z.NumMin == litLo
	case schema.PredLt:
		return z.NumMin >= litHi
	case schema.PredLe:
		return z.NumMin > litHi
	case schema.PredGt:
		return z.NumMax <= litLo
	case schema.PredGe:
		return z.NumMax < litLo
	}
	return false
}

// strDisjoint is numDisjoint for string columns (exact, no widening).
func strDisjoint(op schema.PredOp, z ZoneEntry, lit string) bool {
	if !z.HasStr {
		return false
	}
	return cmpDisjointStr(op, z.StrMin, z.StrMax, lit, lit)
}

// SealedSegment is the payload handed to a Backend at seal time: the
// immutable column vectors plus everything the footer must persist — zone
// maps, histograms, NDV sketches and the relation schema — to make
// recovery stats-exact (and schema-complete) without decoding columns.
type SealedSegment struct {
	Rows     int
	Wire     int
	Rel      *schema.Relation
	Cols     []schema.ColVec
	Zone     []ZoneEntry
	Hists    []*Histogram
	Sketches [][]uint64
}

// SegmentData is a lazily decodable sealed segment held by a backend.
// Implementations must be safe for concurrent Load calls.
type SegmentData interface {
	// Load decodes the selected columns (nil cols = every column in schema
	// order) and returns them in the requested order, each vector holding
	// the segment's full row count. Unselected columns are never decoded;
	// with check they are still read and verified, so the segment fails
	// exactly as a full-width Load would — an empty non-nil cols checks the
	// whole segment and decodes nothing.
	Load(cols []int, check bool) ([]schema.ColVec, error)
}

// RecoveredSegment is one sealed segment surfaced by Backend.RecoverAll.
type RecoveredSegment struct {
	Rows     int
	Wire     int
	Zone     []ZoneEntry
	Hists    []*Histogram
	Sketches [][]uint64
	Data     SegmentData
}

// RecoveredTable is one table's recovered state: the schema (from the
// segment footers) and the sealed segments in seal order.
type RecoveredTable struct {
	Rel      *schema.Relation
	Segments []*RecoveredSegment
}

// Backend persists sealed segments. It is deliberately narrow: storage
// owns segmentation, zone maps and pruning; a backend only has to write a
// sealed segment durably, hand it back lazily, recover the sealed prefix
// after a restart, and drop a table's segments.
//
// Backends must tolerate concurrent Load calls on returned SegmentData;
// Seal and Drop are always invoked under the owning table's (or store's)
// lock, and RecoverAll once, before the store is shared.
type Backend interface {
	// Seal durably stores one sealed segment (seq is its 0-based position
	// in the table's segment sequence) and returns the lazy handle scans
	// will read it through.
	Seal(table string, seq int, seg *SealedSegment) (SegmentData, error)
	// RecoverAll returns every previously sealed table, segments in seal
	// order. A partially written trailing segment must be discarded (clean
	// truncation to the last sealed segment), never surfaced.
	RecoverAll() ([]*RecoveredTable, error)
	// Drop removes every sealed segment of the table.
	Drop(table string) error
}
