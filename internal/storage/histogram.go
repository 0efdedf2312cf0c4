package storage

import (
	"math"

	"paradise/internal/schema"
)

// Equi-width histograms over numeric columns, built once per segment at
// seal time (one pass over the sealed vectors — rows the seal already
// owns) and merged on demand into the table-level statistics snapshot.
// The estimator uses them for range selectivities, replacing the uniform
// min/max interpolation that is ~3x off on skewed or correlated data (see
// the modeled-vs-measured golden table).

// histBuckets is the bucket count of every histogram. Small enough that a
// footer full of histograms stays negligible next to the column data,
// large enough to resolve the skew the uniform model misses.
const histBuckets = 32

// Histogram is an equi-width bucket count over [Min, Max]: bucket i spans
// [Min + i*w, Min + (i+1)*w) with w = (Max-Min)/len(Counts), the last
// bucket closed on the right. NaNs and NULLs are never counted.
type Histogram struct {
	Min, Max float64
	Counts   []int64
}

// Total sums the bucket counts.
func (h *Histogram) Total() int64 {
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// bucketOf maps a value into a bucket index, clamping the edges.
func (h *Histogram) bucketOf(f float64) int {
	if len(h.Counts) == 0 || h.Max <= h.Min {
		return 0
	}
	i := int(float64(len(h.Counts)) * (f - h.Min) / (h.Max - h.Min))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	return i
}

// FracBelow estimates the fraction of counted values strictly below v,
// interpolating linearly inside the boundary bucket. Exactly 0 below Min
// and 1 above Max.
func (h *Histogram) FracBelow(v float64) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	if v <= h.Min {
		return 0
	}
	if v >= h.Max {
		if h.Max <= h.Min {
			return 1
		}
		if v > h.Max {
			return 1
		}
	}
	if h.Max <= h.Min {
		// Single-point histogram: all mass at Min.
		if v > h.Min {
			return 1
		}
		return 0
	}
	w := (h.Max - h.Min) / float64(len(h.Counts))
	b := h.bucketOf(v)
	var below int64
	for i := 0; i < b; i++ {
		below += h.Counts[i]
	}
	lo := h.Min + float64(b)*w
	frac := (v - lo) / w
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return (float64(below) + frac*float64(h.Counts[b])) / float64(total)
}

// buildHist bins one sealed column vector into a fresh histogram over
// [z.NumMin, z.NumMax]. Returns nil when the column has no finite numeric
// values to count (the estimator then falls back to the uniform model).
func buildHist(v *schema.ColVec, n int, z ZoneEntry) *Histogram {
	if !z.HasNum {
		return nil
	}
	h := &Histogram{Min: z.NumMin, Max: z.NumMax, Counts: make([]int64, histBuckets)}
	binHist(h, v, n)
	return h
}

// binHist folds rows [0, n) of the vector into the histogram. Non-numeric
// values, NULLs and NaNs are skipped.
func binHist(h *Histogram, v *schema.ColVec, n int) {
	for i := 0; i < n; i++ {
		if v.Null(i) {
			continue
		}
		var f float64
		if !v.Boxed() {
			switch v.Typ {
			case schema.TypeInt:
				f = float64(v.Ints[i])
			case schema.TypeFloat:
				f = v.Floats[i]
			default:
				return // typed non-numeric vector: nothing to bin
			}
		} else {
			val := v.Box[i]
			if !val.Type().Numeric() {
				continue
			}
			f = val.AsFloat()
		}
		if math.IsNaN(f) {
			continue
		}
		h.Counts[h.bucketOf(f)]++
	}
}

// mergeHist resamples a source histogram onto the target's range,
// distributing each source bucket's count over the target buckets it
// overlaps proportionally by width. Conservative (mass-preserving), not
// exact — the price of equi-width buckets with moving table-level ranges.
func mergeHist(dst, src *Histogram) {
	if src == nil || src.Total() == 0 {
		return
	}
	if dst.Max <= dst.Min {
		// Degenerate target: everything lands in bucket 0.
		dst.Counts[0] += src.Total()
		return
	}
	dw := (dst.Max - dst.Min) / float64(len(dst.Counts))
	if src.Max <= src.Min {
		dst.Counts[dst.bucketOf(src.Min)] += src.Total()
		return
	}
	sw := (src.Max - src.Min) / float64(len(src.Counts))
	for i, c := range src.Counts {
		if c == 0 {
			continue
		}
		lo := src.Min + float64(i)*sw
		hi := lo + sw
		// Distribute c over dst buckets overlapping [lo, hi).
		bLo := dst.bucketOf(lo)
		bHi := dst.bucketOf(math.Nextafter(hi, lo)) // hi exclusive
		if bHi < bLo {
			bHi = bLo
		}
		if bLo == bHi {
			dst.Counts[bLo] += c
			continue
		}
		rem := c
		for b := bLo; b <= bHi && rem > 0; b++ {
			tLo := dst.Min + float64(b)*dw
			tHi := tLo + dw
			oLo := math.Max(lo, tLo)
			oHi := math.Min(hi, tHi)
			if oHi <= oLo {
				continue
			}
			share := int64(math.Round(float64(c) * (oHi - oLo) / sw))
			if share > rem || b == bHi {
				share = rem
			}
			dst.Counts[b] += share
			rem -= share
		}
	}
}

// mergedHistLocked builds the table-level histogram for column i: sealed
// segments' seal-time histograms resampled onto the table's current
// [min, max] (memoized, see mergeSealedHist), plus the active tail binned on
// demand (bounded by the segment size). Caller holds at least a read lock.
func (t *Table) mergedHistLocked(i int, cs ColumnStats) *Histogram {
	if !cs.HasRange {
		return nil
	}
	out := &Histogram{Min: cs.Min, Max: cs.Max, Counts: make([]int64, histBuckets)}
	any := t.mergeSealedHist(out, i)
	if t.tailRows > 0 {
		z := zoneEntryOf(&t.segStats[i], int64(t.tailRows))
		if z.HasNum {
			binHist(out, &t.cols[i], t.tailRows)
			any = true
		}
	}
	if !any || out.Total() == 0 {
		return nil
	}
	return out
}

// histMemo is the sealed part of one column's table-level histogram: every
// sealed segment's histogram resampled onto [min, max]. It changes only when
// a segment seals or the column's range moves, while Stats runs on every
// plan-cache miss — re-merging 59 segments per column was most of a miss.
type histMemo struct {
	sealed   int // how many sealed segments it covers
	min, max float64
	counts   []int64 // nil: nothing memoized yet
	any      bool    // some covered segment had a histogram for the column
}

// mergeSealedHist adds the sealed segments' histograms for column i to out
// (empty, its range set) and reports whether there was any: from the memo
// when it covers the same segments over the same range, else merged afresh
// and remembered. Caller holds at least a read lock; histMu orders the
// readers among themselves.
func (t *Table) mergeSealedHist(out *Histogram, i int) bool {
	t.histMu.Lock()
	defer t.histMu.Unlock()
	if t.hists == nil {
		t.hists = make([]histMemo, len(t.stats))
	}
	m := &t.hists[i]
	if m.counts != nil && m.sealed == len(t.sealed) && m.min == out.Min && m.max == out.Max {
		copy(out.Counts, m.counts)
		return m.any
	}
	any := false
	for _, seg := range t.sealed {
		if i < len(seg.hist) && seg.hist[i] != nil {
			mergeHist(out, seg.hist[i])
			any = true
		}
	}
	*m = histMemo{sealed: len(t.sealed), min: out.Min, max: out.Max,
		counts: append([]int64{}, out.Counts...), any: any}
	return any
}

// dropHistMemo forgets the memoized sealed merges: the sealed segments
// changed.
func (t *Table) dropHistMemo() {
	t.histMu.Lock()
	t.hists = nil
	t.histMu.Unlock()
}
