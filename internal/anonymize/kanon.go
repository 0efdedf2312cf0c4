package anonymize

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"paradise/internal/schema"
)

// ErrAnonymize wraps anonymization errors.
var ErrAnonymize = errors.New("anonymize: error")

// columnIndexes resolves quasi-identifier names to positions.
func columnIndexes(rel *schema.Relation, cols []string) ([]int, error) {
	out := make([]int, len(cols))
	for i, c := range cols {
		idx, err := rel.Index(c)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrAnonymize, err)
		}
		out[i] = idx
	}
	return out, nil
}

// IsKAnonymous reports whether every combination of quasi-identifier values
// occurs at least k times.
func IsKAnonymous(rel *schema.Relation, rows schema.Rows, qi []string, k int) (bool, error) {
	if k <= 1 {
		return true, nil
	}
	idx, err := columnIndexes(rel, qi)
	if err != nil {
		return false, err
	}
	counts := make(map[string]int)
	for _, r := range rows {
		counts[r.GroupKey(idx)]++
	}
	for _, c := range counts {
		if c < k {
			return false, nil
		}
	}
	return true, nil
}

// EquivalenceClasses groups row indexes by identical quasi-identifier
// values.
func EquivalenceClasses(rel *schema.Relation, rows schema.Rows, qi []string) (map[string][]int, error) {
	idx, err := columnIndexes(rel, qi)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]int)
	for i, r := range rows {
		key := r.GroupKey(idx)
		out[key] = append(out[key], i)
	}
	return out, nil
}

// Mondrian anonymizes rows to k-anonymity over the given quasi-identifiers
// using multidimensional median partitioning. Numeric QI values inside a
// partition are replaced by the partition mean; strings and other types by
// the partition's first value when uniform or a "*" suppression marker
// otherwise. The input rows are not modified.
func Mondrian(rel *schema.Relation, rows schema.Rows, qi []string, k int) (schema.Rows, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: k must be >= 1, got %d", ErrAnonymize, k)
	}
	idx, err := columnIndexes(rel, qi)
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return schema.Rows{}, nil
	}
	if len(rows) < k {
		return nil, fmt.Errorf("%w: %d rows cannot be %d-anonymous", ErrAnonymize, len(rows), k)
	}
	out := rows.Clone()
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	mondrianSplit(out, rows, order, idx, k)
	return out, nil
}

// mondrianSplit recursively partitions `members` (row indexes) and
// generalizes each leaf partition in-place in out.
func mondrianSplit(out, in schema.Rows, members []int, qiIdx []int, k int) {
	if len(members) >= 2*k {
		// Choose the QI dimension with the widest normalized range.
		dim, ok := widestDimension(in, members, qiIdx)
		if ok {
			// Sort by the chosen dimension (stable, NULLs first).
			sorted := append([]int{}, members...)
			sort.SliceStable(sorted, func(a, b int) bool {
				return compareVals(in[sorted[a]][dim], in[sorted[b]][dim]) < 0
			})
			cut := len(sorted) / 2
			// Move the cut off a run of equal values so both halves are
			// non-trivial.
			for cut < len(sorted)-k && cut > 0 &&
				compareVals(in[sorted[cut-1]][dim], in[sorted[cut]][dim]) == 0 {
				cut++
			}
			if cut >= k && len(sorted)-cut >= k &&
				compareVals(in[sorted[cut-1]][dim], in[sorted[cut]][dim]) != 0 {
				mondrianSplit(out, in, sorted[:cut], qiIdx, k)
				mondrianSplit(out, in, sorted[cut:], qiIdx, k)
				return
			}
		}
	}
	generalizePartition(out, in, members, qiIdx)
}

// widestDimension picks the allowed-cut dimension with the largest value
// spread; ok=false when no dimension has more than one distinct value.
func widestDimension(in schema.Rows, members []int, qiIdx []int) (int, bool) {
	bestDim, bestSpread, ok := -1, -1.0, false
	for _, dim := range qiIdx {
		spread, cuttable := dimSpread(in, members, dim)
		if cuttable && spread > bestSpread {
			bestSpread, bestDim, ok = spread, dim, true
		}
	}
	return bestDim, ok
}

// dimSpread measures one dimension over a partition: the value range when
// every member is numeric, the number of distinct values otherwise, and
// whether there are at least two distinct values to cut between. Distinct
// means distinct group keys (1 equals 1.0, NaN equals NaN, -0 differs from
// +0). The all-numeric case — every partition of a sensor table — needs no
// key strings for that: a second value shows as key bits that differ from
// the first member's.
func dimSpread(in schema.Rows, members []int, dim int) (spread float64, cuttable bool) {
	lo, hi := math.Inf(1), math.Inf(-1)
	var first uint64
	numeric := true
	for i, m := range members {
		v := in[m][dim]
		if !v.Type().Numeric() {
			numeric = false
			break
		}
		f := v.AsFloat()
		lo, hi = math.Min(lo, f), math.Max(hi, f)
		if bits := schema.NumericKeyBits(f); i == 0 {
			first = bits
		} else if bits != first {
			cuttable = true
		}
	}
	if numeric {
		return hi - lo, cuttable
	}
	distinct := map[string]bool{}
	for _, m := range members {
		distinct[in[m][dim].GroupKey()] = true
	}
	return float64(len(distinct)), len(distinct) >= 2
}

// generalizePartition replaces each QI value of the partition by the
// partition representative.
func generalizePartition(out, in schema.Rows, members []int, qiIdx []int) {
	for _, dim := range qiIdx {
		// Numeric: mean. Uniform non-numeric: keep. Mixed: suppress.
		numeric := true
		uniform := true
		var sum float64
		var n int
		first := in[members[0]][dim]
		for _, m := range members {
			v := in[m][dim]
			if v.Type().Numeric() {
				sum += v.AsFloat()
				n++
			} else {
				numeric = false
			}
			if !v.Identical(first) {
				uniform = false
			}
		}
		var rep schema.Value
		switch {
		case uniform:
			rep = first
		case numeric && n > 0:
			rep = schema.Float(round6(sum / float64(n)))
		default:
			rep = schema.String("*")
		}
		for _, m := range members {
			out[m][dim] = rep
		}
	}
}

func compareVals(a, b schema.Value) int {
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
	return 0
}

func round6(f float64) float64 { return math.Round(f*1e6) / 1e6 }

// FullDomain anonymizes to k-anonymity Samarati-style: all quasi-identifier
// columns are generalized uniformly level by level (numeric values are
// binned with doubling widths, strings suppressed at the top), and rows
// still violating k at the maximum level are suppressed entirely (removed),
// as long as no more than maxSuppress rows would be dropped.
func FullDomain(rel *schema.Relation, rows schema.Rows, qi []string, k int, maxSuppress int) (schema.Rows, int, error) {
	if k < 1 {
		return nil, 0, fmt.Errorf("%w: k must be >= 1, got %d", ErrAnonymize, k)
	}
	idx, err := columnIndexes(rel, qi)
	if err != nil {
		return nil, 0, err
	}
	if len(rows) == 0 {
		return schema.Rows{}, 0, nil
	}

	// Precompute per-column base bin width from the data spread.
	widths := make([]float64, len(idx))
	for i, dim := range idx {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range rows {
			if r[dim].Type().Numeric() {
				f := r[dim].AsFloat()
				lo, hi = math.Min(lo, f), math.Max(hi, f)
			}
		}
		if hi > lo {
			widths[i] = (hi - lo) / 16 // level 1 ~ 16 bins
		} else {
			widths[i] = 1
		}
	}

	const maxLevel = 6
	for level := 0; level <= maxLevel; level++ {
		gen := rows.Clone()
		for _, r := range gen {
			for i, dim := range idx {
				r[dim] = generalizeValue(r[dim], level, widths[i])
			}
		}
		counts := map[string]int{}
		for _, r := range gen {
			counts[r.GroupKey(idx)]++
		}
		suppress := 0
		for _, c := range counts {
			if c < k {
				suppress += c
			}
		}
		if suppress <= maxSuppress {
			var out schema.Rows
			for _, r := range gen {
				if counts[r.GroupKey(idx)] >= k {
					out = append(out, r)
				}
			}
			return out, suppress, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: cannot reach %d-anonymity within suppression budget %d",
		ErrAnonymize, k, maxSuppress)
}

// generalizeValue applies the level-th generalization step: numeric values
// snap to bins whose width doubles per level (level 0 = exact); all other
// types are kept until level >= 3, then suppressed.
func generalizeValue(v schema.Value, level int, baseWidth float64) schema.Value {
	if level == 0 || v.IsNull() {
		return v
	}
	if v.Type().Numeric() {
		w := baseWidth * math.Pow(2, float64(level-1))
		if w <= 0 {
			return v
		}
		f := v.AsFloat()
		return schema.Float(round6(math.Floor(f/w)*w + w/2))
	}
	if level >= 3 {
		return schema.String("*")
	}
	return v
}

// LaplaceMechanism adds Laplace(sensitivity/epsilon) noise to a value —
// the standard ε-differential-privacy release for numeric aggregates.
func LaplaceMechanism(value, sensitivity, epsilon float64, rng *rand.Rand) float64 {
	if epsilon <= 0 || sensitivity <= 0 {
		return value
	}
	b := sensitivity / epsilon
	u := rng.Float64() - 0.5
	return value - b*sign(u)*math.Log(1-2*math.Abs(u))
}

func sign(f float64) float64 {
	if f < 0 {
		return -1
	}
	return 1
}

// NoisyRows applies the Laplace mechanism to every numeric value of the
// given columns, modelling a per-record DP release (local model). Rows are
// copied; non-numeric values pass through.
func NoisyRows(rel *schema.Relation, rows schema.Rows, cols []string, sensitivity, epsilon float64, rng *rand.Rand) (schema.Rows, error) {
	idx, err := columnIndexes(rel, cols)
	if err != nil {
		return nil, err
	}
	out := rows.Clone()
	for _, r := range out {
		for _, dim := range idx {
			if r[dim].Type().Numeric() {
				r[dim] = schema.Float(round6(LaplaceMechanism(r[dim].AsFloat(), sensitivity, epsilon, rng)))
			}
		}
	}
	return out, nil
}
