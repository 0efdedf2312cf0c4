package anonymize

import (
	"math"
	"math/rand"
	"testing"

	"paradise/internal/schema"
)

// widestDimensionOracle is widestDimension as it was before the numeric
// fast path: one group-key string per member and dimension, counted in a
// map. The production function must choose the same dimension always.
func widestDimensionOracle(in schema.Rows, members []int, qiIdx []int) (int, bool) {
	bestDim, bestSpread, ok := -1, -1.0, false
	for _, dim := range qiIdx {
		lo, hi := math.Inf(1), math.Inf(-1)
		distinct := map[string]bool{}
		numeric := true
		for _, m := range members {
			v := in[m][dim]
			distinct[v.GroupKey()] = true
			if v.Type().Numeric() {
				f := v.AsFloat()
				lo, hi = math.Min(lo, f), math.Max(hi, f)
			} else {
				numeric = false
			}
		}
		if len(distinct) < 2 {
			continue
		}
		spread := float64(len(distinct))
		if numeric {
			spread = hi - lo
		}
		if spread > bestSpread {
			bestSpread, bestDim, ok = spread, dim, true
		}
	}
	return bestDim, ok
}

// TestWidestDimensionMatchesOracle: random partitions over columns that are
// constant, all-int, all-float, int/float mixes of equal value, ±0, NaN
// under different payloads, ±Inf, NULL-holding and string-holding.
func TestWidestDimensionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	nan2 := math.Float64frombits(0x7ff8000000000123) // groups with math.NaN()
	gens := []func() schema.Value{
		func() schema.Value { return schema.Int(7) },
		func() schema.Value { return schema.Int(int64(rng.Intn(5))) },
		func() schema.Value { return schema.Float(rng.NormFloat64() * 1e3) },
		func() schema.Value { // 3 and 3.0 are one value
			if rng.Intn(2) == 0 {
				return schema.Int(3)
			}
			return schema.Float(3)
		},
		func() schema.Value { return schema.Float(math.Copysign(0, float64(rng.Intn(2))-0.5)) },
		func() schema.Value { return schema.Float([]float64{math.NaN(), nan2}[rng.Intn(2)]) },
		func() schema.Value { return schema.Float([]float64{math.NaN(), 1, 2}[rng.Intn(3)]) },
		func() schema.Value { return schema.Float([]float64{math.Inf(1), math.Inf(-1), 0}[rng.Intn(3)]) },
		func() schema.Value { return []schema.Value{{}, schema.Int(1), schema.Float(1)}[rng.Intn(3)] },
		func() schema.Value { return schema.Value{} },
		func() schema.Value { return schema.String([]string{"a", "b", "c"}[rng.Intn(3)]) },
		func() schema.Value { return []schema.Value{schema.String("1"), schema.Int(1)}[rng.Intn(2)] },
		func() schema.Value { return schema.Int(math.MaxInt64 - int64(rng.Intn(2))) }, // equal as float64
	}
	for trial := 0; trial < 2000; trial++ {
		width := 1 + rng.Intn(5)
		cols := make([]func() schema.Value, width)
		for c := range cols {
			cols[c] = gens[rng.Intn(len(gens))]
		}
		rows := make(schema.Rows, 1+rng.Intn(12))
		for r := range rows {
			rows[r] = make(schema.Row, width)
			for c := range cols {
				rows[r][c] = cols[c]()
			}
		}
		var members []int
		for r := range rows {
			if rng.Intn(4) > 0 {
				members = append(members, r)
			}
		}
		qi := rng.Perm(width)[:1+rng.Intn(width)]
		wantDim, wantOK := widestDimensionOracle(rows, members, qi)
		gotDim, gotOK := widestDimension(rows, members, qi)
		if gotDim != wantDim || gotOK != wantOK {
			t.Fatalf("trial %d: widestDimension = (%d, %v), oracle (%d, %v)\nrows %v\nmembers %v qi %v",
				trial, gotDim, gotOK, wantDim, wantOK, rows, members, qi)
		}
	}
}
