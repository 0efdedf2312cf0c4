package engine

import (
	"context"
	"math/rand"
	"testing"

	"paradise/internal/schema"
	"paradise/internal/storage"
)

// benchStore builds an n-row position table plus a small dimension table.
func benchStore(b testing.TB, n int) *storage.Store {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	st := storage.NewStore()
	d := st.Create(schema.NewRelation("d",
		schema.Col("x", schema.TypeFloat),
		schema.Col("y", schema.TypeFloat),
		schema.Col("z", schema.TypeFloat),
		schema.Col("t", schema.TypeInt),
		schema.Col("cell", schema.TypeInt),
	))
	rows := make(schema.Rows, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, schema.Row{
			schema.Float(rng.Float64() * 8),
			schema.Float(rng.Float64() * 6),
			schema.Float(rng.Float64() * 2),
			schema.Int(int64(i)),
			schema.Int(int64(rng.Intn(64))),
		})
	}
	if err := d.Append(rows...); err != nil {
		b.Fatal(err)
	}
	dim := st.Create(schema.NewRelation("cells",
		schema.Col("cell", schema.TypeInt),
		schema.Col("label", schema.TypeString),
	))
	for i := 0; i < 64; i++ {
		if err := dim.Append(schema.Row{schema.Int(int64(i)), schema.String("room")}); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

func benchQuery(b *testing.B, sql string) {
	b.Helper()
	eng := New(benchStore(b, 10_000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(context.Background(), sql); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanFilter(b *testing.B) {
	benchQuery(b, "SELECT * FROM d WHERE z < 1")
}

func BenchmarkProjectExpression(b *testing.B) {
	benchQuery(b, "SELECT x + y AS s, z * 2 FROM d WHERE x > y")
}

func BenchmarkGroupByHaving(b *testing.B) {
	benchQuery(b, "SELECT cell, AVG(z) AS za, COUNT(*) AS n FROM d GROUP BY cell HAVING COUNT(*) > 10")
}

func BenchmarkWindowCumulative(b *testing.B) {
	benchQuery(b, "SELECT SUM(z) OVER (PARTITION BY cell ORDER BY t) FROM d")
}

func BenchmarkHashJoin(b *testing.B) {
	benchQuery(b, "SELECT d.x, cells.label FROM d JOIN cells ON d.cell = cells.cell WHERE d.z < 1")
}

// BenchmarkJoinGroupBy is the reading ⋈ dimension → aggregate shape: the
// group key comes from the build side, the aggregate argument from the probe
// side.
func BenchmarkJoinGroupBy(b *testing.B) {
	benchQuery(b, "SELECT cells.label, COUNT(*) AS n, AVG(d.z) AS za FROM d JOIN cells ON d.cell = cells.cell WHERE d.z < 1 GROUP BY cells.label")
}

func BenchmarkRegressionAggregates(b *testing.B) {
	benchQuery(b, "SELECT regr_intercept(y, x), regr_slope(y, x), corr(y, x) FROM d")
}

func BenchmarkOrderByLimit(b *testing.B) {
	benchQuery(b, "SELECT x, y FROM d ORDER BY z DESC LIMIT 100")
}

func BenchmarkDistinct(b *testing.B) {
	benchQuery(b, "SELECT DISTINCT cell FROM d")
}

func BenchmarkNestedSubquery(b *testing.B) {
	benchQuery(b, "SELECT AVG(s) FROM (SELECT x + y AS s, z FROM d WHERE z < 1.5) WHERE s > 3")
}

func BenchmarkLimitEarlyTermination(b *testing.B) {
	benchQuery(b, "SELECT x, y FROM d LIMIT 10")
}

// benchQueryPar is benchQuery on a 4-worker engine: the pairs below compare
// one worker with four. Run with -cpu 4 (or more) —
// under GOMAXPROCS=1 the workers time-slice one core and parallel can only
// measure its own overhead.
func benchQueryPar(b *testing.B, sql string) {
	b.Helper()
	eng := New(benchStore(b, 10_000)).WithParallelism(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(context.Background(), sql); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanFilterParallel(b *testing.B) {
	benchQueryPar(b, "SELECT * FROM d WHERE z < 1")
}

func BenchmarkProjectExpressionParallel(b *testing.B) {
	benchQueryPar(b, "SELECT x + y AS s, z * 2 FROM d WHERE x > y")
}

func BenchmarkGroupByHavingParallel(b *testing.B) {
	benchQueryPar(b, "SELECT cell, AVG(z) AS za, COUNT(*) AS n FROM d GROUP BY cell HAVING COUNT(*) > 10")
}

func BenchmarkHashJoinParallel(b *testing.B) {
	benchQueryPar(b, "SELECT d.x, cells.label FROM d JOIN cells ON d.cell = cells.cell WHERE d.z < 1")
}

func BenchmarkDistinctParallel(b *testing.B) {
	benchQueryPar(b, "SELECT DISTINCT cell FROM d")
}
