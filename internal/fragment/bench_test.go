package fragment

import (
	"context"
	"math/rand"
	"testing"

	"paradise/internal/schema"
	"paradise/internal/sqlparser"
	"paradise/internal/storage"
)

// benchStore builds an n-row position table shaped like the engine benchmarks
// so engine and fragment hot paths are measured over the same data.
func benchStore(b *testing.B, n int) *storage.Store {
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
	return st
}

func benchExecute(b *testing.B, q string) {
	st := benchStore(b, 10_000)
	sel, err := sqlparser.Parse(q)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := New().Fragment(sel)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(context.Background(), plan, st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteScanFilter(b *testing.B) {
	benchExecute(b, "SELECT x, y FROM d WHERE x > y AND z < 1")
}

func BenchmarkExecuteAggregateChain(b *testing.B) {
	benchExecute(b, "SELECT cell, AVG(z) AS za FROM d WHERE x > y AND z < 2 GROUP BY cell HAVING COUNT(*) > 5")
}

func BenchmarkExecuteLimitAcrossStages(b *testing.B) {
	benchExecute(b, "SELECT s FROM (SELECT x + y AS s, z FROM d WHERE z < 1.5) LIMIT 10")
}
