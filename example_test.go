package paradise_test

import (
	"context"
	"errors"
	"fmt"

	paradise "paradise"
)

// exampleStore builds a six-row position table, the integrated database d
// of a tiny smart environment.
func exampleStore() *paradise.Store {
	store := paradise.NewStore()
	tab := store.Create(paradise.NewRelation("d",
		paradise.SensitiveCol("user", paradise.TypeString),
		paradise.Col("x", paradise.TypeFloat),
		paradise.Col("y", paradise.TypeFloat),
		paradise.Col("z", paradise.TypeFloat),
		paradise.Col("t", paradise.TypeInt),
	))
	for i := 0; i < 6; i++ {
		_ = tab.Append(paradise.Row{
			paradise.String("alice"),
			paradise.Float(float64(2 + i%2)), // two grid cells
			paradise.Float(1),
			paradise.Float(30),
			paradise.Int(int64(i) * 50),
		})
	}
	return store
}

// Open a session over a store with the paper's Figure 4 policy and run a
// query through the full pipeline: the policy rewrites the height z into
// its mandated per-cell average before anything leaves the apartment.
func ExampleOpen() {
	sess, err := paradise.Open(exampleStore(),
		paradise.WithPolicy(paradise.Figure4Policy()),
		paradise.WithDefaultModule("ActionFilter"))
	if err != nil {
		panic(err)
	}
	out, err := sess.Process(context.Background(), "SELECT x, y, z FROM d")
	if err != nil {
		panic(err)
	}
	fmt.Println(out.RewrittenSQL)
	// Output:
	// SELECT x, y, AVG(z) AS zavg FROM d WHERE x > y AND z < 2 GROUP BY x, y HAVING SUM(z) > 100
}

// Stream a query through a cursor: rows arrive batch-at-a-time from the
// fragment chain, and Close (idempotent) finalizes the Figure 3 transfer
// accounting.
func ExampleSession_Query() {
	sess, err := paradise.Open(exampleStore()) // no policy: unrestricted
	if err != nil {
		panic(err)
	}
	cur, err := sess.Query(context.Background(), "SELECT x, t FROM d WHERE t >= 100")
	if err != nil {
		panic(err)
	}
	defer cur.Close()
	for cur.Next() {
		r := cur.Row()
		fmt.Printf("x=%s t=%s\n", r[0].Format(), r[1].Format())
	}
	if err := cur.Err(); err != nil {
		panic(err)
	}
	// Output:
	// x=2 t=100
	// x=3 t=150
	// x=2 t=200
	// x=3 t=250
}

// Consume the same query as column batches: the final fragment compiled to
// kernels only, so the cursor is Columnar and NextBatch hands out that
// fragment's typed vectors — no row is materialized. Sel lists the live
// positions of a filtered batch (all N when nil).
func ExampleCursor_NextBatch() {
	sess, err := paradise.Open(exampleStore())
	if err != nil {
		panic(err)
	}
	cur, err := sess.Query(context.Background(), "SELECT x, t FROM d WHERE t >= 100")
	if err != nil {
		panic(err)
	}
	defer cur.Close()
	fmt.Println("columnar:", cur.Columnar())
	for {
		b, err := cur.NextBatch()
		if err != nil {
			panic(err)
		}
		if b == nil {
			break
		}
		x, t := b.Vecs[0].Floats, b.Vecs[1].Ints
		for k := 0; k < b.Len(); k++ {
			i := k
			if b.Sel != nil {
				i = b.Sel[k]
			}
			fmt.Printf("x=%v t=%d\n", x[i], t[i])
		}
	}
	// Output:
	// columnar: true
	// x=2 t=100
	// x=3 t=150
	// x=2 t=200
	// x=3 t=250
}

// Parallelism is a pure performance knob: a session opened with
// WithParallelism(4) runs scans, filters, projections, join probes and
// aggregation on four worker goroutines per query, yet returns exactly the
// rows — same order, bit-identical values — and exactly the Figure 3
// accounting of a serial session, because the engine's exchange re-emits
// worker output in morsel order.
func ExampleWithParallelism() {
	store := exampleStore()
	serial, err := paradise.Open(store, paradise.WithParallelism(1))
	if err != nil {
		panic(err)
	}
	parallel, err := paradise.Open(store, paradise.WithParallelism(4))
	if err != nil {
		panic(err)
	}
	sql := "SELECT x, AVG(z) AS za, COUNT(*) AS n FROM d GROUP BY x"
	a, err := serial.Process(context.Background(), sql)
	if err != nil {
		panic(err)
	}
	b, err := parallel.Process(context.Background(), sql)
	if err != nil {
		panic(err)
	}
	fmt.Println("rows equal:", fmt.Sprint(a.Result.Rows) == fmt.Sprint(b.Result.Rows))
	fmt.Println("egress equal:", a.Net.EgressBytes == b.Net.EgressBytes)
	for _, r := range b.Result.Rows {
		fmt.Printf("x=%s za=%s n=%s\n", r[0].Format(), r[1].Format(), r[2].Format())
	}
	// Output:
	// rows equal: true
	// egress equal: true
	// x=2 za=30 n=3
	// x=3 za=30 n=3
}

// The -explain view of cmd/paradise is Outcome.Explain: the optimized
// logical plan of the rewritten query, policy transformations inline as
// operator provenance, followed by the per-fragment plan trees, their
// placement levels and how each stage's output crossed the stage boundary.
func ExampleOutcome_Explain() {
	sess, err := paradise.Open(exampleStore(),
		paradise.WithPolicy(paradise.Figure4Policy()),
		paradise.WithDefaultModule("ActionFilter"))
	if err != nil {
		panic(err)
	}
	out, err := sess.Process(context.Background(), "SELECT x, y FROM d")
	if err != nil {
		panic(err)
	}
	fmt.Print(out.Explain())
	// Output:
	// logical plan (rewritten, optimized):
	//   Project x, y
	//     Scan d cols=[x, y] pushed=(x > y)
	//       ^ policy:ActionFilter selection control (injected condition) [x, y] (x > y)
	// fragment plans (placement):
	// Q1 @ E4/sensor — sensor scan (reads d, emits d1) [est 6 rows / 246 bytes] [ships columnar]
	//   Project *
	//     Scan d
	// Q2 @ E3/appliance — appliance filter + projection (reads d1, emits d2) [est 2 rows / 32 bytes] [ships columnar]
	//   Project x, y
	//     Scan d1 pushed=(x > y)
}

// Denied queries surface as typed errors: branch with errors.Is, read the
// violated rule and offending columns with errors.As.
func ExampleErrPolicyViolation() {
	sess, err := paradise.Open(exampleStore(),
		paradise.WithPolicy(paradise.Figure4Policy()),
		paradise.WithDefaultModule("ActionFilter"))
	if err != nil {
		panic(err)
	}
	_, err = sess.Process(context.Background(), "SELECT x, y FROM d WHERE user = 'alice'")
	if errors.Is(err, paradise.ErrPolicyViolation) {
		var v *paradise.PolicyViolation
		errors.As(err, &v)
		fmt.Printf("denied by module %s: %s %v\n", v.Module, v.Rule, v.Columns)
	}
	// Output:
	// denied by module ActionFilter: denied attribute used in WHERE [user]
}
