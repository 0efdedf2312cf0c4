package engine

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
	"paradise/internal/storage"
)

// rowOnly hides every optional capability of a source (SchemaSource,
// BatchSource, ColScanner), exposing only Relation. Scans over it take the
// materialized row path, which makes it the reference executor for the
// vectorized-equals-row equivalence suite below: the same query runs once
// against the store (vectorized where the engine chooses to) and once
// against rowOnly (never vectorized), and the results must match exactly.
type rowOnly struct{ src Source }

func (r rowOnly) Relation(name string) (*schema.Relation, schema.Rows, error) {
	return r.src.Relation(name)
}

// The suite is vacuous if the store stops implementing ColScanner (every
// query would take the row path twice); pin the capability at compile time.
var _ ColScanner = (*storage.Store)(nil)

// vecStore builds two tables exercising every kernel type plus the awkward
// values: NULLs in every column, NaN and infinities and -0.0 in floats, and
// (optionally) a wrong-typed value that degrades a vector to boxed storage.
// The second table w is the join build side: duplicate keys, a NULL key, and
// a key no probe row matches.
func vecStore(t testing.TB, boxed bool) *storage.Store {
	t.Helper()
	st := storage.NewStore()
	v := st.Create(schema.NewRelation("v",
		schema.Col("i", schema.TypeInt),
		schema.Col("f", schema.TypeFloat),
		schema.Col("s", schema.TypeString),
		schema.Col("b", schema.TypeBool),
	))
	rows := schema.Rows{
		{schema.Int(1), schema.Float(1.5), schema.String("a"), schema.Bool(true)},
		{schema.Int(-2), schema.Float(math.NaN()), schema.String(""), schema.Bool(false)},
		{schema.Null(), schema.Float(0), schema.String("b"), schema.Null()},
		{schema.Int(3), schema.Null(), schema.Null(), schema.Bool(true)},
		{schema.Int(4), schema.Float(math.Inf(1)), schema.String("a"), schema.Bool(false)},
		{schema.Int(0), schema.Float(math.Copysign(0, -1)), schema.String("c"), schema.Bool(true)},
		{schema.Int(5), schema.Float(-2.5), schema.String("b"), schema.Null()},
		{schema.Int(1), schema.Float(1.5), schema.String("a"), schema.Bool(true)}, // duplicate of row 0
	}
	if boxed {
		// A string in the declared-int column degrades that vector to Box.
		rows = append(rows, schema.Row{schema.String("boxed"), schema.Float(9), schema.String("d"), schema.Bool(false)})
	}
	if err := v.Append(rows...); err != nil {
		t.Fatal(err)
	}
	w := st.Create(schema.NewRelation("w",
		schema.Col("k", schema.TypeInt),
		schema.Col("t", schema.TypeString),
	))
	wrows := schema.Rows{
		{schema.Int(1), schema.String("one")},
		{schema.Int(1), schema.String("uno")}, // duplicate build key
		{schema.Int(3), schema.String("three")},
		{schema.Null(), schema.String("none")},  // NULL build key
		{schema.Int(7), schema.String("seven")}, // matches no probe row
	}
	if err := w.Append(wrows...); err != nil {
		t.Fatal(err)
	}
	return st
}

// sameValue is bit-identical value equality: same runtime type, same
// payload, with NaN equal to NaN (the vectorized path must not canonicalize
// or lose any of these).
func sameValue(a, b schema.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Type() {
	case schema.TypeNull:
		return true
	case schema.TypeFloat:
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat()) ||
			(math.IsNaN(a.AsFloat()) && math.IsNaN(b.AsFloat()))
	default:
		return a.Format() == b.Format()
	}
}

// checkEquivalence runs sql against both executors and requires identical
// schemas, row sets (in order) and errors.
func checkEquivalence(t *testing.T, st *storage.Store, sql string) {
	t.Helper()
	checkEquivalenceEngine(t, New(st), st, sql)
}

// checkEquivalenceEngine is checkEquivalence with the vectorized side
// supplied by the caller (e.g. with the morsel exchange enabled); the
// reference side is always the serial, never-vectorized row path.
func checkEquivalenceEngine(t *testing.T, veng *Engine, st *storage.Store, sql string) {
	t.Helper()
	ctx := context.Background()
	vres, verr := veng.Query(ctx, sql)
	rres, rerr := New(rowOnly{st}).Query(ctx, sql)
	requireSameResult(t, sql, vres, verr, rres, rerr)
}

// requireSameResult compares a vectorized outcome with the row path's:
// identical error text, or identical schemas and rows in order.
func requireSameResult(t *testing.T, sql string, vres *Result, verr error, rres *Result, rerr error) {
	t.Helper()
	if (verr == nil) != (rerr == nil) {
		t.Fatalf("%q: error mismatch: vectorized=%v row=%v", sql, verr, rerr)
	}
	if verr != nil {
		if verr.Error() != rerr.Error() {
			t.Fatalf("%q: error text mismatch:\nvectorized: %v\nrow:        %v", sql, verr, rerr)
		}
		return
	}
	if got, want := vres.Schema.ColumnNames(), rres.Schema.ColumnNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("%q: schema mismatch: %v vs %v", sql, got, want)
	}
	if len(vres.Rows) != len(rres.Rows) {
		t.Fatalf("%q: row count mismatch: vectorized=%d row=%d", sql, len(vres.Rows), len(rres.Rows))
	}
	for i := range vres.Rows {
		if len(vres.Rows[i]) != len(rres.Rows[i]) {
			t.Fatalf("%q row %d: arity mismatch", sql, i)
		}
		for c := range vres.Rows[i] {
			if !sameValue(vres.Rows[i][c], rres.Rows[i][c]) {
				t.Fatalf("%q row %d col %d: %s (vectorized) != %s (row)",
					sql, i, c, vres.Rows[i][c].Format(), rres.Rows[i][c].Format())
			}
		}
	}
}

// equivalenceQueries is the fixed corpus: filters (kernel, literal-left,
// NULL tests, residual mixes), vectorized arithmetic projection, DISTINCT
// and grouped aggregation, plus error cases whose message text must match.
var equivalenceQueries = []string{
	// Filter kernels, including NULL and NaN handling in comparisons.
	"SELECT * FROM v",
	"SELECT * FROM v WHERE f < 1",
	"SELECT * FROM v WHERE f >= 0",
	"SELECT * FROM v WHERE 1 > f", // literal on the left
	"SELECT * FROM v WHERE i = 1",
	"SELECT * FROM v WHERE s = 'a'",
	"SELECT * FROM v WHERE b = true",
	"SELECT * FROM v WHERE f IS NULL",
	"SELECT * FROM v WHERE f IS NOT NULL",
	"SELECT * FROM v WHERE i IS NULL AND f >= 0",
	"SELECT * FROM v WHERE f < 2 AND s = 'a'",
	// Residual conjuncts behind kernels (arithmetic comparisons are not
	// kernelized) and ahead of them (prefix rule).
	"SELECT * FROM v WHERE f < 2 AND i + 1 > 0",
	"SELECT * FROM v WHERE i + 1 > 0 AND f < 2",
	"SELECT * FROM v WHERE i % 2 = 1",
	// Filters selecting nothing and everything.
	"SELECT * FROM v WHERE f < -1000000",
	"SELECT * FROM v WHERE f > -1000000 OR f IS NULL OR i IS NULL",
	// Vectorized arithmetic projection: int/float mixes, unary minus,
	// NULL literal, integer division staying on the row-path rules.
	"SELECT i + 1 AS a, i * 2 AS b FROM v",
	"SELECT f + i AS s FROM v",
	"SELECT -i AS n, -f AS m FROM v",
	"SELECT i - i AS z, f - f AS w FROM v",
	"SELECT i / 2 AS q, f / 2 AS h FROM v",
	"SELECT i % 3 AS r FROM v",
	"SELECT NULL AS n, i FROM v",
	"SELECT i + f * 2 - 1 AS e FROM v WHERE f IS NOT NULL",
	// Division and modulo by zero: error text must match exactly.
	"SELECT i / 0 AS boom FROM v",
	"SELECT i % 0 AS boom FROM v",
	"SELECT f / 0 AS boom FROM v",
	// DISTINCT, with NULL rows and duplicates.
	"SELECT DISTINCT s FROM v",
	"SELECT DISTINCT i, s FROM v",
	"SELECT DISTINCT f FROM v",
	"SELECT DISTINCT b FROM v WHERE f >= -10",
	// Grouped aggregation, HAVING, empty input, DISTINCT aggregates.
	"SELECT s, COUNT(*) AS n FROM v GROUP BY s",
	"SELECT s, COUNT(*) AS n, SUM(i) AS si, AVG(f) AS af FROM v GROUP BY s HAVING COUNT(*) > 1",
	"SELECT b, MIN(f) AS lo, MAX(f) AS hi FROM v GROUP BY b",
	"SELECT COUNT(*) AS n FROM v WHERE f < -1000000",
	"SELECT COUNT(DISTINCT s) AS ds, COUNT(DISTINCT i) AS di FROM v",
	"SELECT SUM(i) AS s FROM v",
	"SELECT AVG(i) AS a FROM v GROUP BY b",
	// Joins: the vectorized equi probe (inner, LEFT null-extension, kernel
	// filters on the probe side, reordered and computed select lists) and
	// every decline shape — residual ON conjunct, non-equi ON, cross join,
	// derived probe side. NULL keys never match, duplicate build keys fan
	// out in build order.
	"SELECT v.i, v.s, w.t FROM v JOIN w ON v.i = w.k",
	"SELECT v.i, w.t FROM v LEFT JOIN w ON v.i = w.k",
	"SELECT v.i, w.t FROM v JOIN w ON v.i = w.k WHERE v.f < 2",
	"SELECT v.i, w.t FROM v LEFT JOIN w ON v.i = w.k WHERE v.f >= 0 OR v.f IS NULL",
	"SELECT w.t, v.i FROM v JOIN w ON v.i = w.k",             // reordered
	"SELECT v.i + w.k AS m FROM v JOIN w ON v.i = w.k",       // expression projection over the joined batch
	"SELECT v.i, w.k FROM v JOIN w ON v.i = w.k AND v.f > 0", // residual ON conjunct declines
	"SELECT v.i, w.k FROM v JOIN w ON v.i < w.k",             // non-equi: loop join
	"SELECT v.i, w.k FROM v CROSS JOIN w WHERE v.i = 1",
	"SELECT d.i, w.t FROM (SELECT i FROM v WHERE f IS NOT NULL) AS d JOIN w ON d.i = w.k", // derived probe declines
	"SELECT v.i, w.t FROM v JOIN w ON v.i = w.k ORDER BY w.t, v.i LIMIT 4",
	// ORDER BY through the typed sort keys: NaN and -0.0 floats, NULLs,
	// multi-key with DESC, expression keys, keys resolved from the input
	// rows (projected-away columns), and top-K under LIMIT (declined when
	// a NaN key is present).
	"SELECT i, f FROM v ORDER BY f",
	"SELECT i, f FROM v ORDER BY f DESC",
	"SELECT i, f, s FROM v ORDER BY s, i DESC",
	"SELECT s FROM v ORDER BY i, f",
	"SELECT i, f FROM v ORDER BY i + f",
	"SELECT i, f FROM v ORDER BY f LIMIT 3",
	"SELECT i, f FROM v ORDER BY f DESC LIMIT 3",
	"SELECT i, s FROM v ORDER BY i LIMIT 0",
	"SELECT i, s FROM v ORDER BY i DESC LIMIT 100",
	// Window shapes: plain-partition fast path, multi-column partitions,
	// expression partitions, ranking and navigation calls, cumulative
	// frames with peer groups over NaN order keys.
	"SELECT s, SUM(i) OVER (PARTITION BY s) AS c FROM v",
	"SELECT i, row_number() OVER (PARTITION BY b ORDER BY i) AS rn FROM v",
	"SELECT i, rank() OVER (ORDER BY s) AS r, dense_rank() OVER (ORDER BY s) AS dr FROM v",
	"SELECT s, i, SUM(f) OVER (PARTITION BY s, b ORDER BY i) AS c FROM v",
	"SELECT i, SUM(i) OVER (PARTITION BY i % 2 ORDER BY f) AS c FROM v",
	"SELECT i, lag(i) OVER (ORDER BY i) AS p, lead(i) OVER (ORDER BY i) AS nx FROM v",
	"SELECT i, first_value(s) OVER (PARTITION BY b ORDER BY i) AS fv, last_value(s) OVER (PARTITION BY b ORDER BY i) AS lv FROM v",
	"SELECT i, AVG(f) OVER (PARTITION BY s ORDER BY i) AS a FROM v ORDER BY i, a LIMIT 5",
}

func TestVectorizedMatchesRowPath(t *testing.T) {
	st := vecStore(t, false)
	for _, q := range equivalenceQueries {
		checkEquivalence(t, st, q)
	}
}

// TestVectorizedMatchesRowPathBoxed repeats the corpus over a store whose
// int column degraded to boxed storage, exercising every boxed fallback.
func TestVectorizedMatchesRowPathBoxed(t *testing.T) {
	st := vecStore(t, true)
	for _, q := range equivalenceQueries {
		checkEquivalence(t, st, q)
	}
}

// TestVectorizedMatchesRowPathParallel runs the corpus with the morsel
// exchange enabled: partitioned parallel builds feed the vectorized probe
// and the seq-ordered merge must reproduce the serial row path exactly.
func TestVectorizedMatchesRowPathParallel(t *testing.T) {
	st := vecStore(t, false)
	for _, q := range equivalenceQueries {
		checkEquivalenceEngine(t, New(st).WithParallelism(4), st, q)
	}
}

// relationCounter is a store that counts calls of Relation, the
// materialized reference: queries must read a store through its columnar
// faces and name schemas through RelationSchema, never through Relation.
type relationCounter struct {
	*storage.Store
	calls atomic.Int64
}

func (r *relationCounter) Relation(name string) (*schema.Relation, schema.Rows, error) {
	r.calls.Add(1)
	return r.Store.Relation(name)
}

// TestStoreQueriesNeverMaterialize runs both equivalence corpora — scans,
// filters, joins of every shape, breakers, nested blocks, error cases —
// over a Relation-counting store at one and four workers: not one query
// may fall back to materializing a table.
func TestStoreQueriesNeverMaterialize(t *testing.T) {
	corpora := []struct {
		st      *storage.Store
		queries []string
	}{
		{vecStore(t, false), equivalenceQueries},
		{benchStore(t, 2_000), parallelCorpus},
	}
	for _, c := range corpora {
		src := &relationCounter{Store: c.st}
		for _, workers := range []int{1, 4} {
			for _, q := range c.queries {
				// Error cases stay in the corpus: failing must not
				// materialize either.
				_, _ = New(src).WithParallelism(workers).Query(context.Background(), q)
				if n := src.calls.Load(); n != 0 {
					t.Fatalf("%q at %d workers: %d Relation calls, want 0", q, workers, n)
				}
			}
		}
	}
}

// TestVectorizedMatchesRowPathFuzz generates random tables (with NULL and
// NaN sprinkled in) and runs the corpus plus randomized filter thresholds
// against both executors. The seed is fixed so failures reproduce.
func TestVectorizedMatchesRowPathFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20160315))
	words := []string{"a", "b", "c", "", "a\x1fb"}
	for round := 0; round < 8; round++ {
		st := storage.NewStore()
		v := st.Create(schema.NewRelation("v",
			schema.Col("i", schema.TypeInt),
			schema.Col("f", schema.TypeFloat),
			schema.Col("s", schema.TypeString),
			schema.Col("b", schema.TypeBool),
		))
		n := 1 + rng.Intn(200)
		for r := 0; r < n; r++ {
			row := schema.Row{
				schema.Int(int64(rng.Intn(7) - 3)),
				schema.Float(float64(rng.Intn(9)-4) / 2),
				schema.String(words[rng.Intn(len(words))]),
				schema.Bool(rng.Intn(2) == 0),
			}
			for c := range row {
				if rng.Intn(8) == 0 {
					row[c] = schema.Null()
				}
			}
			if rng.Intn(16) == 0 {
				row[1] = schema.Float(math.NaN())
			}
			if err := v.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		w := st.Create(schema.NewRelation("w",
			schema.Col("k", schema.TypeInt),
			schema.Col("t", schema.TypeString),
		))
		m := 1 + rng.Intn(40)
		for r := 0; r < m; r++ {
			row := schema.Row{
				schema.Int(int64(rng.Intn(7) - 3)),
				schema.String(words[rng.Intn(len(words))]),
			}
			if rng.Intn(8) == 0 {
				row[0] = schema.Null()
			}
			if err := w.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		queries := []string{
			"SELECT * FROM v WHERE f < 0.5",
			"SELECT * FROM v WHERE i >= 0 AND f < 1",
			"SELECT i + f AS s FROM v WHERE b = true",
			"SELECT DISTINCT i, s FROM v",
			"SELECT s, COUNT(*) AS n, SUM(f) AS sf FROM v GROUP BY s",
			"SELECT i * 2 - 1 AS e FROM v WHERE f IS NOT NULL",
			"SELECT v.i, v.f, w.t FROM v JOIN w ON v.i = w.k",
			"SELECT v.i, w.t FROM v LEFT JOIN w ON v.i = w.k WHERE v.f < 1",
			"SELECT i, f, s FROM v ORDER BY f, i DESC",
			"SELECT i, f FROM v ORDER BY f LIMIT 7",
			"SELECT s, SUM(i) OVER (PARTITION BY s) AS c FROM v",
			"SELECT i, row_number() OVER (PARTITION BY b ORDER BY f) AS rn FROM v",
		}
		for _, q := range queries {
			checkEquivalence(t, st, q)
		}
	}
}

// TestColumnarFaceMatchesRowPath drains every block of the corpus that
// OpenStage serves as column batches through NextBatch — the face a fragment
// chain's next stage pulls — and requires the pivot of those batches to be
// the row path's result, and their accounted wire size the rows'. Engine.Query
// above only ever pulls the row face. The corpus holds filters that reject a
// whole batch: an empty selection must not read as "all rows".
func TestColumnarFaceMatchesRowPath(t *testing.T) {
	columnar := 0
	for _, st := range []*storage.Store{vecStore(t, false), vecStore(t, true)} {
		for _, q := range equivalenceQueries {
			sel, err := sqlparser.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			eng := New(st)
			root, err := plan.FromAST(sel)
			if err != nil {
				t.Fatal(err)
			}
			root = plan.Optimize(root, plan.Options{Catalog: eng.Catalog(), CrossBlock: true})
			rel, it, decline, err := eng.OpenStage(context.Background(), root)
			if err != nil {
				continue // error cases are TestVectorizedMatchesRowPath's
			}
			ci, ok := it.(schema.ColIterator)
			if ok != (decline == "") {
				t.Fatalf("%q: ColIterator=%v but decline=%q", q, ok, decline)
			}
			if !ok {
				it.Close()
				continue
			}
			columnar++
			vres := &Result{Schema: rel}
			var verr error
			bytes := 0
			for {
				cb, err := ci.NextBatch()
				if err != nil {
					verr = err
					break
				}
				if cb == nil {
					break
				}
				if cb.Len() == 0 {
					t.Fatalf("%q: empty batch handed on", q)
				}
				bytes += cb.WireSize()
				vres.Rows = append(vres.Rows, cb.Rows()...)
			}
			ci.Close()
			rres, rerr := New(rowOnly{st}).Query(context.Background(), q)
			requireSameResult(t, q, vres, verr, rres, rerr)
			if verr == nil && bytes != rres.WireSize() {
				t.Fatalf("%q: batches weigh %d bytes, rows %d", q, bytes, rres.WireSize())
			}
		}
	}
	if columnar == 0 {
		t.Fatal("no block of the corpus was served as column batches")
	}
}

// TestOpenStageDeclineReasons pins the reason OpenStage reports for every
// shape that keeps a block's output row-major, and that exactly the blocks
// without a reason serve column batches.
func TestOpenStageDeclineReasons(t *testing.T) {
	st := vecStore(t, false)
	cases := []struct {
		src  Source
		sql  string
		want string
	}{
		{st, "SELECT * FROM v", ""},
		{st, "SELECT s, i FROM v WHERE f < 2 AND i + 1 > 0", ""}, // kernels and a row residual
		{st, "SELECT s AS label FROM v", ""},
		{st, "SELECT s, COUNT(*) AS n FROM v GROUP BY s", DeclineBreaker},
		{st, "SELECT s, COUNT(*) AS n FROM v GROUP BY i % 2, s", DeclineBreaker}, // the vectorized GROUP BY declines too
		{st, "SELECT i FROM v ORDER BY i", DeclineBreaker},
		{st, "SELECT i, row_number() OVER (ORDER BY i) AS rn FROM v", DeclineBreaker},
		{st, "SELECT DISTINCT s FROM v", DeclineDistinct},
		{st, "SELECT i, s FROM v LIMIT 3", DeclineLimit},
		// An equi-join probing a table is a columnar source like a scan.
		{st, "SELECT v.i, w.t FROM v JOIN w ON v.i = w.k", ""},
		{st, "SELECT w.t, v.s FROM v LEFT JOIN w ON v.i = w.k WHERE v.f < 2", ""},
		{st, "SELECT w.t, COUNT(*) AS n FROM v JOIN w ON v.i = w.k GROUP BY w.t", DeclineBreaker},
		{st, "SELECT v.i, w.t FROM v JOIN w ON v.i = w.k ORDER BY w.t", DeclineBreaker},
		{st, "SELECT DISTINCT w.t FROM v JOIN w ON v.i = w.k", DeclineDistinct},
		{st, "SELECT v.i, w.t FROM v JOIN w ON v.i = w.k LIMIT 2", DeclineLimit},
		{st, "SELECT v.i + w.k AS m FROM v JOIN w ON v.i = w.k", DeclineProjection},
		// The joins that keep the row probe stages.
		{st, "SELECT v.i, w.k FROM v JOIN w ON v.i < w.k", DeclineJoin},             // non-equi ON
		{st, "SELECT v.i, w.k FROM v JOIN w ON v.i = w.k AND v.f > 0", DeclineJoin}, // residual ON conjunct
		{st, "SELECT v.i, w.k FROM v CROSS JOIN w", DeclineJoin},
		{st, "SELECT d.i, w.t FROM (SELECT i FROM v WHERE f IS NOT NULL) AS d JOIN w ON d.i = w.k", DeclineJoin}, // derived probe side
		{st, "SELECT w.t, COUNT(*) AS n FROM v JOIN w ON v.i < w.k GROUP BY w.t", DeclineJoin},
		{st, "SELECT i + 1 AS a FROM v", DeclineProjection},                               // vectorized arithmetic, rows out
		{st, "SELECT CASE WHEN i > 1 THEN s ELSE 'x' END AS c FROM v", DeclineProjection}, // no kernel at all
		{st, "SELECT i FROM (SELECT i, s FROM v LIMIT 5) AS d", DeclineDerived},
		{rowOnly{st}, "SELECT * FROM v", DeclineRowSource},
		{rowOnly{st}, "SELECT s, COUNT(*) AS n FROM v GROUP BY s", DeclineRowSource},
		{rowOnly{st}, "SELECT v.i, w.t FROM v JOIN w ON v.i = w.k", DeclineRowSource},
	}
	for _, c := range cases {
		sel, err := sqlparser.Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		root, err := plan.FromAST(sel)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			_, it, got, err := New(c.src).WithParallelism(workers).OpenStage(context.Background(), root)
			if err != nil {
				t.Fatalf("%q: %v", c.sql, err)
			}
			_, columnar := it.(schema.ColIterator)
			it.Close()
			if got != c.want || columnar != (c.want == "") {
				t.Errorf("%q at %d workers: decline %q (columnar=%v), want %q", c.sql, workers, got, columnar, c.want)
			}
		}
	}
}
