package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
	"paradise/internal/storage"
)

// mustPlan lowers a SQL string into its logical plan.
func mustPlan(t testing.TB, sql string) plan.Node {
	t.Helper()
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	root, err := plan.FromAST(sel)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// parallelCorpus is the serial-vs-parallel equivalence corpus: the engine
// benchmark queries plus shapes that stress every parallel operator
// (probe residuals, LEFT JOIN null-extension, DISTINCT merges, grouped
// merges, breakers over parallel input, nested blocks, empty groups).
var parallelCorpus = []string{
	"SELECT * FROM d WHERE z < 1",
	"SELECT x + y AS s, z * 2 FROM d WHERE x > y",
	"SELECT cell, AVG(z) AS za, COUNT(*) AS n FROM d GROUP BY cell HAVING COUNT(*) > 10",
	"SELECT SUM(z) OVER (PARTITION BY cell ORDER BY t) FROM d",
	"SELECT d.x, cells.label FROM d JOIN cells ON d.cell = cells.cell WHERE d.z < 1",
	"SELECT REGR_SLOPE(y, x) AS m, REGR_INTERCEPT(y, x) AS b0, CORR(y, x) AS r FROM d",
	"SELECT x, y FROM d ORDER BY y DESC, x LIMIT 25",
	"SELECT DISTINCT cell FROM d",
	"SELECT s.cell, s.za FROM (SELECT cell, AVG(z) AS za FROM d GROUP BY cell) AS s WHERE s.za > 0.9",
	"SELECT x FROM d LIMIT 10",
	"SELECT COUNT(*) AS n FROM d WHERE z > 100",
	"SELECT cell, COUNT(*) AS n FROM d WHERE z > 100 GROUP BY cell",
	"SELECT AVG(x) AS ax, SUM(y) AS sy, MIN(z) AS mz, MAX(z) AS xz, STDDEV(x) AS sd FROM d",
	"SELECT d.t, cells.label FROM d LEFT JOIN cells ON d.cell = cells.cell AND cells.cell < 8 WHERE d.z < 0.5",
	"SELECT a.cell, b.cell FROM cells AS a JOIN cells AS b ON a.cell = b.cell WHERE a.cell < 5",
	"SELECT DISTINCT cell, t / 1000 AS bucket FROM d WHERE z < 1 ORDER BY cell, bucket LIMIT 40",
	"SELECT cell, COUNT(*) AS n FROM d GROUP BY cell ORDER BY n DESC, cell LIMIT 5",
	"SELECT x, ROW_NUMBER() OVER (ORDER BY t) AS rn FROM d WHERE cell = 3",
}

// TestParallelEquivalence pins the tentpole guarantee: a parallel pipeline
// is row-identical — same rows, same order, bit-identical values (floats
// included, because per-group folds and projections visit rows in serial
// order) — to the serial pipeline, over the whole corpus and several
// worker counts.
func TestParallelEquivalence(t *testing.T) {
	st := benchStore(t, 10_000)
	for _, workers := range []int{2, 4, 7} {
		for _, sql := range parallelCorpus {
			serial, err := New(st).Query(context.Background(), sql)
			if err != nil {
				t.Fatalf("serial %q: %v", sql, err)
			}
			par, err := New(st).WithParallelism(workers).Query(context.Background(), sql)
			if err != nil {
				t.Fatalf("parallel(%d) %q: %v", workers, sql, err)
			}
			if !reflect.DeepEqual(serial.Schema.ColumnNames(), par.Schema.ColumnNames()) {
				t.Fatalf("parallel(%d) %q: schema %v != %v", workers, sql,
					par.Schema.ColumnNames(), serial.Schema.ColumnNames())
			}
			if len(serial.Rows) != len(par.Rows) {
				t.Fatalf("parallel(%d) %q: %d rows != %d", workers, sql,
					len(par.Rows), len(serial.Rows))
			}
			if !reflect.DeepEqual(serial.Rows, par.Rows) {
				t.Fatalf("parallel(%d) %q: rows differ from serial", workers, sql)
			}
		}
	}
}

// TestParallelEquivalenceEmptyInput covers the empty-relation edge: the
// implicit group of an aggregate without GROUP BY must survive the
// parallel merge (COUNT(*) over nothing is 0, not no-rows).
func TestParallelEquivalenceEmptyInput(t *testing.T) {
	st := storage.NewStore()
	st.Create(schema.NewRelation("e",
		schema.Col("a", schema.TypeInt), schema.Col("b", schema.TypeFloat)))
	for _, sql := range []string{
		"SELECT COUNT(*) AS n FROM e",
		"SELECT SUM(b) AS s FROM e",
		"SELECT a, COUNT(*) AS n FROM e GROUP BY a",
		"SELECT DISTINCT a FROM e",
		"SELECT * FROM e WHERE a > 0",
	} {
		serial, err := New(st).Query(context.Background(), sql)
		if err != nil {
			t.Fatalf("serial %q: %v", sql, err)
		}
		par, err := New(st).WithParallelism(4).Query(context.Background(), sql)
		if err != nil {
			t.Fatalf("parallel %q: %v", sql, err)
		}
		if !reflect.DeepEqual(serial.Rows, par.Rows) {
			t.Fatalf("%q: parallel rows %v != serial %v", sql, par.Rows, serial.Rows)
		}
	}
}

// TestParallelCancellationStopsScan: cancelling the context mid-stream
// stops the storage reads within one batch per worker (plus the bounded
// exchange look-ahead) — the bulk of a large table is never read.
func TestParallelCancellationStopsScan(t *testing.T) {
	const total = 50_000
	src := newCountingSource(benchStore(t, total))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	eng := New(src).WithParallelism(4)
	root := mustPlan(t, "SELECT * FROM d WHERE z < 100")
	_, it, err := eng.Open(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	if _, err := it.Next(); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	cancel()
	var last error
	for {
		b, err := it.Next()
		if err != nil {
			last = err
			break
		}
		if b == nil {
			break
		}
	}
	if !errors.Is(last, context.Canceled) {
		t.Fatalf("want context.Canceled after cancel, got %v", last)
	}
	// Bound: consumed batches + one in-flight batch per worker + the
	// exchange window, all in batch units — far below the full table.
	if n := src.scanned.Load(); n > 10_000 {
		t.Fatalf("scanned %d of %d rows after mid-stream cancel; reads did not stop", n, total)
	}
}

// TestParallelCancelBeforePull: a pipeline opened under an already
// cancelled context reads nothing at all from storage.
func TestParallelCancelBeforePull(t *testing.T) {
	src := newCountingSource(benchStore(t, 10_000))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, it, err := New(src).WithParallelism(4).Open(ctx, mustPlan(t, "SELECT * FROM d WHERE z < 1"))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if _, err := it.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := src.scanned.Load(); n != 0 {
		t.Fatalf("cancelled-before-pull pipeline read %d rows from storage", n)
	}
}

// TestParallelErrorPosition: the first error ends the stream at the same
// position — after the same rows — for every worker count,
// whether the source raises it mid-scan (after five batches) or a stage
// does (division by zero at t = 700, inside the third batch, which then
// yields no rows at all).
func TestParallelErrorPosition(t *testing.T) {
	errBoom := errors.New("boom")
	st := benchStore(t, 10_000)
	for _, workers := range []int{1, 2, 4} {
		src := failingSource(st, 5, errBoom)
		n, err := rowsBeforeError(t, New(src).WithParallelism(workers), "SELECT x + y AS s FROM d")
		if !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: want boom error, got %v", workers, err)
		}
		if want := 5 * schema.DefaultBatchSize; n != want {
			t.Fatalf("workers=%d: source error after %d rows, want %d", workers, n, want)
		}

		n, err = rowsBeforeError(t, New(st).WithParallelism(workers), "SELECT x, 1000 / (t - 700) AS q FROM d")
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("workers=%d: want division by zero, got %v", workers, err)
		}
		if want := 2 * schema.DefaultBatchSize; n != want {
			t.Fatalf("workers=%d: stage error after %d rows, want %d", workers, n, want)
		}
	}
}

// rowsBeforeError pulls a pipeline until it ends and returns how many rows
// it delivered and the error that ended it.
func rowsBeforeError(t *testing.T, eng *Engine, sql string) (int, error) {
	t.Helper()
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	_, it, err := eng.OpenSelect(context.Background(), sel)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	n := 0
	for {
		b, err := it.Next()
		if err != nil {
			return n, err
		}
		if b == nil {
			return n, nil
		}
		n += len(b)
	}
}

// failingSource fails every scan of st with err from its batch failAfter on.
func failingSource(st *storage.Store, failAfter int, err error) *storeTap {
	return &storeTap{Store: st, hook: func(seq int, _ *schema.ColBatch) error {
		if seq >= failAfter {
			return err
		}
		return nil
	}}
}

// TestParallelConcurrentOpens: one engine, one plan, many goroutines each
// opening and draining their own parallel pipeline — plans are read-only
// under Open, and pipelines must not share mutable state.
func TestParallelConcurrentOpens(t *testing.T) {
	st := benchStore(t, 5_000)
	eng := New(st).WithParallelism(3)
	root := mustPlan(t, "SELECT cell, COUNT(*) AS n FROM d WHERE z < 1 GROUP BY cell")
	want, err := eng.SelectPlan(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := eng.SelectPlan(context.Background(), root)
			if err != nil {
				errs[g] = err
				return
			}
			if !reflect.DeepEqual(res.Rows, want.Rows) {
				errs[g] = errors.New("rows differ across concurrent opens")
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestOneWorkerStartsNoGoroutine pins "exchange elided": a one-worker
// pipeline runs on its consumer's goroutine — the goroutine count never
// moves between open, every pull and close — over the whole equivalence
// corpus, on the store and on a capability-stripped source.
func TestOneWorkerStartsNoGoroutine(t *testing.T) {
	st := vecStore(t, false)
	// The previous test's runner goroutine may still be on its way out — at
	// GOMAXPROCS=1 it runs only once this one yields, which is wherever the
	// corpus first triggers a GC. Let the count settle before pinning it.
	for n := -1; n != runtime.NumGoroutine(); time.Sleep(10 * time.Millisecond) {
		n = runtime.NumGoroutine()
	}
	for _, src := range []Source{st, rowOnly{st}} {
		eng := New(src).WithParallelism(1)
		for _, q := range equivalenceQueries {
			sel, err := sqlparser.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			check := func(when string) {
				t.Helper()
				if n := runtime.NumGoroutine(); n != before {
					t.Fatalf("%q: %d goroutines %s, %d before open", q, n, when, before)
				}
			}
			_, it, err := eng.OpenSelect(context.Background(), sel)
			check("after open")
			if err != nil {
				continue // the corpus holds error cases; breakers raise them at open
			}
			for {
				b, err := it.Next()
				check("after a pull")
				if b == nil || err != nil {
					break
				}
			}
			it.Close()
			check("after close")
		}
	}
}
