package engine

import (
	"context"
	"errors"
	"testing"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
	"paradise/internal/storage"
)

// countingSource wraps a store and counts the rows its scans actually hand
// to the engine, so tests can assert how much a query pulled from storage.
type countingSource struct {
	st      *storage.Store
	scanned int
}

func (c *countingSource) Relation(name string) (*schema.Relation, schema.Rows, error) {
	return c.st.Relation(name)
}

func (c *countingSource) RelationSchema(name string) (*schema.Relation, error) {
	return c.st.RelationSchema(name)
}

func (c *countingSource) OpenScan(ctx context.Context, name string, sc schema.Scan) (schema.RowIterator, error) {
	it, err := c.st.OpenScan(ctx, name, sc)
	if err != nil {
		return nil, err
	}
	return &countingIter{src: it, n: &c.scanned}, nil
}

type countingIter struct {
	src schema.RowIterator
	n   *int
}

func (c *countingIter) Next() (schema.Rows, error) {
	b, err := c.src.Next()
	*c.n += len(b)
	return b, err
}

func (c *countingIter) Close() { c.src.Close() }

// TestLimitStopsScanEarly is the headline streaming property: a LIMIT-n
// query over a large base relation pulls only O(n + batch) rows from
// storage instead of scanning it fully.
func TestLimitStopsScanEarly(t *testing.T) {
	src := &countingSource{st: benchStore(t, 10_000)}
	res, err := New(src).Query(context.Background(), "SELECT x, y FROM d LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("want 10 rows, got %d", len(res.Rows))
	}
	if src.scanned > 2*schema.DefaultBatchSize {
		t.Fatalf("LIMIT 10 pulled %d rows from storage, want <= %d",
			src.scanned, 2*schema.DefaultBatchSize)
	}
}

// TestLimitStopsThroughSubquery: early termination propagates through a
// derived-table pipeline — the inner scan stops too.
func TestLimitStopsThroughSubquery(t *testing.T) {
	src := &countingSource{st: benchStore(t, 10_000)}
	res, err := New(src).Query(context.Background(), "SELECT s FROM (SELECT x + y AS s FROM d) LIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("want 7 rows, got %d", len(res.Rows))
	}
	if src.scanned > 2*schema.DefaultBatchSize {
		t.Fatalf("nested LIMIT 7 pulled %d rows from storage", src.scanned)
	}
}

// TestOrderByLimitSortsFully: ORDER BY is a pipeline breaker — the scan
// must read the whole relation and sort before LIMIT truncates, so the
// result is the true top-n, not the first n.
func TestOrderByLimitSortsFully(t *testing.T) {
	src := &countingSource{st: benchStore(t, 10_000)}
	res, err := New(src).Query(context.Background(), "SELECT x FROM d ORDER BY x DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if src.scanned != 10_000 {
		t.Fatalf("ORDER BY + LIMIT must scan everything, scanned %d of 10000", src.scanned)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][0].AsFloat() > res.Rows[i-1][0].AsFloat() {
			t.Fatalf("rows not sorted descending: %v after %v",
				res.Rows[i][0].Format(), res.Rows[i-1][0].Format())
		}
	}
	// Cross-check against the full sorted result.
	full, err := New(src.st).Query(context.Background(), "SELECT x FROM d ORDER BY x DESC")
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		if !res.Rows[i][0].Identical(full.Rows[i][0]) {
			t.Fatalf("row %d: limited %v != full-sort %v",
				i, res.Rows[i][0].Format(), full.Rows[i][0].Format())
		}
	}
}

// TestLimitWithFilterKeepsSemantics: a pushed-down predicate composes with
// streaming LIMIT — same rows as materialize-then-truncate, scanning less
// than the whole table when matches come early.
func TestLimitWithFilterKeepsSemantics(t *testing.T) {
	st := benchStore(t, 10_000)
	limited, err := New(st).Query(context.Background(), "SELECT x, z FROM d WHERE z < 1.9 LIMIT 20")
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(st).Query(context.Background(), "SELECT x, z FROM d WHERE z < 1.9")
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.Rows) != 20 {
		t.Fatalf("want 20 rows, got %d", len(limited.Rows))
	}
	for i, r := range limited.Rows {
		if !r[0].Identical(full.Rows[i][0]) || !r[1].Identical(full.Rows[i][1]) {
			t.Fatalf("row %d diverges from materialized baseline", i)
		}
	}
}

// TestProjectionPushdownIntoScan: a narrow projection over a wide table is
// applied inside the scan — the schema and values still match.
func TestProjectionPushdownIntoScan(t *testing.T) {
	st := benchStore(t, 100)
	res, err := New(st).Query(context.Background(), "SELECT cell FROM d WHERE t < 10")
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Arity() != 1 || res.Schema.Columns[0].Name != "cell" {
		t.Fatalf("schema = %s", res.Schema)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("want 10 rows, got %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if len(r) != 1 {
			t.Fatalf("projected row has %d values", len(r))
		}
	}
}

// TestCancelStopsScanWithinOneBatch is the streaming-cancellation property:
// cancelling the context mid-stream stops the storage scan within one
// batch, no matter how much of the relation remains.
func TestCancelStopsScanWithinOneBatch(t *testing.T) {
	src := &countingSource{st: benchStore(t, 10_000)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	sel, err := sqlparser.Parse("SELECT x, y FROM d")
	if err != nil {
		t.Fatal(err)
	}
	_, it, err := New(src).OpenSelect(ctx, sel)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	if _, err := it.Next(); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	cancel()
	if _, err := it.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel Next = %v, want context.Canceled", err)
	}
	if src.scanned > 2*schema.DefaultBatchSize {
		t.Fatalf("cancelled scan pulled %d rows from storage, want <= %d",
			src.scanned, 2*schema.DefaultBatchSize)
	}
}

// TestCancelStopsBreakerDrain: pipeline breakers (GROUP BY) drain their
// input through the same ctx-bound scans, so cancellation interrupts even
// the materializing paths mid-scan.
func TestCancelStopsBreakerDrain(t *testing.T) {
	src := &countingSource{st: benchStore(t, 10_000)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the breaker starts draining

	sel, err := sqlparser.Parse("SELECT x, AVG(z) FROM d GROUP BY x")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := New(src).OpenSelect(ctx, sel); !errors.Is(err, context.Canceled) {
		t.Fatalf("Open under cancelled ctx = %v, want context.Canceled", err)
	}
	if src.scanned > schema.DefaultBatchSize {
		t.Fatalf("cancelled breaker pulled %d rows from storage", src.scanned)
	}
}

// TestPipelineCloseIdempotent: closing an engine pipeline twice is safe,
// including the LIMIT iterator, which already closed its upstream eagerly
// when the limit was reached.
func TestPipelineCloseIdempotent(t *testing.T) {
	src := &countingSource{st: benchStore(t, 1_000)}
	sel, err := sqlparser.Parse("SELECT x, y FROM d LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	_, it, err := New(src).OpenSelect(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	it.Close()
	if b, err := it.Next(); b != nil || err != nil {
		t.Fatalf("Next after double Close = %v, %v; want nil, nil", b, err)
	}
}

// TestBreakerDrainSizeHint: the iterator a breaker drains over an unfiltered
// columnar scan knows its exact remaining row count — before the first pull
// and after each — so DrainIterator sizes its buffer once; a scan that
// filters gives no hint. 10 000 rows seal into segments, so the hint also
// crosses segment-aligned morsel boundaries.
func TestBreakerDrainSizeHint(t *testing.T) {
	const n = 10_000
	eng := New(benchStore(t, n))
	ctx := context.Background()

	seg, err := eng.openScanSeg(ctx, &plan.Scan{Table: "d"}, &plan.Block{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	it := seg.iterator()
	defer it.Close()
	left := n
	for {
		if got := it.(schema.SizeHinter).SizeHint(); got != left {
			t.Fatalf("hint %d with %d rows left", got, left)
		}
		b, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		left -= len(b)
	}
	if left != 0 {
		t.Fatalf("%d rows never arrived", left)
	}

	pred, err := sqlparser.ParseExpr("z < 1")
	if err != nil {
		t.Fatal(err)
	}
	seg, err = eng.openScanSeg(ctx, &plan.Scan{Table: "d", Predicate: pred}, &plan.Block{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	filtered := seg.iterator()
	defer filtered.Close()
	if got := filtered.(schema.SizeHinter).SizeHint(); got != 0 {
		t.Fatalf("a filtering scan hints %d rows, want no hint", got)
	}
}
