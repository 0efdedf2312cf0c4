package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
	"paradise/internal/storage"
)

// storeTap wraps a store's columnar faces — the only way the engine reads
// it — recording every scan request and passing every batch storage hands
// the engine through hook, so tests can pin, count or fail what a query
// pulls. seq is the batch's position in its scan (the morsel Seq under
// OpenColMorsels); hook runs on the pulling goroutine and must be safe for
// concurrent use; nil passes batches untouched.
type storeTap struct {
	*storage.Store
	hook func(seq int, cb *schema.ColBatch) error

	mu    sync.Mutex
	scans []tapScan
}

// tapScan is one recorded scan request.
type tapScan struct {
	table string
	sc    schema.ColScan
}

func (s *storeTap) record(name string, sc schema.ColScan) {
	s.mu.Lock()
	s.scans = append(s.scans, tapScan{table: name, sc: sc})
	s.mu.Unlock()
}

func (s *storeTap) OpenColScan(ctx context.Context, name string, sc schema.ColScan) (schema.ColIterator, error) {
	s.record(name, sc)
	ci, err := s.Store.OpenColScan(ctx, name, sc)
	if err != nil || s.hook == nil {
		return ci, err
	}
	return &tapIter{ColIterator: ci, hook: s.hook}, nil
}

func (s *storeTap) OpenColMorsels(ctx context.Context, name string, sc schema.ColScan) (schema.ColMorselSource, error) {
	s.record(name, sc)
	ms, err := s.Store.OpenColMorsels(ctx, name, sc)
	if err != nil || s.hook == nil {
		return ms, err
	}
	return &tapMorsels{ColMorselSource: ms, hook: s.hook}, nil
}

type tapIter struct {
	schema.ColIterator
	hook func(int, *schema.ColBatch) error
	seq  int
}

func (t *tapIter) NextBatch() (*schema.ColBatch, error) {
	cb, err := t.ColIterator.NextBatch()
	if err != nil || cb == nil {
		return cb, err
	}
	t.seq++
	if err := t.hook(t.seq-1, cb); err != nil {
		return nil, err
	}
	return cb, nil
}

type tapMorsels struct {
	schema.ColMorselSource
	hook func(int, *schema.ColBatch) error
}

func (t *tapMorsels) NextColMorsel() (schema.ColMorsel, error) {
	m, err := t.ColMorselSource.NextColMorsel()
	if err != nil || m.Batch == nil {
		return m, err
	}
	if err := t.hook(m.Seq, m.Batch); err != nil {
		return schema.ColMorsel{Seq: m.Seq}, err
	}
	return m, nil
}

// countingSource counts the rows storage hands the engine, so tests can
// assert how much a query pulled from it.
type countingSource struct {
	storeTap
	scanned atomic.Int64
}

func newCountingSource(st *storage.Store) *countingSource {
	c := &countingSource{storeTap: storeTap{Store: st}}
	c.hook = func(_ int, cb *schema.ColBatch) error {
		c.scanned.Add(int64(cb.Len()))
		return nil
	}
	return c
}

// TestLimitStopsScanEarly is the headline streaming property: a LIMIT-n
// query over a large base relation pulls only O(n + batch) rows from
// storage instead of scanning it fully.
func TestLimitStopsScanEarly(t *testing.T) {
	src := newCountingSource(benchStore(t, 10_000))
	res, err := New(src).Query(context.Background(), "SELECT x, y FROM d LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("want 10 rows, got %d", len(res.Rows))
	}
	if src.scanned.Load() > 2*schema.DefaultBatchSize {
		t.Fatalf("LIMIT 10 pulled %d rows from storage, want <= %d",
			src.scanned.Load(), 2*schema.DefaultBatchSize)
	}
}

// TestLimitStopsThroughSubquery: early termination propagates through a
// derived-table pipeline — the inner scan stops too.
func TestLimitStopsThroughSubquery(t *testing.T) {
	src := newCountingSource(benchStore(t, 10_000))
	res, err := New(src).Query(context.Background(), "SELECT s FROM (SELECT x + y AS s FROM d) LIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("want 7 rows, got %d", len(res.Rows))
	}
	if src.scanned.Load() > 2*schema.DefaultBatchSize {
		t.Fatalf("nested LIMIT 7 pulled %d rows from storage", src.scanned.Load())
	}
}

// TestOrderByLimitSortsFully: ORDER BY is a pipeline breaker — the scan
// must read the whole relation and sort before LIMIT truncates, so the
// result is the true top-n, not the first n.
func TestOrderByLimitSortsFully(t *testing.T) {
	src := newCountingSource(benchStore(t, 10_000))
	res, err := New(src).Query(context.Background(), "SELECT x FROM d ORDER BY x DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if src.scanned.Load() != 10_000 {
		t.Fatalf("ORDER BY + LIMIT must scan everything, scanned %d of 10000", src.scanned.Load())
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
	full, err := New(src.Store).Query(context.Background(), "SELECT x FROM d ORDER BY x DESC")
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
	src := newCountingSource(benchStore(t, 10_000))
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
	if src.scanned.Load() > 2*schema.DefaultBatchSize {
		t.Fatalf("cancelled scan pulled %d rows from storage, want <= %d",
			src.scanned.Load(), 2*schema.DefaultBatchSize)
	}
}

// TestCancelStopsBreakerDrain: pipeline breakers (GROUP BY) drain their
// input through the same ctx-bound scans, so cancellation interrupts even
// the materializing paths mid-scan.
func TestCancelStopsBreakerDrain(t *testing.T) {
	src := newCountingSource(benchStore(t, 10_000))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the breaker starts draining

	sel, err := sqlparser.Parse("SELECT x, AVG(z) FROM d GROUP BY x")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := New(src).OpenSelect(ctx, sel); !errors.Is(err, context.Canceled) {
		t.Fatalf("Open under cancelled ctx = %v, want context.Canceled", err)
	}
	if src.scanned.Load() > schema.DefaultBatchSize {
		t.Fatalf("cancelled breaker pulled %d rows from storage", src.scanned.Load())
	}
}

// TestPipelineCloseIdempotent: closing an engine pipeline twice is safe,
// including the LIMIT iterator, which already closed its upstream eagerly
// when the limit was reached.
func TestPipelineCloseIdempotent(t *testing.T) {
	src := newCountingSource(benchStore(t, 1_000))
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
