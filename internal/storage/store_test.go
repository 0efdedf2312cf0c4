package storage

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"paradise/internal/schema"
)

func sampleRelation() *schema.Relation {
	return schema.NewRelation("d",
		schema.Col("x", schema.TypeFloat),
		schema.Col("n", schema.TypeInt),
		schema.Col("s", schema.TypeString),
	)
}

func TestTableAppendAndSnapshot(t *testing.T) {
	tab := NewTable(sampleRelation())
	if err := tab.Append(
		schema.Row{schema.Float(1), schema.Int(2), schema.String("a")},
		schema.Row{schema.Float(3), schema.Int(4), schema.String("b")},
	); err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Fatalf("len = %d", tab.Len())
	}
	snap, err := tab.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(schema.Row{schema.Float(5), schema.Int(6), schema.String("c")}); err != nil {
		t.Fatal(err)
	}
	if len(snap) != 2 {
		t.Fatal("snapshot must be stable after later appends")
	}
}

func TestTableArityValidation(t *testing.T) {
	tab := NewTable(sampleRelation())
	err := tab.Append(schema.Row{schema.Float(1)})
	if !errors.Is(err, ErrArity) {
		t.Fatalf("want ErrArity, got %v", err)
	}
}

func TestTruncate(t *testing.T) {
	tab := NewTable(sampleRelation())
	_ = tab.Append(schema.Row{schema.Float(1), schema.Int(2), schema.String("a")})
	tab.Truncate()
	if tab.Len() != 0 {
		t.Fatal("truncate should empty the table")
	}
}

func TestStoreLookup(t *testing.T) {
	st := NewStore()
	st.Create(sampleRelation())
	if _, err := st.Table("D"); err != nil {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, err := st.Table("nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("want ErrNoTable, got %v", err)
	}
	rel, rows, err := st.Relation("d")
	if err != nil || rel.Name != "d" || len(rows) != 0 {
		t.Fatalf("Relation: %v %v %v", rel, rows, err)
	}
	names := st.Names()
	if len(names) != 1 || names[0] != "d" {
		t.Fatalf("Names = %v", names)
	}
	cat := st.Catalog()
	if _, ok := cat.Lookup("d"); !ok {
		t.Fatal("catalog missing d")
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	tab := NewTable(sampleRelation())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = tab.Append(schema.Row{schema.Float(1), schema.Int(2), schema.String("x")})
				if _, err := tab.Snapshot(); err != nil {
					t.Error(err)
					return
				}
				_ = tab.Len()
			}
		}()
	}
	wg.Wait()
	if tab.Len() != 800 {
		t.Fatalf("len = %d, want 800", tab.Len())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	rel := sampleRelation()
	rows := schema.Rows{
		{schema.Float(1.5), schema.Int(7), schema.String("hello")},
		{schema.Null(), schema.Int(-2), schema.String("with,comma")},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rel, rows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("rows = %d", len(got))
	}
	if !got[0][0].Identical(rows[0][0]) || !got[1][2].Identical(rows[1][2]) {
		t.Fatal("values corrupted in round trip")
	}
	if !got[1][0].IsNull() {
		t.Fatal("NULL not preserved")
	}
}

func TestCSVHeaderValidation(t *testing.T) {
	rel := sampleRelation()
	if _, err := ReadCSV(strings.NewReader("x,n\n1,2\n"), rel); err == nil {
		t.Fatal("short header should error")
	}
	if _, err := ReadCSV(strings.NewReader("x,n,wrong\n1,2,a\n"), rel); err == nil {
		t.Fatal("wrong header name should error")
	}
	if _, err := ReadCSV(strings.NewReader("x,n,s\nnotanumber,2,a\n"), rel); err == nil {
		t.Fatal("bad value should error")
	}
}

func TestWireSize(t *testing.T) {
	tab := NewTable(sampleRelation())
	_ = tab.Append(schema.Row{schema.Float(1), schema.Int(2), schema.String("abc")})
	if tab.WireSize() == 0 {
		t.Fatal("non-empty table should have wire size")
	}
}

func scanTable(t *testing.T, n int) *Table {
	t.Helper()
	return scanTableWith(t, n, Config{})
}

// scanTableWith is scanTable over a configured table: row i holds x = i,
// n = i, s = "r".
func scanTableWith(t *testing.T, n int, cfg Config) *Table {
	t.Helper()
	tab := newTableWith(sampleRelation(), cfg)
	for i := 0; i < n; i++ {
		if err := tab.Append(schema.Row{
			schema.Float(float64(i)), schema.Int(int64(i)), schema.String("r"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// pivotIter reads a columnar scan the way the row tests want it: each pull
// pivots one batch to rows.
type pivotIter struct{ schema.ColIterator }

func (p pivotIter) Next() (schema.Rows, error) {
	cb, err := p.NextBatch()
	if err != nil || cb == nil {
		return nil, err
	}
	return cb.Rows(), nil
}

// pivotScan opens tab.ScanColumns as a row iterator.
func pivotScan(ctx context.Context, tab *Table, sc schema.ColScan) schema.RowIterator {
	return pivotIter{tab.ScanColumns(ctx, sc)}
}

func TestTableScanBatches(t *testing.T) {
	tab := scanTable(t, 10)
	it := pivotScan(context.Background(), tab, schema.ColScan{BatchSize: 4})
	var sizes []int
	total := 0
	for {
		b, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		sizes = append(sizes, len(b))
		total += len(b)
	}
	if total != 10 || len(sizes) != 3 || sizes[0] != 4 || sizes[2] != 2 {
		t.Fatalf("batches = %v", sizes)
	}
}

// TestTableScanFilterAndProjection: a scan's structured predicate skips the
// segments whose zone maps prove it false, and its projection keeps only the
// requested column. x ascends, so x < 10 admits the first 10-row segment
// alone.
func TestTableScanFilterAndProjection(t *testing.T) {
	tab := scanTableWith(t, 100, Config{SegmentRows: 10})
	it := pivotScan(context.Background(), tab, schema.ColScan{
		Columns:   []int{1},
		Predicate: []schema.ColPred{{Col: 0, RCol: -1, Op: schema.PredLt, Lit: schema.Float(10)}},
		BatchSize: 7,
	})
	rows, err := schema.DrainIterator(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("filter should keep 10 rows, got %d", len(rows))
	}
	for i, r := range rows {
		if len(r) != 1 {
			t.Fatalf("projection should keep 1 column, got %d", len(r))
		}
		if r[0].AsInt() != int64(i) {
			t.Fatalf("row %d = %v", i, r[0].Format())
		}
	}
}

func TestTableScanStopsEarly(t *testing.T) {
	tab := scanTable(t, 1000)
	it := pivotScan(context.Background(), tab, schema.ColScan{BatchSize: 16})
	b, err := it.Next()
	if err != nil || len(b) != 16 {
		t.Fatalf("first batch: %d rows, err %v", len(b), err)
	}
	it.Close()
	if b2, err := it.Next(); err != nil || b2 != nil {
		t.Fatalf("closed scan must be exhausted, got %d rows, err %v", len(b2), err)
	}
}

func TestTableScanSeesConcurrentAppendsSafely(t *testing.T) {
	tab := scanTable(t, 50)
	it := tab.ScanColumns(context.Background(), schema.ColScan{BatchSize: 8})
	first, err := it.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	want := first.Rows()
	// Appends (and even a truncate) must not corrupt an already-returned
	// batch: its vectors are windows over storage.
	_ = tab.Append(schema.Row{schema.Float(999), schema.Int(999), schema.String("late")})
	tab.Truncate()
	got := first.Rows()
	if len(got) != len(want) {
		t.Fatalf("returned batch changed length: %d -> %d", len(want), len(got))
	}
	for i := range want {
		for c := range want[i] {
			if !got[i][c].Identical(want[i][c]) {
				t.Fatalf("returned batch corrupted by concurrent mutation at row %d col %d", i, c)
			}
		}
	}
	// The scan terminates cleanly against the truncated table.
	for {
		b, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
	}
}

// TestScanHonoursContext: a cancelled context stops a table scan within
// one batch — the bottom of the streaming-cancellation vertical.
func TestScanHonoursContext(t *testing.T) {
	tab := NewTable(schema.NewRelation("s", schema.Col("v", schema.TypeInt)))
	for i := 0; i < 3*schema.DefaultBatchSize; i++ {
		if err := tab.Append(schema.Row{schema.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	it := pivotScan(ctx, tab, schema.ColScan{})
	defer it.Close()

	b, err := it.Next()
	if err != nil || len(b) != schema.DefaultBatchSize {
		t.Fatalf("first batch: %d rows, err %v", len(b), err)
	}
	cancel()
	if _, err := it.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel Next = %v, want context.Canceled", err)
	}
}

// TestScanCloseIdempotent: closing a scan twice is safe and final.
func TestScanCloseIdempotent(t *testing.T) {
	tab := NewTable(schema.NewRelation("s", schema.Col("v", schema.TypeInt)))
	for i := 0; i < 10; i++ {
		if err := tab.Append(schema.Row{schema.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	it := pivotScan(context.Background(), tab, schema.ColScan{})
	it.Close()
	it.Close()
	if b, err := it.Next(); b != nil || err != nil {
		t.Fatalf("Next after double Close = %v, %v; want nil, nil", b, err)
	}
}

// TestSchemaEpoch: every DDL operation bumps the epoch exactly once;
// data-path operations (Append, Truncate, scans) never do. Plan caches key
// by the epoch, so these are the exact invalidation rules.
func TestSchemaEpoch(t *testing.T) {
	s := NewStore()
	if s.Epoch() != 0 {
		t.Fatalf("fresh store epoch = %d, want 0", s.Epoch())
	}
	tab := s.Create(schema.NewRelation("e", schema.Col("v", schema.TypeInt)))
	if s.Epoch() != 1 {
		t.Fatalf("after Create epoch = %d, want 1", s.Epoch())
	}
	if err := tab.Append(schema.Row{schema.Int(1)}); err != nil {
		t.Fatal(err)
	}
	tab.Truncate()
	it := tab.ScanColumns(context.Background(), schema.ColScan{})
	if _, err := it.NextBatch(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if s.Epoch() != 1 {
		t.Fatalf("data ops moved the epoch to %d, want 1", s.Epoch())
	}
	s.Put(NewTable(schema.NewRelation("f", schema.Col("w", schema.TypeFloat))))
	if s.Epoch() != 2 {
		t.Fatalf("after Put epoch = %d, want 2", s.Epoch())
	}
	s.Drop("missing") // no-op: nothing removed, nothing invalidated
	if s.Epoch() != 2 {
		t.Fatalf("no-op Drop moved the epoch to %d, want 2", s.Epoch())
	}
	s.Drop("F")
	if s.Epoch() != 3 {
		t.Fatalf("after Drop epoch = %d, want 3", s.Epoch())
	}
	if _, err := s.Table("f"); err == nil {
		t.Fatal("dropped table still resolvable")
	}
}
