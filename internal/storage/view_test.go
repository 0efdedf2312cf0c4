package storage

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"

	"paradise/internal/schema"
)

// viewStores returns the same 300-row corpus in 64-row segments three ways:
// in memory, on disk with a non-empty tail, and on disk recovered after a
// restart (every row sealed, sizes from the footers).
func viewStores(t *testing.T) map[string]*Store {
	t.Helper()
	rows := mixedRows(300, 5)
	mem, _ := fillTable(t, Config{SegmentRows: 64}, mixedRelation(), rows)
	b, err := NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tail, _ := fillTable(t, Config{SegmentRows: 64, Backend: b}, mixedRelation(), rows)
	dir := t.TempDir()
	diskStore(t, dir, rows)
	return map[string]*Store{"memory": mem, "disk with tail": tail, "recovered": reopen(t, dir)}
}

// TestViewSizeIsTheWholeTable: whatever columns a view serves, it reports
// the rows and full-width wire bytes of its snapshot — what a full scan's
// batches weigh — and serves exactly the rows a plain scan of those columns
// serves, through either face.
func TestViewSizeIsTheWholeTable(t *testing.T) {
	ctx := context.Background()
	for name, st := range viewStores(t) {
		tab, err := st.Table("mix")
		if err != nil {
			t.Fatal(err)
		}
		full := drainBatches(t, tab.ScanColumns(ctx, schema.ColScan{}))
		for _, cols := range [][]int{nil, {2}, {4, 0}} {
			sc := schema.ColScan{Columns: cols, BatchSize: 50}
			want := drainBatches(t, tab.ScanColumns(ctx, sc))

			v := tab.OpenView(ctx, sc)
			rows, wire := v.Size()
			if rows != len(full) || wire != full.WireSize() || wire != tab.WireSize() {
				t.Fatalf("%s %v: view sizes %d rows / %d bytes, want %d / %d", name, cols, rows, wire, len(full), full.WireSize())
			}
			rowsIdentical(t, name+" view scan", drainBatches(t, v.Scan()), want)
			if err := v.Verify(); err != nil {
				t.Fatalf("%s %v: Verify after a full read: %v", name, cols, err)
			}

			var got schema.Rows
			m := tab.OpenView(ctx, sc).Morsels()
			for {
				cm, err := m.NextColMorsel()
				if err != nil {
					t.Fatal(err)
				}
				if cm.Batch == nil {
					break
				}
				got = append(got, cm.Batch.Rows()...)
			}
			m.Close()
			rowsIdentical(t, name+" view morsels", got, want)
		}
	}
}

// flipColumn flips one byte inside column col's region of a segment file.
func flipColumn(t *testing.T, path string, col int) {
	t.Helper()
	footer, err := readFooter(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[footer.Cols[col].Off+footer.Cols[col].Len-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestViewChecksColumnsItDoesNotServe: a view serving column i of a segment
// whose column s rotted fails on that segment with the checksum error of a
// full-width read, where a plain scan of column i reads cleanly past it.
func TestViewChecksColumnsItDoesNotServe(t *testing.T) {
	dir := t.TempDir()
	diskStore(t, dir, mixedRows(300, 5))
	flipColumn(t, segFiles(t, dir)[1], 2)
	tab, err := reopen(t, dir).Table("mix")
	if err != nil {
		t.Fatal(err)
	}
	sc := schema.ColScan{Columns: []int{0}}
	if got := drainBatches(t, tab.ScanColumns(context.Background(), sc)); len(got) != 300 {
		t.Fatalf("plain scan of the intact column: %d rows", len(got))
	}
	it := tab.OpenView(context.Background(), sc).Scan()
	defer it.Close()
	rows := 0
	for {
		cb, err := it.NextBatch()
		if err != nil {
			if !errors.Is(err, errSegCorrupt) || !strings.Contains(err.Error(), `column "s" checksum mismatch`) {
				t.Fatalf("view scan error %v, want the checksum mismatch of column s", err)
			}
			break
		}
		if cb == nil {
			t.Fatal("the view served every row over a rotted column")
		}
		rows += cb.Len()
	}
	if rows != 64 {
		t.Fatalf("view served %d rows before the rotted segment, want 64", rows)
	}
}

// TestViewVerifyChecksUnreachedSegments: a consumer that stops in the first
// segment opens only that one; Verify then checksums every other segment
// without opening (decoding) it, and finds a rotted one.
func TestViewVerifyChecksUnreachedSegments(t *testing.T) {
	dir := t.TempDir()
	diskStore(t, dir, mixedRows(300, 5))
	for _, rot := range []bool{false, true} {
		if rot {
			flipColumn(t, segFiles(t, dir)[3], 0)
		}
		st := reopen(t, dir)
		tab, err := st.Table("mix")
		if err != nil {
			t.Fatal(err)
		}
		v := tab.OpenView(context.Background(), schema.ColScan{Columns: []int{1}, BatchSize: 5})
		it := v.Scan()
		if cb, err := it.NextBatch(); err != nil || cb.Len() != 5 {
			t.Fatalf("first pull: %v", err)
		}
		it.Close()
		err = v.Verify()
		switch {
		case !rot && err != nil:
			t.Fatalf("Verify over intact segments: %v", err)
		case rot && (err == nil || !strings.Contains(err.Error(), `column "i" checksum mismatch`)):
			t.Fatalf("Verify = %v, want the checksum mismatch of column i", err)
		}
		if opened := st.StorageStats().SegmentsOpened; opened != 1 {
			t.Fatalf("rot=%v: %d segments opened, want only the one the consumer read", rot, opened)
		}
	}
}

// TestViewVerifyHonoursCancellation: Verify stops at a cancelled context.
func TestViewVerifyHonoursCancellation(t *testing.T) {
	dir := t.TempDir()
	diskStore(t, dir, mixedRows(300, 5))
	tab, err := reopen(t, dir).Table("mix")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	v := tab.OpenView(ctx, schema.ColScan{})
	cancel()
	if err := v.Verify(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Verify = %v, want context.Canceled", err)
	}
}

// TestViewSizeMatchesItsRowsUnderAppends: with appends and seals racing,
// a view's reported size describes exactly the rows its scan serves — one
// snapshot for both.
func TestViewSizeMatchesItsRowsUnderAppends(t *testing.T) {
	st, err := NewStoreWith(Config{SegmentRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	tab := st.Create(schema.NewRelation("r", schema.Col("a", schema.TypeInt), schema.Col("b", schema.TypeInt)))
	row := schema.Row{schema.Int(1), schema.Int(2)}
	rowWire := row.WireSize()
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() { // 3,000 rows in appends of three: seals land between views
		defer wg.Done()
		defer close(done)
		for i := 0; i < 1000; i++ {
			if err := tab.Append(row, row, row); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		v := tab.OpenView(context.Background(), schema.ColScan{Columns: []int{1}, BatchSize: 7})
		rows, wire := v.Size()
		got := drainBatches(t, v.Scan())
		if len(got) != rows || wire != rows*rowWire {
			t.Fatalf("view sized %d rows / %d bytes, served %d rows (%d bytes a row)", rows, wire, len(got), rowWire)
		}
	}
	wg.Wait()
}
