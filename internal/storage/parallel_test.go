package storage

import (
	"context"
	"errors"
	"sync"
	"testing"

	"paradise/internal/schema"
)

func morselStore(t *testing.T, n int) *Table {
	t.Helper()
	st := NewStore()
	tab := st.Create(schema.NewRelation("m",
		schema.Col("i", schema.TypeInt)))
	rows := make(schema.Rows, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, schema.Row{schema.Int(int64(i))})
	}
	if err := tab.Append(rows...); err != nil {
		t.Fatal(err)
	}
	return tab
}

// pivotMorsels serves a columnar morsel source as row morsels, each batch
// pivoted on the claiming goroutine, so the partition tests read rows.
type pivotMorsels struct{ schema.ColMorselSource }

func (p pivotMorsels) NextMorsel() (schema.Morsel, error) {
	m, err := p.NextColMorsel()
	if err != nil || m.Batch == nil {
		return schema.Morsel{Seq: m.Seq}, err
	}
	return schema.Morsel{Seq: m.Seq, Rows: m.Batch.Rows()}, nil
}

// TestScanColMorselsPartition: concurrent workers pulling from one morsel
// source cover the table exactly once — every row served to exactly one
// worker, seqs contiguous.
func TestScanColMorselsPartition(t *testing.T) {
	const n = 1000
	tab := morselStore(t, n)
	src := pivotMorsels{tab.ScanColMorsels(context.Background(), schema.ColScan{BatchSize: 64})}

	var mu sync.Mutex
	got := make(map[int64]int)
	seqs := make(map[int]bool)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m, err := src.NextMorsel()
				if err != nil || m.Rows == nil {
					return
				}
				mu.Lock()
				seqs[m.Seq] = true
				for _, r := range m.Rows {
					got[r[0].AsInt()]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if len(got) != n {
		t.Fatalf("workers saw %d distinct rows, want %d", len(got), n)
	}
	for v, c := range got {
		if c != 1 {
			t.Fatalf("row %d served %d times", v, c)
		}
	}
	for s := 0; s < len(seqs); s++ {
		if !seqs[s] {
			t.Fatalf("seq %d missing (non-contiguous morsel numbering)", s)
		}
	}
}

// TestScanColMorselsCancellation: after ctx cancel, the shared cursor hands
// out no further morsels — an error is delivered exactly once and every
// other worker observes exhaustion.
func TestScanColMorselsCancellation(t *testing.T) {
	tab := morselStore(t, 10_000)
	ctx, cancel := context.WithCancel(context.Background())
	src := pivotMorsels{tab.ScanColMorsels(ctx, schema.ColScan{BatchSize: 256})}

	if m, err := src.NextMorsel(); err != nil || len(m.Rows) != 256 {
		t.Fatalf("first morsel: rows=%d err=%v", len(m.Rows), err)
	}
	cancel()

	var errCount, doneCount int
	for i := 0; i < 4; i++ {
		m, err := src.NextMorsel()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			errCount++
			continue
		}
		if m.Rows != nil {
			t.Fatalf("morsel served after cancel")
		}
		doneCount++
	}
	if errCount != 1 || doneCount != 3 {
		t.Fatalf("want exactly one error delivery then exhaustion, got %d errors / %d done", errCount, doneCount)
	}
}
