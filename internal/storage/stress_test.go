package storage

import (
	"context"
	"sync"
	"testing"

	"paradise/internal/schema"
)

// The morsel source is a single atomic cursor claimed by many goroutines;
// these stress tests hammer it under the race detector (CI runs the suite
// with -race -cpu 1,4) with more workers than morsels-per-claim, and verify
// the only property the exchange depends on: every row is claimed exactly
// once, with contiguous Seq numbering and no torn batches.

// TestScanMorselsStress claims row morsels, each batch pivoted on the
// claiming goroutine, so the pivot runs concurrently with the cursor.
func TestScanMorselsStress(t *testing.T) {
	const (
		n       = 50_000
		workers = 8
		batch   = 37 // deliberately not a divisor of n: last morsel is ragged
	)
	tab := morselStore(t, n)
	src := pivotMorsels{tab.ScanColMorsels(context.Background(), schema.ColScan{BatchSize: batch})}
	defer src.Close()

	var mu sync.Mutex
	claimed := make([]int, n) // row value -> times served
	seqs := make(map[int]int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m, err := src.NextMorsel()
				if err != nil {
					t.Error(err)
					return
				}
				if m.Rows == nil {
					return
				}
				mu.Lock()
				seqs[m.Seq]++
				for _, r := range m.Rows {
					claimed[r[0].AsInt()]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	for v, c := range claimed {
		if c != 1 {
			t.Fatalf("row %d served %d times, want exactly once", v, c)
		}
	}
	for s := 0; s < len(seqs); s++ {
		if seqs[s] != 1 {
			t.Fatalf("seq %d served %d times (want contiguous, exactly-once numbering)", s, seqs[s])
		}
	}
}

func TestScanColMorselsStress(t *testing.T) {
	const (
		n       = 50_000
		workers = 8
		batch   = 37
	)
	tab := morselStore(t, n)
	src := tab.ScanColMorsels(context.Background(), schema.ColScan{BatchSize: batch})
	defer src.Close()

	var mu sync.Mutex
	claimed := make([]int, n)
	seqs := make(map[int]int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m, err := src.NextColMorsel()
				if err != nil {
					t.Error(err)
					return
				}
				if m.Batch == nil {
					return
				}
				cb := m.Batch
				mu.Lock()
				seqs[m.Seq]++
				for i := 0; i < cb.N; i++ {
					claimed[cb.Vecs[0].Value(i).AsInt()]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	for v, c := range claimed {
		if c != 1 {
			t.Fatalf("row %d served %d times, want exactly once", v, c)
		}
	}
	for s := 0; s < len(seqs); s++ {
		if seqs[s] != 1 {
			t.Fatalf("seq %d served %d times (want contiguous, exactly-once numbering)", s, seqs[s])
		}
	}
}

// TestScanColMorselsConcurrentAppend interleaves appends with a concurrent
// columnar scan: the batches handed out are windows over append-only vectors,
// so an overlapping writer must never tear them, and the cursor snapshots
// the row count at open — exactly the rows present then are served, rows
// appended later never are.
func TestScanColMorselsConcurrentAppend(t *testing.T) {
	const n = 10_000
	tab := morselStore(t, n)
	src := tab.ScanColMorsels(context.Background(), schema.ColScan{BatchSize: 64})
	defer src.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			if err := tab.Append(schema.Row{schema.Int(int64(n + i))}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	seen := make(map[int64]int)
	for {
		m, err := src.NextColMorsel()
		if err != nil {
			t.Fatal(err)
		}
		if m.Batch == nil {
			break
		}
		for i := 0; i < m.Batch.N; i++ {
			v := m.Batch.Vecs[0].Value(i).AsInt()
			seen[v]++
			if seen[v] > 1 {
				t.Fatalf("row %d served twice", v)
			}
			if v >= n {
				t.Fatalf("row %d appended after open was served (cursor must snapshot)", v)
			}
		}
	}
	<-done
	for i := int64(0); i < n; i++ {
		if seen[i] != 1 {
			t.Fatalf("row %d present at scan start was not served", i)
		}
	}
}
