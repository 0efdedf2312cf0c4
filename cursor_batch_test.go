package paradise_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	paradise "paradise"
)

// batchCorpus is statements whose final fragment compiles to kernels only
// (scan, filters, stars and plain columns), so their cursors are Columnar.
var batchCorpus = []string{
	"SELECT * FROM d",
	"SELECT x, y FROM d",
	"SELECT t, user, z FROM d WHERE z < 2",
	"SELECT * FROM d WHERE t >= 5000 AND t < 100000",
	"SELECT x, y FROM d WHERE x > y AND z < 2.5",
	"SELECT x FROM d WHERE t < 0", // empty
}

// drainBatches consumes a cursor through its columnar face, pivoting each
// batch for comparison with the row face.
func drainBatches(t *testing.T, cur *paradise.Cursor) paradise.Rows {
	t.Helper()
	var rows paradise.Rows
	for {
		b, err := cur.NextBatch()
		if err != nil {
			t.Fatalf("NextBatch: %v", err)
		}
		if b == nil {
			return rows
		}
		if b.Len() == 0 {
			t.Fatal("NextBatch delivered an empty batch")
		}
		rows = append(rows, b.Rows()...)
	}
}

// TestCursorBatchFaceMatchesRows: over in-memory and recovered on-disk
// stores, with 1, 2 and 4 workers, the columnar face of a cursor delivers
// the rows of the row face in the same order with the same Figure 3
// accounting — drained, and closed early.
func TestCursorBatchFaceMatchesRows(t *testing.T) {
	const n = 3000
	dir := t.TempDir()
	disk := fillConfiguredStore(t, n, paradise.StoreConfig{Dir: dir, SegmentRows: 256})
	if err := disk.Flush(); err != nil {
		t.Fatal(err)
	}
	recovered, err := paradise.NewStoreWith(paradise.StoreConfig{Dir: dir, SegmentRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	stores := []struct {
		name  string
		store *paradise.Store
	}{{"memory", testStore(t, n)}, {"disk", recovered}}

	ctx := context.Background()
	for _, st := range stores {
		for _, workers := range []int{1, 2, 4} {
			sess, err := paradise.Open(st.store, paradise.WithParallelism(workers))
			if err != nil {
				t.Fatal(err)
			}
			for _, sql := range batchCorpus {
				t.Run(fmt.Sprintf("%s/workers=%d/%s", st.name, workers, sql), func(t *testing.T) {
					open := func() *paradise.Cursor {
						cur, err := sess.Query(ctx, sql)
						if err != nil {
							t.Fatal(err)
						}
						if !cur.Columnar() {
							t.Fatal("cursor is not Columnar: the corpus statement tests nothing")
						}
						return cur
					}
					stats := func(cur *paradise.Cursor) *paradise.RunStats {
						s, err := cur.Stats()
						if err != nil {
							t.Fatal(err)
						}
						return s
					}

					byRow, byBatch := open(), open()
					wantRows, gotRows := drainCursor(t, byRow), drainBatches(t, byBatch)
					sameRows(t, gotRows, wantRows)
					sameStats(t, stats(byBatch), stats(byRow))
					if b, err := byBatch.NextBatch(); b != nil || err != nil {
						t.Fatalf("NextBatch after exhaustion = %v, %v", b, err)
					}

					// Closed after one pull: the chain drains and accounts
					// its whole output whichever face was being read.
					early := open()
					if _, err := early.NextBatch(); err != nil {
						t.Fatal(err)
					}
					if err := early.Close(); err != nil {
						t.Fatal(err)
					}
					sameStats(t, stats(early), stats(byRow))
				})
			}
		}
	}
}

// TestCursorBatchFaceCancellation: a cancelled context surfaces on the
// columnar face within one batch, as the returned error and as Err.
func TestCursorBatchFaceCancellation(t *testing.T) {
	sess, err := paradise.Open(testStore(t, 50_000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cur, err := sess.Query(ctx, "SELECT x, y, z FROM d")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if b, err := cur.NextBatch(); b == nil {
		t.Fatalf("first batch: %v", err)
	}
	cancel()
	b, err := cur.NextBatch()
	if b != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("NextBatch after cancel = %v, %v; want nil, context.Canceled", b, err)
	}
	if !errors.Is(cur.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", cur.Err())
	}
}

// TestCursorFacesDoNotMix: a cursor serves the face it was first pulled
// through. The other one — and NextBatch on a result that has no columnar
// face — fails the cursor with ErrUsage; Close still finalizes the stats.
func TestCursorFacesDoNotMix(t *testing.T) {
	store := testStore(t, 1000)
	sess, err := paradise.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	query := func(s *paradise.Session, sql string) *paradise.Cursor {
		cur, err := s.Query(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cur.Close() })
		return cur
	}
	usage := func(cur *paradise.Cursor) {
		t.Helper()
		if !errors.Is(cur.Err(), paradise.ErrUsage) {
			t.Fatalf("Err = %v, want ErrUsage", cur.Err())
		}
		if _, err := cur.Stats(); err != nil {
			t.Fatalf("Stats after a usage error: %v", err)
		}
	}

	rowsFirst := query(sess, "SELECT x, y FROM d")
	if !rowsFirst.Next() {
		t.Fatal(rowsFirst.Err())
	}
	if b, err := rowsFirst.NextBatch(); b != nil || !errors.Is(err, paradise.ErrUsage) {
		t.Fatalf("NextBatch after Next = %v, %v; want ErrUsage", b, err)
	}
	if rowsFirst.Next() {
		t.Fatal("Next succeeded on a failed cursor")
	}
	usage(rowsFirst)

	batchFirst := query(sess, "SELECT x, y FROM d")
	if b, err := batchFirst.NextBatch(); b == nil {
		t.Fatal(err)
	}
	if batchFirst.Next() {
		t.Fatal("Next after NextBatch succeeded")
	}
	usage(batchFirst)

	// A breaker as the final stage ships rows.
	grouped := query(sess, "SELECT x, COUNT(*) AS n FROM d GROUP BY x")
	if grouped.Columnar() {
		t.Fatal("a GROUP BY result claims a columnar face")
	}
	if b, err := grouped.NextBatch(); b != nil || !errors.Is(err, paradise.ErrUsage) {
		t.Fatalf("NextBatch on a row-only cursor = %v, %v; want ErrUsage", b, err)
	}
	usage(grouped)

	// The postprocessor needs rows, whatever the final stage compiled to.
	anon, err := paradise.Open(store, paradise.WithAnonymization(
		paradise.AnonConfig{Method: paradise.AnonMondrian, K: 5, QuasiIdentifiers: []string{"x", "y"}}))
	if err != nil {
		t.Fatal(err)
	}
	if cur := query(anon, "SELECT x, y FROM d"); cur.Columnar() {
		t.Fatal("an anonymizing session claims a columnar face")
	}
}
