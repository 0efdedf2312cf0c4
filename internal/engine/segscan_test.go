package engine

import (
	"context"
	"testing"

	"paradise/internal/schema"
	"paradise/internal/storage"
)

// segStore is benchStore's segmented twin: the same deterministic corpus
// in a store that seals every segRows rows (t ascends with the row index,
// so segments carry disjoint t zone maps).
func segStore(t testing.TB, n, segRows int) *storage.Store {
	t.Helper()
	st, err := storage.NewStoreWith(storage.Config{SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	d, err := st.CreateTable(schema.NewRelation("d",
		schema.Col("x", schema.TypeFloat),
		schema.Col("y", schema.TypeFloat),
		schema.Col("z", schema.TypeFloat),
		schema.Col("t", schema.TypeInt),
		schema.Col("cell", schema.TypeInt),
	))
	if err != nil {
		t.Fatal(err)
	}
	rows := make(schema.Rows, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, schema.Row{
			schema.Float(float64(i % 8)),
			schema.Float(float64(i % 6)),
			schema.Float(0.5 + float64(i%30)/10),
			schema.Int(int64(i)),
			schema.Int(int64(i % 64)),
		})
	}
	if err := d.Append(rows...); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLimitStopsOpeningSegments extends the LIMIT early-termination
// property below the batch level: a satisfied limit must stop *opening*
// segments, not merely stop pulling rows — the opened counter stays O(1)
// while the table holds dozens of sealed segments.
func TestLimitStopsOpeningSegments(t *testing.T) {
	st := segStore(t, 10_000, 128) // 78 sealed segments + tail
	res, err := New(st).Query(context.Background(), "SELECT x, y FROM d LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("want 10 rows, got %d", len(res.Rows))
	}
	stats := st.StorageStats()
	if stats.Segments < 70 {
		t.Fatalf("store not segmented as expected: %d sealed segments", stats.Segments)
	}
	if stats.SegmentsOpened > 2 {
		t.Fatalf("LIMIT 10 opened %d segments, want <= 2 (of %d)", stats.SegmentsOpened, stats.Segments)
	}
}

// TestPruningSkipsSegmentsUnderSQL drives zone-map pruning end-to-end
// through SQL: a selective t-range predicate over the time-ordered corpus
// must skip (not open) every segment outside the range, and the result
// must equal the monolithic store's answer.
func TestPruningSkipsSegmentsUnderSQL(t *testing.T) {
	st := segStore(t, 10_000, 128)
	res, err := New(st).Query(context.Background(), "SELECT t FROM d WHERE t >= 9000 AND t < 9500")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 500 {
		t.Fatalf("want 500 rows, got %d", len(res.Rows))
	}
	for i, r := range res.Rows {
		if v := r[0].AsInt(); v != int64(9000+i) {
			t.Fatalf("row %d: t=%d, want %d", i, v, 9000+i)
		}
	}
	stats := st.StorageStats()
	if stats.SegmentsSkipped < 60 {
		t.Fatalf("selective range skipped only %d of %d segments", stats.SegmentsSkipped, stats.Segments)
	}
	if stats.SegmentsOpened > 8 {
		t.Fatalf("selective range opened %d segments", stats.SegmentsOpened)
	}

	// Reference: the monolithic store (never sealed, nothing to prune)
	// returns identical rows.
	mono := segStore(t, 10_000, 10_001)
	res2, err := New(mono).Query(context.Background(), "SELECT t FROM d WHERE t >= 9000 AND t < 9500")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != len(res.Rows) {
		t.Fatalf("pruning changed the row count: %d vs %d", len(res.Rows), len(res2.Rows))
	}
	for i := range res.Rows {
		if !res.Rows[i][0].Identical(res2.Rows[i][0]) {
			t.Fatalf("pruning changed row %d", i)
		}
	}
	if s := mono.StorageStats(); s.Segments != 0 || s.SegmentsSkipped != 0 {
		t.Fatalf("reference store sealed %d segments, skipped %d", s.Segments, s.SegmentsSkipped)
	}
}

// TestPushdownDeclineShapes pins which conjuncts become pruning hints: a
// kernelizable comparison ahead of a non-kernelizable expression is pushed
// down; behind one, it is not (error order would change). NULL tests push
// down; arithmetic never does.
func TestPushdownDeclineShapes(t *testing.T) {
	cases := []struct {
		sql  string
		want int // pushed-down conjunct count
	}{
		{"SELECT x FROM d WHERE t > 100", 1},
		{"SELECT x FROM d WHERE t > 100 AND x < 3", 2},
		{"SELECT x FROM d WHERE t > 100 AND x + y > 3", 1},
		{"SELECT x FROM d WHERE x + y > 3 AND t > 100", 0},
		{"SELECT x FROM d WHERE t IS NOT NULL AND t > 100", 2},
		{"SELECT x FROM d WHERE x < y", 1},
	}
	for _, tc := range cases {
		src := &storeTap{Store: segStore(t, 1_000, 128)}
		if _, err := New(src).Query(context.Background(), tc.sql); err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if len(src.scans) == 0 {
			t.Fatalf("%s: no scan opened", tc.sql)
		}
		if got := len(src.scans[0].sc.Predicate); got != tc.want {
			t.Fatalf("%s: pushed %d structured conjuncts, want %d", tc.sql, got, tc.want)
		}
	}
}
