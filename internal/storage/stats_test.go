package storage

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"paradise/internal/schema"
)

func statsRelation() *schema.Relation {
	return schema.NewRelation("m",
		schema.Col("f", schema.TypeFloat),
		schema.Col("i", schema.TypeInt),
		schema.Col("s", schema.TypeString),
	)
}

// TestStatsExactUnderAppend: below the sketch bound NDV is an exact
// distinct count, and min/max track the numeric extremes incrementally.
func TestStatsExactUnderAppend(t *testing.T) {
	tab := NewTable(statsRelation())
	for i := 0; i < 500; i++ {
		if err := tab.Append(schema.Row{
			schema.Float(float64(i % 10)),          // 10 distinct
			schema.Int(int64(i)),                   // 500 distinct
			schema.String(fmt.Sprintf("s%d", i%3)), // 3 distinct
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := tab.Stats()
	if st.Rows != 500 {
		t.Fatalf("rows = %d", st.Rows)
	}
	if st.Bytes != int64(tab.WireSize()) {
		t.Fatalf("bytes = %d, wire = %d", st.Bytes, tab.WireSize())
	}
	wantNDV := []int64{10, 500, 3}
	for i, want := range wantNDV {
		if st.Cols[i].NDV != want {
			t.Errorf("col %s NDV = %d, want %d", st.Cols[i].Name, st.Cols[i].NDV, want)
		}
	}
	f := st.Cols[0]
	if !f.HasRange || f.Min != 0 || f.Max != 9 {
		t.Errorf("f range = [%v, %v] (hasRange=%v), want [0, 9]", f.Min, f.Max, f.HasRange)
	}
	i := st.Cols[1]
	if !i.HasRange || i.Min != 0 || i.Max != 499 {
		t.Errorf("i range = [%v, %v], want [0, 499]", i.Min, i.Max)
	}
	if st.Cols[2].HasRange {
		t.Error("string column must not report a numeric range")
	}
}

// TestStatsNulls: NULLs count separately, never enter NDV or min/max.
func TestStatsNulls(t *testing.T) {
	tab := NewTable(statsRelation())
	_ = tab.Append(
		schema.Row{schema.Null(), schema.Int(1), schema.Null()},
		schema.Row{schema.Float(2), schema.Null(), schema.String("a")},
		schema.Row{schema.Null(), schema.Int(1), schema.String("a")},
	)
	st := tab.Stats()
	if st.Cols[0].Nulls != 2 || st.Cols[0].NDV != 1 {
		t.Errorf("f: nulls=%d ndv=%d, want 2/1", st.Cols[0].Nulls, st.Cols[0].NDV)
	}
	if st.Cols[0].Min != 2 || st.Cols[0].Max != 2 {
		t.Errorf("f range = [%v, %v], want [2, 2]", st.Cols[0].Min, st.Cols[0].Max)
	}
	if st.Cols[1].Nulls != 1 || st.Cols[1].NDV != 1 {
		t.Errorf("i: nulls=%d ndv=%d, want 1/1", st.Cols[1].Nulls, st.Cols[1].NDV)
	}
}

// TestStatsKMVEstimate: past the sketch bound the NDV estimate must stay
// within a modest relative error of the true distinct count.
func TestStatsKMVEstimate(t *testing.T) {
	rel := schema.NewRelation("big", schema.Col("v", schema.TypeInt))
	tab := NewTable(rel)
	const distinct = 20000
	rows := make(schema.Rows, 0, 256)
	for i := 0; i < distinct; i++ {
		rows = append(rows, schema.Row{schema.Int(int64(i))})
		if len(rows) == 256 {
			_ = tab.Append(rows...)
			rows = rows[:0]
		}
	}
	_ = tab.Append(rows...)
	ndv := tab.Stats().Cols[0].NDV
	lo, hi := int64(distinct*85/100), int64(distinct*115/100)
	if ndv < lo || ndv > hi {
		t.Fatalf("KMV NDV = %d, want within [%d, %d] of true %d", ndv, lo, hi, distinct)
	}
}

// TestStatsDuplicatesCapNDV: repeating the same values must not inflate
// the sketch.
func TestStatsDuplicatesCapNDV(t *testing.T) {
	rel := schema.NewRelation("dup", schema.Col("v", schema.TypeInt))
	tab := NewTable(rel)
	for round := 0; round < 50; round++ {
		for v := 0; v < 7; v++ {
			_ = tab.Append(schema.Row{schema.Int(int64(v))})
		}
	}
	if ndv := tab.Stats().Cols[0].NDV; ndv != 7 {
		t.Fatalf("NDV = %d, want exactly 7", ndv)
	}
}

// TestStatsTruncateResets: Truncate clears every accumulator with the rows.
func TestStatsTruncateResets(t *testing.T) {
	tab := NewTable(statsRelation())
	_ = tab.Append(schema.Row{schema.Float(5), schema.Int(7), schema.String("x")})
	tab.Truncate()
	st := tab.Stats()
	if st.Rows != 0 || st.Bytes != 0 {
		t.Fatalf("rows=%d bytes=%d after truncate", st.Rows, st.Bytes)
	}
	for _, c := range st.Cols {
		if c.NDV != 0 || c.Nulls != 0 || c.HasRange || c.Bytes != 0 {
			t.Fatalf("column %s not reset: %+v", c.Name, c)
		}
	}
	// The accumulators must keep working after a reset.
	_ = tab.Append(schema.Row{schema.Float(1), schema.Int(2), schema.String("y")})
	if st := tab.Stats(); st.Cols[0].NDV != 1 || st.Cols[0].Min != 1 {
		t.Fatalf("stats dead after truncate: %+v", st.Cols[0])
	}
}

// TestStatsEpochSemantics: appends refresh statistics without moving the
// schema epoch (prepared plans stay valid), while Create/Drop — DDL — bump
// it, exactly like the plan cache contract.
func TestStatsEpochSemantics(t *testing.T) {
	st := NewStore()
	tab := st.Create(statsRelation())
	e0 := st.Epoch()
	_ = tab.Append(schema.Row{schema.Float(1), schema.Int(2), schema.String("a")})
	if st.Epoch() != e0 {
		t.Fatal("Append must not bump the schema epoch")
	}
	ts, err := st.TableStats("m")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rows != 1 {
		t.Fatalf("rows = %d", ts.Rows)
	}
	st.Drop("m")
	if st.Epoch() == e0 {
		t.Fatal("Drop must bump the schema epoch")
	}
	if _, err := st.TableStats("m"); err == nil {
		t.Fatal("TableStats on a dropped table must fail")
	}
	// Re-creating starts from clean statistics under a new epoch.
	e1 := st.Epoch()
	st.Create(statsRelation())
	if st.Epoch() == e1 {
		t.Fatal("Create must bump the schema epoch")
	}
	ts, _ = st.TableStats("m")
	if ts.Rows != 0 || ts.Cols[0].NDV != 0 {
		t.Fatalf("re-created table must have fresh stats: %+v", ts)
	}
}

// TestStatsConcurrentAppendAndRead: writers appending while readers
// snapshot statistics must be race-free (run under -race in CI) and every
// snapshot must be internally consistent enough for estimation — NDV and
// row count never negative, NDV never above rows seen at any point.
func TestStatsConcurrentAppendAndRead(t *testing.T) {
	tab := NewTable(statsRelation())
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_ = tab.Append(schema.Row{
					schema.Float(float64(i)),
					schema.Int(int64(w*perWriter + i)),
					schema.String("s"),
				})
			}
		}(w)
	}
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := tab.Stats()
			if st.Rows < 0 {
				t.Error("negative row count")
				return
			}
			for _, c := range st.Cols {
				if c.NDV < 0 || c.NDV > st.Rows {
					t.Errorf("col %s NDV %d out of [0, %d]", c.Name, c.NDV, st.Rows)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	st := tab.Stats()
	if st.Rows != writers*perWriter {
		t.Fatalf("rows = %d, want %d", st.Rows, writers*perWriter)
	}
	if got := st.Cols[1].NDV; got != writers*perWriter {
		t.Fatalf("i NDV = %d, want %d (all distinct, below sketch bound)", got, writers*perWriter)
	}
}

// TestStatsHistogramMemoMatchesFreshMerge: Stats memoizes the merge of the
// sealed segments' histograms per column. Through append → seal → append
// (the range widening, then only the tail growing) → truncate → re-ingest →
// recover from disk, a snapshot served from the memo must equal, bucket for
// bucket, the one merged afresh; two concurrent readers share the memo
// race-free.
func TestStatsHistogramMemoMatchesFreshMerge(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store {
		b, err := NewDiskBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewStoreWith(Config{SegmentRows: 64, Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	check := func(step string, tab *Table, wantHist bool) {
		t.Helper()
		first := tab.Stats() // over whatever memo the steps before left
		var memoized [2]TableStats
		var wg sync.WaitGroup
		for r := range memoized {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				memoized[r] = tab.Stats()
			}(r)
		}
		wg.Wait()
		// The reference merges afresh behind the memo's back, so the memo
		// lives on from step to step as it does in a serving store.
		memo := tab.hists
		tab.hists = nil
		fresh := tab.Stats()
		tab.hists = memo
		for _, got := range append(memoized[:], first) {
			if !reflect.DeepEqual(got, fresh) {
				t.Fatalf("%s: memoized stats differ from the fresh merge:\n%+v\n%+v", step, got, fresh)
			}
		}
		if has := fresh.Cols[0].Hist != nil; has != wantHist {
			t.Fatalf("%s: histogram present = %v, want %v", step, has, wantHist)
		}
	}
	// Either way f spans [0, 144]; skewed, most of it sits low.
	appendRows := func(tab *Table, lo, hi int, skewed bool) {
		t.Helper()
		for i := lo; i < hi; i++ {
			f := schema.Float(float64(i%97) * 1.5)
			if skewed {
				f = schema.Float(float64((i%97)*(i%97)) / 64)
			}
			if i%13 == 0 {
				f = schema.Null()
			}
			if err := tab.Append(schema.Row{f, schema.Int(int64(i)), schema.String("s")}); err != nil {
				t.Fatal(err)
			}
		}
	}

	st := open()
	tab, err := st.CreateTable(statsRelation())
	if err != nil {
		t.Fatal(err)
	}
	check("empty", tab, false)
	appendRows(tab, 0, 40, false)
	check("tail only", tab, true)
	appendRows(tab, 40, 300, false) // four seals; column i's range grows with every row
	check("sealed + tail", tab, true)
	appendRows(tab, 300, 310, false) // same sealed prefix: i's range moved, f's did not
	check("tail grew", tab, true)
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	check("flushed", tab, true)
	tab.Truncate()
	check("truncated", tab, false)
	// As many segments as before, over the same range, holding other data:
	// only the invalidation tells this memo from the last.
	appendRows(tab, 1000, 1310, true)
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	check("re-ingested", tab, true)

	rec, err := open().Table("m")
	if err != nil {
		t.Fatal(err)
	}
	check("recovered", rec, true)
	if got, want := rec.Stats(), tab.Stats(); !reflect.DeepEqual(got.Cols[0].Hist, want.Cols[0].Hist) {
		t.Fatalf("recovered histogram differs from the one it was written from:\n%+v\n%+v", got.Cols[0].Hist, want.Cols[0].Hist)
	}
	appendRows(rec, 1310, 1340, true)
	check("recovered + tail", rec, true)
}
