package fragment

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"paradise/internal/engine"
	"paradise/internal/schema"
	"paradise/internal/storage"
)

// The view path is vacuous if the store stops serving views.
var _ viewScanner = (*storage.Store)(nil)

// TestSensorStageServedAsView pins when a chain serves its sensor stage as
// a view of the base table: exactly when the stage is SELECT * without a
// predicate, a later stage reads it, and the base can serve views. The
// stage then still reports a columnar path and the accounting of the row
// reference.
func TestSensorStageServedAsView(t *testing.T) {
	st := chainStores(t)["disk"]
	flaky := &flakyColSource{flakySource{st: st, after: 1 << 30}}
	cases := []struct {
		q    string
		src  engine.Source
		view bool
	}{
		{"SELECT x, y FROM d WHERE x > y", st, true},
		{"SELECT x, COUNT(*) AS n FROM d GROUP BY x", st, true},
		{"SELECT * FROM d WHERE z < 2", st, false},             // stage 1 filters
		{"SELECT * FROM d", st, false},                         // nothing consumes stage 1
		{"SELECT x, y FROM d WHERE x > y", flaky, false},       // the base serves no views
		{"SELECT x, y FROM d WHERE x > y", rowOnly{st}, false}, // nor does a row-only one
	}
	for _, c := range cases {
		plan := mustFragment(t, c.q)
		for _, workers := range []int{1, 4} {
			chain, err := OpenChain(context.Background(), plan, c.src, WithParallelism(workers))
			if err != nil {
				t.Fatal(err)
			}
			if got := chain.view != nil; got != c.view {
				t.Fatalf("%q over %T: view %v, want %v", c.q, c.src, got, c.view)
			}
			if _, err := schema.DrainIterator(chain.Iterator()); err != nil {
				t.Fatal(err)
			}
			if err := chain.Close(); err != nil {
				t.Fatal(err)
			}
			requireSameStages(t, c.q, chain.Stages(), materializedBaseline(t, plan, st))
			if c.view && chain.Stages()[0].Path() != "columnar" {
				t.Fatalf("%q: view stage reports %s", c.q, chain.Stages()[0].Path())
			}
		}
	}
}

// TestViewStageReadsOnlyTheConsumersColumns: under a view, storage decodes
// no column the next stage does not read, and a LIMIT above it decodes one
// segment of the seven — while stage 1 accounts the whole table.
func TestViewStageReadsOnlyTheConsumersColumns(t *testing.T) {
	st := chainStores(t)["disk"]
	plan := mustFragment(t, "SELECT y FROM d LIMIT 3")
	before := st.StorageStats().SegmentsOpened
	exec, err := Execute(context.Background(), plan, st)
	if err != nil {
		t.Fatal(err)
	}
	if opened := st.StorageStats().SegmentsOpened - before; opened != 1 {
		t.Fatalf("opened %d segments for three rows, want 1", opened)
	}
	requireSameStages(t, "LIMIT over a view", exec.Stages, materializedBaseline(t, plan, st))
}

// TestViewStageErrorsKeepTheirStage: a view stage's errors carry the sensor
// stage's attribution — here a table dropped before anyone opened the view,
// which leaves Close to open it.
func TestViewStageErrorsKeepTheirStage(t *testing.T) {
	st := chainStores(t)["big"]
	plan := mustFragment(t, "SELECT x, y FROM d WHERE x > y")
	st.Drop("d")
	view := &viewStage{f: plan.Fragments[0], ctx: context.Background(), base: st, table: "d"}
	view.close()
	if view.err == nil || !strings.HasPrefix(view.err.Error(), "fragment: stage 1 (sensor scan): ") {
		t.Fatalf("closing a view of a dropped table = %v, want a stage-1 error", view.err)
	}
}

// TestViewStageIsOneSnapshot: with appends and seals racing the query, the
// sensor stage accounts exactly the rows its consumer scanned — its rows
// and bytes come from the snapshot the consumer reads, not from a second
// look at the table.
func TestViewStageIsOneSnapshot(t *testing.T) {
	st, err := storage.NewStoreWith(storage.Config{SegmentRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	d := st.Create(schema.NewRelation("d",
		schema.Col("x", schema.TypeFloat),
		schema.Col("y", schema.TypeFloat),
		schema.Col("z", schema.TypeFloat),
		schema.Col("t", schema.TypeInt),
	))
	rng := rand.New(rand.NewSource(3))
	row := func() schema.Row { // every row weighs the same on the wire
		return schema.Row{schema.Float(rng.Float64()), schema.Float(1), schema.Float(2), schema.Int(3)}
	}
	rowWire := row().WireSize()
	rows := make(schema.Rows, 4000)
	for i := range rows {
		rows[i] = row()
	}
	plan := mustFragment(t, "SELECT x, y FROM d WHERE x < y") // x < 1 = y: every row passes

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < len(rows); i += 5 {
			if err := d.Append(rows[i : i+5]...); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for running, workers := true, 1; running; workers = 5 - workers { // 1, 4, 1, ...
		select {
		case <-done:
			running = false
		default:
		}
		exec, err := Execute(context.Background(), plan, st, WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		s1, scanned := exec.Stages[0], len(exec.Result.Rows)
		if s1.Rows != scanned || s1.Bytes != scanned*rowWire {
			t.Fatalf("%d workers: stage 1 accounts %d rows / %d bytes, its consumer scanned %d rows of %d bytes",
				workers, s1.Rows, s1.Bytes, scanned, rowWire)
		}
	}
	wg.Wait()
}
