package network

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"paradise/internal/engine"
	"paradise/internal/fragment"
	logical "paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
	"paradise/internal/storage"
)

// rowOnly hides every optional capability of a source, leaving Relation, so
// every stage over it compiles on the row path and ships rows.
type rowOnly struct{ src engine.Source }

func (r rowOnly) Relation(name string) (*schema.Relation, schema.Rows, error) {
	return r.src.Relation(name)
}

// TestRunStatsSameOverColumnarAndRowBoundaries: the Figure 3 quantities —
// placement, per-link traffic, egress, raw size, simulated time — and the
// result are the same whether stage outputs cross as column batches (the
// store) or as rows (the capability-stripped source), at any worker count.
// Only the recorded representation differs.
func TestRunStatsSameOverColumnarAndRowBoundaries(t *testing.T) {
	st := testStore(t, 1500)
	for _, q := range []string{
		"SELECT x, y FROM d WHERE x > y AND z < 2",
		"SELECT x, y, AVG(z) AS zavg FROM d WHERE x > y AND z < 2 GROUP BY x, y HAVING SUM(z) > 1",
		"SELECT x, y FROM d WHERE x > y ORDER BY x DESC, t LIMIT 3",
		"SELECT DISTINCT x FROM d WHERE z < 2",
		"SELECT s FROM (SELECT x + y AS s, z FROM d WHERE z < 1.5) LIMIT 2",
	} {
		plan := mustPlan(t, q)
		for _, workers := range []int{1, 2, 4} {
			col, err := Run(context.Background(), DefaultApartment(), plan, st, WithParallelism(workers))
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			row, err := Run(context.Background(), DefaultApartment(), plan, rowOnly{st}, WithParallelism(workers))
			if err != nil {
				t.Fatalf("%q over the row-only source: %v", q, err)
			}
			if !reflect.DeepEqual(col.Result.Rows, row.Result.Rows) {
				t.Fatalf("%q at %d workers: rows differ", q, workers)
			}
			if !col.Assignments[0].Columnar || row.Assignments[0].Declined != engine.DeclineRowSource {
				t.Fatalf("%q: stage 1 paths %q / %q, want columnar / rows: %s",
					q, col.Assignments[0].Path(), row.Assignments[0].Path(), engine.DeclineRowSource)
			}
			for i := range col.Assignments {
				col.Assignments[i].Columnar, col.Assignments[i].Declined = false, ""
				row.Assignments[i].Columnar, row.Assignments[i].Declined = false, ""
			}
			col.Result, row.Result = nil, nil
			if !reflect.DeepEqual(col, row) {
				t.Fatalf("%q at %d workers: RunStats differ:\ncolumnar boundaries:\n%srow boundaries:\n%s",
					q, workers, col.Summary(), row.Summary())
			}
		}
	}
}

// readingsStore builds a disk-backed, re-opened store holding one
// readings-shaped table of n rows in 4096-row segments — what a served
// corpus looks like: every scan pays open + CRC + decode.
func readingsStore(t testing.TB, n int) *storage.Store {
	t.Helper()
	dir := t.TempDir()
	open := func() *storage.Store {
		b, err := storage.NewDiskBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		st, err := storage.NewStoreWith(storage.Config{Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	tab, err := st.CreateTable(schema.NewRelation("readings",
		schema.Col("sensor_id", schema.TypeInt),
		schema.Col("t", schema.TypeInt),
		schema.Col("temperature", schema.TypeFloat),
		schema.Col("humidity", schema.TypeFloat),
		schema.Col("battery", schema.TypeFloat),
		schema.Col("status", schema.TypeString),
	))
	if err != nil {
		t.Fatal(err)
	}
	status := []string{"ok", "ok", "ok", "ok", "degraded", "calibrating"}
	rows := make(schema.Rows, 0, 1000)
	for i := 0; i < n; i++ {
		rows = append(rows, schema.Row{
			schema.Int(int64(i % 1000)), schema.Int(int64(i / 1000)),
			schema.Float(14 + float64(i%1200)/100), schema.Float(30 + float64(i%4000)/100),
			schema.Float(100 - float64(i%6000)/100), schema.String(status[i%len(status)]),
		})
		if len(rows) == cap(rows) {
			if err := tab.Append(rows...); err != nil {
				t.Fatal(err)
			}
			rows = rows[:0]
		}
	}
	if err := tab.Append(rows...); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return open()
}

// allocated reports the bytes run allocates (runtime.MemStats.TotalAlloc),
// after one unmeasured run that pays the one-off costs.
func allocated(t *testing.T, run func() error) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	for i := 0; i < 2; i++ {
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestChainAllocationBudget is the allocation budget of the fragment chain:
// a full-scan GROUP BY through network.Open may allocate at most four times
// what the same statement allocates as one optimized engine plan with one
// worker. The chain's first stage is SELECT *, so it decodes every column of
// the table where the engine plan decodes two — that is the headroom; a
// stage boundary that boxes its rows again (≈20x, measured before stages
// exchanged column batches) is far outside it.
func TestChainAllocationBudget(t *testing.T) {
	const budget = 4
	st := readingsStore(t, 50_000)
	sel, err := sqlparser.Parse("SELECT status, COUNT(*) AS n, AVG(temperature) AS avg_temp FROM readings GROUP BY status")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	groups := 0

	root, err := logical.FromAST(sel)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(st).WithParallelism(1)
	root = logical.Optimize(root, logical.Options{Catalog: eng.Catalog(), CrossBlock: true})
	direct := allocated(t, func() error {
		_, it, err := eng.Open(ctx, root)
		if err != nil {
			return err
		}
		rows, err := schema.DrainIterator(it)
		groups = len(rows)
		return err
	})

	plan, err := fragment.New().Fragment(sel)
	if err != nil {
		t.Fatal(err)
	}
	chain := allocated(t, func() error {
		stream, err := Open(ctx, DefaultApartment(), plan, st)
		if err != nil {
			return err
		}
		rows, err := schema.DrainIterator(stream)
		if err != nil {
			return err
		}
		if len(rows) != groups {
			return fmt.Errorf("chain returned %d groups, the engine plan %d", len(rows), groups)
		}
		_, err = stream.Stats()
		return err
	})

	t.Logf("engine plan %d bytes, chain %d bytes (%.1fx)", direct, chain, float64(chain)/float64(direct))
	if groups != 3 {
		t.Fatalf("%d groups, want 3", groups)
	}
	if chain > budget*direct {
		t.Fatalf("the chain allocated %d bytes, %.1fx the engine plan's %d; the budget is %dx",
			chain, float64(chain)/float64(direct), direct, budget)
	}
}

// TestStreamNeverMaterializesBase: 3-stage chains opened with Open — two
// the fragmenter builds, and one whose third stage joins a row-shipping
// GROUP BY stage with a base table — read the store through its columnar
// faces and size it through RelationStats, at one and four workers: not
// one Relation call.
func TestStreamNeverMaterializesBase(t *testing.T) {
	st := testStore(t, 1500)
	meta := st.Create(schema.NewRelation("meta",
		schema.Col("x", schema.TypeFloat),
		schema.Col("label", schema.TypeString),
	))
	for x := 1; x <= 17; x += 2 {
		if err := meta.Append(schema.Row{schema.Float(float64(x)), schema.String(fmt.Sprintf("m%d", x))}); err != nil {
			t.Fatal(err)
		}
	}
	joined := &fragment.Plan{}
	for i, q := range []string{
		"SELECT s.t, s.za, meta.label FROM (SELECT x, t, AVG(z) AS za FROM (SELECT * FROM d WHERE z < 2) AS d1 GROUP BY x, t) AS s JOIN meta ON s.x = meta.x",
		"SELECT * FROM d WHERE z < 2",
		"SELECT x, t, AVG(z) AS za FROM d1 GROUP BY x, t",
		"SELECT d2.t, d2.za, meta.label FROM d2 JOIN meta ON d2.x = meta.x",
	} {
		sel, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		root, err := logical.FromAST(sel)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			joined.Original, joined.Root = sel, root
			continue
		}
		f := &fragment.Fragment{Stage: i, MinLevel: fragment.LevelAppliance, Root: root, Query: sel,
			Output: fmt.Sprintf("d%d", i), Description: "stage"}
		if i > 1 {
			f.Input = joined.Fragments[i-2].Output
		}
		joined.Fragments = append(joined.Fragments, f)
	}
	plans := []*fragment.Plan{
		mustPlan(t, "SELECT x, y, AVG(z) AS zavg FROM d WHERE x > y AND z < 2 GROUP BY x, y HAVING SUM(z) > 1"),
		mustPlan(t, "SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) FROM (SELECT x, y, z, t FROM d)"),
		joined,
	}
	src := &relationCounter{Store: st}
	for _, plan := range plans {
		if len(plan.Fragments) != 3 {
			t.Fatalf("%s: %d stages, want 3", plan.Original.SQL(), len(plan.Fragments))
		}
		for _, workers := range []int{1, 4} {
			stream, err := Open(context.Background(), DefaultApartment(), plan, src, WithParallelism(workers))
			if err != nil {
				t.Fatal(err)
			}
			rows, err := schema.DrainIterator(stream)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := stream.Stats(); err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 {
				t.Fatalf("%s: empty result", plan.Original.SQL())
			}
			if n := src.calls.Load(); n != 0 {
				t.Fatalf("%s at %d workers: %d Relation calls, want 0", plan.Original.SQL(), workers, n)
			}
		}
	}
}
