package network

import (
	"context"
	"errors"
	"strings"
	"testing"

	"paradise/internal/fragment"
	logical "paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
	"paradise/internal/storage"
)

func testStore(t testing.TB, n int) *storage.Store {
	t.Helper()
	st := storage.NewStore()
	d := st.Create(schema.NewRelation("d",
		schema.Col("x", schema.TypeFloat),
		schema.Col("y", schema.TypeFloat),
		schema.Col("z", schema.TypeFloat),
		schema.Col("t", schema.TypeInt),
	))
	for i := 0; i < n; i++ {
		if err := d.Append(schema.Row{
			schema.Float(float64(i%17) + 1), schema.Float(float64(i % 5)),
			schema.Float(float64(i%30) / 10), schema.Int(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func mustPlan(t testing.TB, q string) *fragment.Plan {
	t.Helper()
	sel, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fragment.New().Fragment(sel)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestDefaultApartmentValid(t *testing.T) {
	if err := DefaultApartment().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyValidation(t *testing.T) {
	topo := DefaultApartment()
	topo.Links = topo.Links[:2]
	if err := topo.Validate(); !errors.Is(err, ErrNetwork) {
		t.Fatal("missing links should fail validation")
	}

	topo = DefaultApartment()
	topo.Nodes[4].Level = fragment.LevelPC
	if err := topo.Validate(); !errors.Is(err, ErrNetwork) {
		t.Fatal("non-cloud top should fail")
	}

	topo = DefaultApartment()
	topo.Nodes[1].Level = fragment.LevelCloud
	if err := topo.Validate(); !errors.Is(err, ErrNetwork) {
		t.Fatal("non-monotone levels should fail")
	}

	topo = DefaultApartment()
	topo.Links[0].BytesPerMs = 0
	if err := topo.Validate(); !errors.Is(err, ErrNetwork) {
		t.Fatal("zero bandwidth should fail")
	}
}

func TestRunMatchesDirectExecution(t *testing.T) {
	st := testStore(t, 500)
	q := "SELECT x, y, AVG(z) AS zavg FROM d WHERE x > y AND z < 2 GROUP BY x, y HAVING SUM(z) > 1"
	plan := mustPlan(t, q)
	stats, err := Run(context.Background(), DefaultApartment(), plan, st)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := fragment.Execute(context.Background(), plan, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Result.Rows) != len(exec.Result.Rows) {
		t.Fatalf("network run disagrees with plan execution: %d vs %d rows",
			len(stats.Result.Rows), len(exec.Result.Rows))
	}
}

func TestFragmentedEgressBeatsNaive(t *testing.T) {
	st := testStore(t, 2000)
	q := "SELECT x, y, AVG(z) AS zavg FROM d WHERE x > y AND z < 2 GROUP BY x, y HAVING SUM(z) > 1"
	plan := mustPlan(t, q)
	topo := DefaultApartment()

	frag, err := Run(context.Background(), topo, plan, st)
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := sqlparser.Parse(q)
	selRoot, err := logical.FromAST(sel)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := RunNaive(context.Background(), topo, selRoot, st)
	if err != nil {
		t.Fatal(err)
	}
	if frag.EgressBytes >= naive.EgressBytes {
		t.Fatalf("fragmentation should reduce egress: %d vs naive %d",
			frag.EgressBytes, naive.EgressBytes)
	}
	if frag.Reduction() <= 1 {
		t.Fatalf("reduction = %v", frag.Reduction())
	}
	// Both compute the same answer.
	if len(frag.Result.Rows) != len(naive.Result.Rows) {
		t.Fatalf("answers differ: %d vs %d rows", len(frag.Result.Rows), len(naive.Result.Rows))
	}
}

func TestAssignmentsRespectLevels(t *testing.T) {
	st := testStore(t, 300)
	q := `SELECT regr_intercept(y, x) OVER (PARTITION BY zavg ORDER BY t)
	      FROM (SELECT x, y, AVG(z) AS zavg, t FROM d
	            WHERE x > y AND z < 2 GROUP BY x, y HAVING SUM(z) > 0.1)`
	stats, err := Run(context.Background(), DefaultApartment(), mustPlan(t, q), st)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Assignments) != 4 {
		t.Fatalf("want 4 assignments, got %d", len(stats.Assignments))
	}
	// The paper's placement: sensor, appliance, media center, PC.
	wantNodes := []string{"sensor", "appliance", "mediacenter", "pc"}
	for i, a := range stats.Assignments {
		if a.Node.Name != wantNodes[i] {
			t.Fatalf("Q%d on %s, want %s\n%s", a.Fragment.Stage, a.Node.Name, wantNodes[i], stats.Summary())
		}
		if a.Node.Level < a.Fragment.MinLevel {
			t.Fatalf("Q%d below its capability level", a.Fragment.Stage)
		}
	}
}

func TestWeakNodeFallback(t *testing.T) {
	st := testStore(t, 1000)
	topo := DefaultApartment()
	// Cripple the appliance: it cannot hold the sensor output.
	topo.Nodes[1].MemRows = 10
	q := "SELECT x, y FROM d WHERE x > y"
	stats, err := Run(context.Background(), topo, mustPlan(t, q), st)
	if err != nil {
		t.Fatal(err)
	}
	// The projection fragment must have skipped the appliance.
	for _, a := range stats.Assignments {
		if a.Fragment.MinLevel == fragment.LevelAppliance && a.Node.Name == "appliance" {
			t.Fatalf("appliance should have been skipped:\n%s", stats.Summary())
		}
	}
	sawFallback := false
	for _, a := range stats.Assignments {
		if a.FellBack {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Fatalf("fallback not recorded:\n%s", stats.Summary())
	}
}

func TestTrafficAccounting(t *testing.T) {
	st := testStore(t, 400)
	stats, err := Run(context.Background(), DefaultApartment(), mustPlan(t, "SELECT x FROM d WHERE z < 1"), st)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Traffic) != 4 {
		t.Fatalf("4 links expected, got %d", len(stats.Traffic))
	}
	// Traffic must be monotonically non-increasing up the chain for a
	// filter+project query (each stage shrinks data).
	for i := 1; i < len(stats.Traffic); i++ {
		if stats.Traffic[i].Bytes > stats.Traffic[i-1].Bytes {
			t.Fatalf("traffic grows up the chain:\n%s", stats.Summary())
		}
	}
	if stats.EgressBytes != stats.Traffic[3].Bytes {
		t.Fatal("egress must equal last-link traffic")
	}
	if stats.SimTime <= 0 {
		t.Fatal("simulated time must be positive")
	}
	if !strings.Contains(stats.Summary(), "egress") {
		t.Fatal("summary should mention egress")
	}
}

func TestLargerTracesIncreaseReduction(t *testing.T) {
	q := "SELECT x, y, AVG(z) AS zavg FROM d WHERE x > y AND z < 2 GROUP BY x, y HAVING SUM(z) > 1"
	reduction := func(n int) float64 {
		st := testStore(t, n)
		stats, err := Run(context.Background(), DefaultApartment(), mustPlan(t, q), st)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Reduction()
	}
	small, large := reduction(200), reduction(5000)
	if large <= small {
		t.Fatalf("aggregation reduction should grow with trace size: %v -> %v", small, large)
	}
}

func TestRunNaiveShipsEverything(t *testing.T) {
	st := testStore(t, 100)
	sel, _ := sqlparser.Parse("SELECT x FROM d WHERE z < 0.1")
	selRoot, err := logical.FromAST(sel)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunNaive(context.Background(), DefaultApartment(), selRoot, st)
	if err != nil {
		t.Fatal(err)
	}
	_, rows, _ := st.Relation("d")
	if stats.EgressBytes != rows.WireSize() {
		t.Fatalf("naive egress %d != raw size %d", stats.EgressBytes, rows.WireSize())
	}
}

// relationCounter is a store that counts Relation calls — each one copies
// every row of a table.
type relationCounter struct {
	*storage.Store
	calls int
}

func (r *relationCounter) Relation(name string) (*schema.Relation, schema.Rows, error) {
	r.calls++
	return r.Store.Relation(name)
}

// TestRunNaiveSizesWithBaseStats: RunNaive sizes |d| with the same O(1)
// store statistics as Run — no base table is materialized to count it —
// and reports the same raw bytes.
func TestRunNaiveSizesWithBaseStats(t *testing.T) {
	const q = "SELECT x, AVG(z) AS za FROM d WHERE z < 2 GROUP BY x"
	src := &relationCounter{Store: testStore(t, 500)}
	sel, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	root, err := logical.FromAST(sel)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := RunNaive(context.Background(), DefaultApartment(), root, src)
	if err != nil {
		t.Fatal(err)
	}
	if src.calls != 0 {
		t.Fatalf("RunNaive called Relation %d times", src.calls)
	}
	frag, err := Run(context.Background(), DefaultApartment(), mustPlan(t, q), src)
	if err != nil {
		t.Fatal(err)
	}
	if naive.RawBytes != frag.RawBytes || naive.RawBytes == 0 {
		t.Fatalf("naive raw %d bytes, Run raw %d", naive.RawBytes, frag.RawBytes)
	}
	if naive.Traffic[0].Rows != 500 {
		t.Fatalf("naive ships %d rows over the first link, want 500", naive.Traffic[0].Rows)
	}
}
