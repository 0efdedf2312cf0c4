package fragment

import (
	"context"
	"math"
	"strings"
	"testing"

	"paradise/internal/engine"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
	"paradise/internal/storage"
)

func testStore(t testing.TB) *storage.Store {
	t.Helper()
	st := storage.NewStore()
	d := st.Create(schema.NewRelation("d",
		schema.Col("x", schema.TypeFloat),
		schema.Col("y", schema.TypeFloat),
		schema.Col("z", schema.TypeFloat),
		schema.Col("t", schema.TypeInt),
	))
	vals := []struct{ x, y, z float64 }{
		{5, 1, 1.5}, {6, 2, 1.0}, {7, 3, 0.5}, {2, 4, 1.9},
		{8, 1, 3.0}, {9, 2, 1.2}, {3, 9, 0.8}, {10, 4, 1.1},
		{5, 1, 1.7}, {6, 2, 0.9}, {5, 1, 1.8}, {6, 2, 1.1},
	}
	for i, v := range vals {
		if err := d.Append(schema.Row{
			schema.Float(v.x), schema.Float(v.y), schema.Float(v.z), schema.Int(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	other := st.Create(schema.NewRelation("meta",
		schema.Col("x", schema.TypeFloat),
		schema.Col("label", schema.TypeString),
	))
	for _, m := range []struct {
		x float64
		l string
	}{{5, "a"}, {6, "b"}, {7, "c"}} {
		if err := other.Append(schema.Row{schema.Float(m.x), schema.String(m.l)}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func mustFragment(t testing.TB, q string) *Plan {
	t.Helper()
	sel, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := New().Fragment(sel)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// equivalent asserts fragmented and monolithic execution agree.
func equivalent(t *testing.T, st *storage.Store, q string) *Execution {
	t.Helper()
	plan := mustFragment(t, q)
	exec, err := Execute(context.Background(), plan, st)
	if err != nil {
		t.Fatalf("execute plan for %q: %v\nplan:\n%s", q, err, plan)
	}
	want, err := engine.New(st).Query(context.Background(), q)
	if err != nil {
		t.Fatalf("monolithic %q: %v", q, err)
	}
	if len(exec.Result.Rows) != len(want.Rows) {
		t.Fatalf("row count mismatch for %q: plan %d vs direct %d\nplan:\n%s",
			q, len(exec.Result.Rows), len(want.Rows), plan)
	}
	// Compare as multisets of formatted rows (fragmented execution may
	// reorder rows when the query has no ORDER BY).
	count := map[string]int{}
	for _, r := range want.Rows {
		count[fmtRow(r)]++
	}
	for _, r := range exec.Result.Rows {
		count[fmtRow(r)]--
	}
	for k, v := range count {
		if v != 0 {
			t.Fatalf("row multiset mismatch for %q at %q (delta %d)", q, k, v)
		}
	}
	return exec
}

func fmtRow(r schema.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		if v.Type() == schema.TypeFloat {
			parts[i] = schema.Float(math.Round(v.AsFloat()*1e9) / 1e9).Format()
		} else {
			parts[i] = v.Format()
		}
	}
	return strings.Join(parts, "|")
}

func TestPaperUseCaseFragmentation(t *testing.T) {
	// The rewritten §4.2 query fragments into the paper's staged pushdown:
	// sensor (z<2), appliance (x>y + projection), media center (GROUP
	// BY/HAVING), local server (window).
	q := `SELECT regr_intercept(y, x) OVER (PARTITION BY zavg ORDER BY t)
	      FROM (SELECT x, y, AVG(z) AS zavg, t FROM d
	            WHERE x > y AND z < 2 GROUP BY x, y HAVING SUM(z) > 0.5)`
	plan := mustFragment(t, q)

	if len(plan.Fragments) != 4 {
		t.Fatalf("want 4 fragments, got %d:\n%s", len(plan.Fragments), plan)
	}

	f1 := plan.Fragments[0]
	if f1.MinLevel != LevelSensor {
		t.Fatalf("stage 1 at %s", f1.MinLevel)
	}
	if got := f1.SQL(); got != "SELECT * FROM d WHERE z < 2" {
		t.Fatalf("sensor fragment = %q", got)
	}

	f2 := plan.Fragments[1]
	if f2.MinLevel != LevelAppliance {
		t.Fatalf("stage 2 at %s", f2.MinLevel)
	}
	if !strings.Contains(f2.SQL(), "WHERE x > y") {
		t.Fatalf("appliance fragment = %q", f2.SQL())
	}
	if strings.Contains(f2.SQL(), "GROUP BY") {
		t.Fatalf("aggregation leaked into stage 2: %q", f2.SQL())
	}

	f3 := plan.Fragments[2]
	if f3.MinLevel != LevelAppliance {
		t.Fatalf("stage 3 at %s", f3.MinLevel)
	}
	if !strings.Contains(f3.SQL(), "GROUP BY x, y") || !strings.Contains(f3.SQL(), "HAVING") {
		t.Fatalf("media-center fragment = %q", f3.SQL())
	}

	f4 := plan.Fragments[3]
	if f4.MinLevel != LevelPC {
		t.Fatalf("stage 4 at %s", f4.MinLevel)
	}
	if !strings.Contains(f4.SQL(), "OVER (PARTITION BY zavg ORDER BY t)") {
		t.Fatalf("local-server fragment = %q", f4.SQL())
	}

	// Chain naming d1, d2, d3 per the paper.
	if f2.Input != "d1" || f3.Input != "d2" || f4.Input != "d3" {
		t.Fatalf("chain inputs: %s %s %s", f2.Input, f3.Input, f4.Input)
	}
}

// equivalenceCorpus is the fixed set of statements every chain-equivalence
// suite runs: each fragment shape the fragmenter produces, over testStore.
var equivalenceCorpus = []string{
	"SELECT * FROM d",
	"SELECT * FROM d WHERE z < 2",
	"SELECT x, y FROM d WHERE x > y",
	"SELECT x, y FROM d WHERE x > y AND z < 2",
	"SELECT x, y, AVG(z) AS zavg FROM d WHERE x > y AND z < 2 GROUP BY x, y HAVING SUM(z) > 1",
	"SELECT x + y AS s, z FROM d WHERE z < 1.5",
	"SELECT COUNT(*) FROM d",
	"SELECT x, COUNT(*) AS n FROM d GROUP BY x",
	"SELECT s FROM (SELECT x + y AS s FROM d WHERE z < 2) WHERE s > 8",
	"SELECT AVG(s) FROM (SELECT x + y AS s, z FROM d) WHERE z < 2",
	"SELECT x, y FROM d WHERE x > y ORDER BY x DESC LIMIT 3",
	"SELECT DISTINCT x FROM d WHERE z < 2",
	"SELECT zavg FROM (SELECT x, y, AVG(z) AS zavg FROM d GROUP BY x, y) WHERE zavg > 1",
	"SELECT regr_intercept(y, x) OVER (PARTITION BY zavg ORDER BY t) FROM (SELECT x, y, AVG(z) AS zavg, t FROM d WHERE x > y AND z < 2 GROUP BY x, y HAVING SUM(z) > 0.5)",
	"SELECT MIN(t), MAX(t) FROM d WHERE z < 2",
	// ORDER BY on an output alias must not leak into the projection
	// stage (regression: the meeting-room power-socket query).
	"SELECT x, MAX(z) AS peak FROM d GROUP BY x ORDER BY peak DESC LIMIT 3",
	"SELECT x, AVG(z) AS za FROM d WHERE z < 2 GROUP BY x ORDER BY za, x",
}

func TestFragmentEquivalence(t *testing.T) {
	st := testStore(t)
	for _, q := range equivalenceCorpus {
		t.Run(q, func(t *testing.T) { equivalent(t, st, q) })
	}
}

func TestJoinFragmentation(t *testing.T) {
	st := testStore(t)
	exec := equivalent(t, st, "SELECT d.x, meta.label FROM d JOIN meta ON d.x = meta.x WHERE d.z < 2")
	if exec.Stages[0].Fragment.MinLevel != LevelAppliance {
		t.Fatalf("join stage should need an appliance, got %s", exec.Stages[0].Fragment.MinLevel)
	}
}

func TestSensorFilterReducesShippedBytes(t *testing.T) {
	st := testStore(t)
	filtered := equivalent(t, st, "SELECT x, y FROM d WHERE z < 1")
	unfiltered := equivalent(t, st, "SELECT x, y FROM d")
	if filtered.Stages[0].Bytes >= unfiltered.Stages[0].Bytes {
		t.Fatalf("sensor filter should reduce stage-1 bytes: %d vs %d",
			filtered.Stages[0].Bytes, unfiltered.Stages[0].Bytes)
	}
}

func TestRemainder(t *testing.T) {
	plan := mustFragment(t,
		"SELECT AVG(z) OVER (ORDER BY t) FROM (SELECT z, t FROM d WHERE z < 2)")
	// With the home ladder topping out at appliances, the window fragment
	// remains for the outside.
	rem := plan.Remainder(LevelAppliance)
	if len(rem) != 1 || !strings.Contains(rem[0].SQL(), "OVER") {
		t.Fatalf("remainder = %v", rem)
	}
	// With a PC in the home, nothing leaves.
	if len(plan.Remainder(LevelPC)) != 0 {
		t.Fatal("PC should absorb the window fragment")
	}
}

func TestRequiredLevel(t *testing.T) {
	cases := []struct {
		q    string
		want Level
	}{
		{"SELECT * FROM stream WHERE z < 2", LevelSensor},
		{"SELECT * FROM stream", LevelSensor},
		{"SELECT x FROM d", LevelAppliance},
		{"SELECT * FROM d WHERE x > y", LevelAppliance},
		{"SELECT x, AVG(z) FROM d GROUP BY x", LevelAppliance},
		{"SELECT a.x FROM d AS a JOIN meta AS b ON a.x = b.x", LevelAppliance},
		{"SELECT AVG(z) OVER (ORDER BY t) FROM d", LevelPC},
		{"SELECT x FROM d ORDER BY x", LevelPC},
		{"SELECT DISTINCT x FROM d", LevelPC},
		{"SELECT x FROM (SELECT x FROM d)", LevelAppliance},
	}
	for _, c := range cases {
		sel, err := sqlparser.Parse(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := RequiredLevel(sel); got != c.want {
			t.Errorf("RequiredLevel(%q) = %s, want %s", c.q, got, c.want)
		}
	}
}

func TestCapabilityLadderMonotone(t *testing.T) {
	// Each rung strictly extends the one below (Table 1).
	caps := []Capability{
		CapabilityOf(LevelSensor), CapabilityOf(LevelAppliance),
		CapabilityOf(LevelPC), CapabilityOf(LevelCloud),
	}
	count := func(c Capability) int {
		n := 0
		for _, b := range []bool{c.ProjectAttributes, c.CompareAttributes, c.Joins, c.Aggregation, c.WindowsAndSort, c.MachineLearning} {
			if b {
				n++
			}
		}
		return n
	}
	for i := 1; i < len(caps); i++ {
		if count(caps[i]) <= count(caps[i-1]) {
			t.Fatalf("level %d not more capable than %d", i, i-1)
		}
	}
}

func TestIsConstFilter(t *testing.T) {
	cases := []struct {
		e    string
		want bool
	}{
		{"z < 2", true},
		{"2 > z", true},
		{"x > y", false},
		{"z < 2 AND x > y", false}, // conjunction is split before this check
		{"x + 1 < 2", false},
		{"z = 2", true},
	}
	for _, c := range cases {
		e, err := sqlparser.ParseExpr(c.e)
		if err != nil {
			t.Fatal(err)
		}
		if got := isConstFilter(e); got != c.want {
			t.Errorf("isConstFilter(%q) = %v", c.e, got)
		}
	}
}

func TestPlanString(t *testing.T) {
	plan := mustFragment(t, "SELECT x, y FROM d WHERE x > y AND z < 2")
	s := plan.String()
	for _, want := range []string{"Q1", "E4/sensor", "E3/appliance"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string lacks %q:\n%s", want, s)
		}
	}
}

func TestNodesPerPerson(t *testing.T) {
	if NodesPerPerson(LevelSensor) != ">= 100" || NodesPerPerson(LevelPC) != "1" {
		t.Fatal("Table 1 node counts wrong")
	}
}
