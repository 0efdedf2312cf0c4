package paradise_test

import (
	"context"
	"testing"

	paradise "paradise"
	"paradise/internal/core"
	"paradise/internal/fragment"
	"paradise/internal/network"
	"paradise/internal/sqlparser"
)

// placementStore is testStore plus a small rooms relation whose join key
// fans out: every d row matches several rooms rows, so the join's output
// is larger than its input — the shape where cost-based placement departs
// from the MinLevel floor.
func placementStore(t testing.TB) *paradise.Store {
	t.Helper()
	store := testStore(t, 400)
	rooms := store.Create(paradise.NewRelation("rooms",
		paradise.Col("x", paradise.TypeFloat),
		paradise.Col("label", paradise.TypeString),
	))
	labels := []string{"kitchen", "bath", "hall", "bed", "living"}
	rows := make(paradise.Rows, 0, 8*len(labels))
	for x := 0; x < 8; x++ { // d.x takes values 0..7
		for _, l := range labels {
			rows = append(rows, paradise.Row{
				paradise.Float(float64(x)),
				paradise.String(l),
			})
		}
	}
	if err := rooms.Append(rows...); err != nil {
		t.Fatal(err)
	}
	return store
}

// placementCorpus covers every fragment shape the decomposition produces:
// pure scans, sensor/appliance filter splits, aggregation, DISTINCT,
// ORDER BY/LIMIT, window evaluation, derived blocks, and fan-out joins.
var placementCorpus = []string{
	"SELECT x, y FROM d",
	"SELECT * FROM d WHERE z < 2",
	"SELECT x, y FROM d WHERE x > y AND z < 2.5",
	"SELECT x, AVG(z) AS za, COUNT(*) AS n FROM d GROUP BY x HAVING COUNT(*) > 3",
	"SELECT DISTINCT x FROM d",
	"SELECT x, z FROM d ORDER BY z DESC, x, t LIMIT 5",
	"SELECT x, SUM(z) OVER (PARTITION BY x ORDER BY t) AS s FROM d WHERE t < 5000",
	"SELECT s FROM (SELECT x + y AS s, z FROM d WHERE z < 2) WHERE s > 1",
	"SELECT x, COUNT(*) AS n FROM d WHERE t > 100 GROUP BY x ORDER BY x",
	"SELECT d.x, rooms.label FROM d JOIN rooms ON d.x = rooms.x",
	"SELECT d.x, d.y, d.z, d.t, rooms.label FROM d JOIN rooms ON d.x = rooms.x",
	"SELECT d.x, rooms.label FROM d JOIN rooms ON d.x = rooms.x WHERE d.z < 1",
	"SELECT d.x, rooms.label FROM d JOIN rooms ON d.x = rooms.x ORDER BY rooms.label, d.t LIMIT 7",
}

// openPlacement opens a session over the store with the given parallelism.
func openPlacement(t *testing.T, store *paradise.Store, par int) *paradise.Session {
	t.Helper()
	sess, err := paradise.Open(store, paradise.WithParallelism(par))
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// runPlaced runs sql through network.Run twice on one fragment plan: first
// unplaced, every fragment at its MinLevel floor (the reference policy),
// then after PlaceCostBased over the store's statistics.
func runPlaced(t *testing.T, store *paradise.Store, sql string) (floor, cost *paradise.RunStats) {
	t.Helper()
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fragment.New().Fragment(sel)
	if err != nil {
		t.Fatal(err)
	}
	run := func(what string) *paradise.RunStats {
		st, err := network.Run(context.Background(), network.DefaultApartment(), plan, store)
		if err != nil {
			t.Fatalf("%s (%s): %v", sql, what, err)
		}
		return st
	}
	floor = run("floor")
	plan.PlaceCostBased(core.StoreStats(store))
	return floor, run("cost")
}

// samePlacementInvariantStats compares the Figure 3 quantities that
// placement must NOT change: raw and egress bytes and the per-stage
// output accounting. Node assignment and per-link attribution MAY differ
// — that is what the placement search moves.
func samePlacementInvariantStats(t *testing.T, sql string, got, want *paradise.RunStats) {
	t.Helper()
	if got.RawBytes != want.RawBytes || got.EgressBytes != want.EgressBytes {
		t.Fatalf("%s: raw/egress: got %d/%d, want %d/%d",
			sql, got.RawBytes, got.EgressBytes, want.RawBytes, want.EgressBytes)
	}
	if len(got.Assignments) != len(want.Assignments) {
		t.Fatalf("%s: stages: got %d, want %d", sql, len(got.Assignments), len(want.Assignments))
	}
	for i := range got.Assignments {
		g, w := got.Assignments[i], want.Assignments[i]
		if g.OutRows != w.OutRows || g.OutBytes != w.OutBytes {
			t.Fatalf("%s: stage %d output: got %d rows/%d bytes, want %d rows/%d bytes",
				sql, i+1, g.OutRows, g.OutBytes, w.OutRows, w.OutBytes)
		}
	}
}

// TestPlacementEquivalence is the placement soundness suite: for every
// corpus shape, cost-based placement returns exactly the rows (values and
// order) and the same raw/egress/per-stage byte accounting as the same
// plan left at its MinLevel floor — only which node runs a stage (and
// hence per-link attribution) may move. The placed level never sinks below
// the privacy/capability floor, and the chain stays monotone.
func TestPlacementEquivalence(t *testing.T) {
	store := placementStore(t)
	for _, sql := range placementCorpus {
		want, got := runPlaced(t, store, sql)
		sameRows(t, got.Result.Rows, want.Result.Rows)
		samePlacementInvariantStats(t, sql, got, want)

		prev := 0
		for _, a := range got.Assignments {
			f := a.Fragment
			if f.Level != 0 && f.Level < f.MinLevel {
				t.Fatalf("%s: Q%d placed at %s below floor %s", sql, f.Stage, f.Level, f.MinLevel)
			}
			if int(a.Node.Level) < int(f.MinLevel) {
				t.Fatalf("%s: Q%d ran on %s (level %d) below floor %s",
					sql, f.Stage, a.Node.Name, a.Node.Level, f.MinLevel)
			}
			if int(f.EffectiveLevel()) < prev {
				t.Fatalf("%s: placement regresses at Q%d", sql, f.Stage)
			}
			prev = int(f.EffectiveLevel())
		}
	}
}

// TestPlacementEquivalenceParallel re-runs the suite through the morsel
// exchange: a parallel cost-based session must be row- and stats-identical
// (node assignments included) to the serial cost-based session.
func TestPlacementEquivalenceParallel(t *testing.T) {
	store := placementStore(t)
	serial := openPlacement(t, store, 1)
	parallel := openPlacement(t, store, 4)

	for _, sql := range placementCorpus {
		want, err := serial.Process(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s (serial): %v", sql, err)
		}
		got, err := parallel.Process(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s (parallel): %v", sql, err)
		}
		sameRows(t, got.Result.Rows, want.Result.Rows)
		sameStats(t, got.Net, want.Net)
	}
}

// TestCostPlacementReducesLinkBytes pins the point of the search: on
// expanding shapes (fan-out joins) the cost-based placement ships fewer
// total bytes over the chain's links than the MinLevel floor, with rows and
// egress identical (checked by TestPlacementEquivalence above).
func TestCostPlacementReducesLinkBytes(t *testing.T) {
	store := placementStore(t)
	linkBytes := func(st *paradise.RunStats) int {
		total := 0
		for _, h := range st.Traffic {
			total += h.Bytes
		}
		return total
	}

	expanding := []string{
		"SELECT d.x, rooms.label FROM d JOIN rooms ON d.x = rooms.x",
		"SELECT d.x, d.y, d.z, d.t, rooms.label FROM d JOIN rooms ON d.x = rooms.x",
	}
	reduced := 0
	for _, sql := range expanding {
		f, c := runPlaced(t, store, sql)
		fb, cb := linkBytes(f), linkBytes(c)
		t.Logf("%s: floor %d bytes on the wire, cost-based %d", sql, fb, cb)
		if cb < fb {
			reduced++
		} else if cb > fb {
			t.Fatalf("%s: cost-based placement INCREASED wire bytes: %d > %d", sql, cb, fb)
		}
	}
	if reduced < 2 {
		t.Fatalf("expected both expanding shapes to ship fewer bytes, got %d of %d", reduced, len(expanding))
	}

	// A shrinking join (the filter cuts the fan-out below its input) must
	// NOT be hoisted: the model keeps it at the floor and the run is
	// byte-identical to the unplaced plan.
	shrinking := "SELECT d.x, rooms.label FROM d JOIN rooms ON d.x = rooms.x WHERE d.z < 1"
	f, c := runPlaced(t, store, shrinking)
	if linkBytes(f) != linkBytes(c) {
		t.Fatalf("shrinking join moved: floor %d bytes, cost-based %d", linkBytes(f), linkBytes(c))
	}
}
