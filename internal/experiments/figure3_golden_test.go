package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden files:
//
//	go test ./internal/experiments/ -run TestFigure3Golden -update
var update = flag.Bool("update", false, "rewrite golden exhibit snapshots")

// Figure 3 is pinned at the sizes, seed and parameters `benchrunner fig3`
// prints, so the golden file holds every number of that exhibit.
const fig3Seed = 2016

var fig3Sizes = []int{5_000, 20_000, 100_000}

// renderFigure3 prints every field of the three Figure 3 exhibits at full
// precision: byte and row counts exactly, simulated times in nanoseconds,
// ratios with %v (the shortest exact float rendering).
func renderFigure3(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	rows, err := Figure3(fig3Sizes, fig3Seed)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "figure3 seed=%d\n", fig3Seed)
	for _, r := range rows {
		fmt.Fprintf(&b, "rows=%d raw=%d naive_egress=%d frag_egress=%d reduction=%v naive_sim_ns=%d frag_sim_ns=%d sensor_out_rows=%d appliance_rows=%d egress_rows=%d egress_fraction=%v\n",
			r.Rows, r.RawBytes, r.NaiveEgress, r.FragEgress, r.Reduction,
			r.NaiveSimTime.Nanoseconds(), r.FragSimTime.Nanoseconds(),
			r.SensorOutRows, r.ApplianceRows, r.EgressRows, r.EgressFraction)
	}

	ladder, err := Figure3Ladder(10_000, fig3Seed)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("ladder n=10000\n")
	for _, l := range ladder {
		fmt.Fprintf(&b, "top=%d egress=%d %s\n", l.HomeTop, l.EgressBytes, l.Description)
	}

	fan, err := Figure3FanIn(20_000, []int{1, 10, 100}, fig3Seed)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("fan-in n=20000\n")
	for _, f := range fan {
		fmt.Fprintf(&b, "sensors=%d egress=%d sim_ns=%d\n", f.Sensors, f.EgressBytes, f.SimTime.Nanoseconds())
	}
	return b.String()
}

// TestFigure3Golden snapshots every number of Figure 3 (the size sweep, the
// fragmentation-granularity ladder and the sensor fan-in). Stage accounting
// is what the exhibit measures: a change to how any stage counts its rows or
// bytes, or to the network model, shows up here as a diff. Inspect it, and
// regenerate with -update only when the change is intended.
func TestFigure3Golden(t *testing.T) {
	got := renderFigure3(t)
	path := filepath.Join("testdata", "figure3.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("Figure 3 drifted from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
