package paradise_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the modeled-vs-measured golden table")

// TestModeledVsMeasured drives every corpus shape through the chain and
// compares the cardinality model's per-stage output (EstRows/EstBytes)
// against the measured wire accounting (OutRows/OutBytes):
//
//   - a predicate-free sensor scan is EXACT — the statistics maintain row
//     count and wire bytes incrementally, so the model has the truth;
//   - every other stage must stay within a fixed multiplicative error
//     band — the uniformity assumptions (equality 1/NDV, range
//     interpolation, join 1/max-NDV) hold approximately on this data;
//   - the full est-vs-measured table is pinned as a golden snapshot
//     (testdata/modeled_vs_measured.golden, regenerate with -update), so
//     any model drift shows up as a reviewable diff.
func TestModeledVsMeasured(t *testing.T) {
	const (
		ratioLo = 0.2
		ratioHi = 5.0
	)
	store := placementStore(t)
	sess := openPlacement(t, store, 1)

	var b strings.Builder
	for _, sql := range placementCorpus {
		out, err := sess.Process(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		fmt.Fprintf(&b, "query: %s\n", sql)
		for _, a := range out.Net.Assignments {
			f := a.Fragment
			if f.EstRows < 0 || f.EstBytes < 0 {
				t.Fatalf("%s: Q%d negative estimate %d rows / %d bytes",
					sql, f.Stage, f.EstRows, f.EstBytes)
			}
			ratio := 0.0
			if a.OutBytes > 0 {
				ratio = float64(f.EstBytes) / float64(a.OutBytes)
			}
			fmt.Fprintf(&b, "  Q%d %-28s est=%d rows/%d bytes  measured=%d rows/%d bytes  ratio=%.2f\n",
				f.Stage, f.Description, f.EstRows, f.EstBytes, a.OutRows, a.OutBytes, ratio)

			if f.Description == "sensor scan" {
				// No predicate: the model must be exact.
				if f.EstRows != int64(a.OutRows) || f.EstBytes != int64(a.OutBytes) {
					t.Errorf("%s: Q%d predicate-free scan not exact: est %d rows/%d bytes, measured %d/%d",
						sql, f.Stage, f.EstRows, f.EstBytes, a.OutRows, a.OutBytes)
				}
				continue
			}
			if a.OutBytes > 0 && (ratio < ratioLo || ratio > ratioHi) {
				t.Errorf("%s: Q%d (%s) modeled bytes off by %.2fx (est %d, measured %d)",
					sql, f.Stage, f.Description, ratio, f.EstBytes, a.OutBytes)
			}
		}
	}

	got := b.String()
	path := filepath.Join("testdata", "modeled_vs_measured.golden")
	if *updateGolden {
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
		t.Fatalf("missing golden table (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("modeled-vs-measured table changed (re-run with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}
}
