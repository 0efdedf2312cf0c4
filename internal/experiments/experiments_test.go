package experiments

import (
	"testing"
	"time"
)

// These tests double as the shape assertions of EXPERIMENTS.md: every
// exhibit must reproduce the qualitative result the paper claims.

func TestTable1Shapes(t *testing.T) {
	rows, err := Table1(5_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("probes = %d", len(rows))
	}
	// Levels appear in ladder order bottom-up.
	for i := 1; i < len(rows); i++ {
		if rows[i].Level < rows[i-1].Level {
			t.Fatalf("ladder out of order at %d", i)
		}
	}
	for _, r := range rows {
		if r.Elapsed <= 0 {
			t.Fatalf("probe %q has no timing", r.Query)
		}
	}
}

func TestFigure1Shapes(t *testing.T) {
	res, err := Figure1(3, 20*time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRows == 0 || res.WireBytes == 0 {
		t.Fatal("empty trace")
	}
	// UbiSense dominates the row count (100x sampling rate vs ambient).
	max := 0
	for _, n := range res.PerDevice {
		if n > max {
			max = n
		}
	}
	if res.PerDevice["ubisense"] != max {
		t.Fatalf("ubisense should dominate: %v", res.PerDevice)
	}
}

func TestFigure2Shapes(t *testing.T) {
	res, err := Figure2(5_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's implicit claim: rewriting is cheap relative to
	// execution. Give it two orders of magnitude headroom.
	if res.Rewrite > res.Execute {
		t.Fatalf("rewrite %v slower than execution %v", res.Rewrite, res.Execute)
	}
	if res.Parse <= 0 || res.Fragment <= 0 {
		t.Fatal("stages not measured")
	}
}

func TestFigure3Shapes(t *testing.T) {
	rows, err := Figure3([]int{5_000, 20_000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FragEgress >= r.NaiveEgress {
			t.Fatalf("n=%d: fragmentation did not reduce egress (%d vs %d)",
				r.Rows, r.FragEgress, r.NaiveEgress)
		}
		if r.Reduction < 10 {
			t.Fatalf("n=%d: reduction %v below an order of magnitude", r.Rows, r.Reduction)
		}
	}
	// Reduction grows with trace size (aggregation output is ~constant).
	if rows[1].Reduction <= rows[0].Reduction {
		t.Fatalf("reduction should grow with size: %v -> %v", rows[0].Reduction, rows[1].Reduction)
	}
}

func TestFigure3LadderShapes(t *testing.T) {
	rows, err := Figure3Ladder(20_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("ladder rows = %d", len(rows))
	}
	// Deeper in-home ladders never increase egress; the no-fragmentation
	// baseline is the worst.
	full, none := rows[0].EgressBytes, rows[3].EgressBytes
	if full > none {
		t.Fatalf("full ladder (%d) worse than no fragmentation (%d)", full, none)
	}
	if rows[2].EgressBytes > none {
		t.Fatal("sensors-only worse than shipping raw")
	}
}

func TestFigure4MatchesPaper(t *testing.T) {
	res, err := Figure4(1_000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MatchesPaper {
		t.Fatalf("rewrite diverges from the paper: %v", res.Problems)
	}
	if res.RewriteTime <= 0 {
		t.Fatal("rewrite not timed")
	}
}

func TestUseCaseMatchesPaper(t *testing.T) {
	res, err := UseCase(5_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("fragmented != monolithic")
	}
	if len(res.Stages) != 4 {
		t.Fatalf("stages = %d", len(res.Stages))
	}
	for _, s := range res.Stages {
		if s.PaperSQL != "" && !s.Match {
			t.Fatalf("stage %d mismatch: %s", s.Stage, s.OurSQL)
		}
	}
}

func TestSec32Shapes(t *testing.T) {
	rows, err := Sec32(2_000, 8)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Sec32Row{}
	for _, r := range rows {
		byKey[r.Method+"/"+r.Param] = r
	}
	// k-anonymity: class size grows with k, risk collapses.
	if byKey["mondrian/k=20"].AvgClass <= byKey["mondrian/k=2"].AvgClass {
		t.Fatal("class size should grow with k")
	}
	if byKey["mondrian/k=20"].AvgClass < 20 {
		t.Fatalf("k=20 class size %v < 20", byKey["mondrian/k=20"].AvgClass)
	}
	for _, k := range []string{"k=2", "k=5", "k=10", "k=20"} {
		r := byKey["mondrian/"+k]
		if r.RiskBefore < 0.9 || r.RiskAfter > 0.01 {
			t.Fatalf("mondrian %s risk %v -> %v", k, r.RiskBefore, r.RiskAfter)
		}
	}
	// DP: noise shrinks with epsilon.
	if byKey["dp/eps=0.1"].KLIntended <= byKey["dp/eps=10.0"].KLIntended {
		t.Fatal("KL should shrink as epsilon grows")
	}
	// Slicing preserves marginals.
	if byKey["slicing/bucket=4"].KLIntended > 1e-6 {
		t.Fatalf("slicing KL = %v, want ~0", byKey["slicing/bucket=4"].KLIntended)
	}
}

func TestAblationShapes(t *testing.T) {
	place, err := AblationConditionPlacement(5_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if place[0].SensorOut >= place[1].SensorOut {
		t.Fatalf("innermost placement should ship fewer rows from the sensor: %d vs %d",
			place[0].SensorOut, place[1].SensorOut)
	}

	fb, err := AblationWeakNode(5_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if fb[0].FallbackUsed || !fb[1].FallbackUsed {
		t.Fatal("fallback flags wrong")
	}
	if fb[1].MidLinkBytes <= fb[0].MidLinkBytes {
		t.Fatalf("fallback should ship more raw bytes mid-chain: %d vs %d",
			fb[1].MidLinkBytes, fb[0].MidLinkBytes)
	}
	if fb[0].EgressBytes != fb[1].EgressBytes {
		t.Fatal("egress should be unchanged by the fallback")
	}
}

func TestFigure3FanInShapes(t *testing.T) {
	rows, err := Figure3FanIn(5_000, []int{1, 8, 64}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Egress is independent of the sensor count (the same d' leaves).
	for _, r := range rows[1:] {
		if r.EgressBytes != rows[0].EgressBytes {
			t.Fatalf("egress varies with sensor count: %d vs %d",
				r.EgressBytes, rows[0].EgressBytes)
		}
	}
	// More sensors never slow the chain down (compute parallelizes, the
	// shared radio stays constant).
	if rows[2].SimTime > rows[0].SimTime {
		t.Fatalf("64 sensors slower than 1: %v vs %v", rows[2].SimTime, rows[0].SimTime)
	}
	// Pinned exhibit values: the fan-in accounting is a deterministic
	// simulated quantity, reported in milliseconds.
	want := []struct {
		egress int
		sim    time.Duration
	}{
		{75, 6524 * time.Millisecond},
		{75, 6122 * time.Millisecond},
		{75, 6347 * time.Millisecond},
	}
	for i, w := range want {
		if rows[i].EgressBytes != w.egress || rows[i].SimTime.Round(time.Millisecond) != w.sim {
			t.Fatalf("%d sensors: egress %d, simulated %v; want %d, %v",
				rows[i].Sensors, rows[i].EgressBytes, rows[i].SimTime.Round(time.Millisecond), w.egress, w.sim)
		}
	}
}

func TestGoldenPathShapes(t *testing.T) {
	rows, err := GoldenPath(40*time.Second, 17)
	if err != nil {
		t.Fatal(err)
	}
	byVariant := map[string]GoldenPathRow{}
	for _, r := range rows {
		byVariant[r.Variant] = r
	}
	raw := byVariant["raw"]
	if raw.Accuracy < 0.7 {
		t.Fatalf("raw accuracy %v too low", raw.Accuracy)
	}
	// Every variant must still detect the fall (the safety-critical
	// intended event).
	for _, r := range rows {
		if !r.FallDetected {
			t.Errorf("%s lost the fall", r.Variant)
		}
		if r.Variant != "raw" && r.Accuracy >= raw.Accuracy {
			t.Errorf("%s should cost some accuracy (%v vs raw %v)",
				r.Variant, r.Accuracy, raw.Accuracy)
		}
	}
	// Stronger privacy costs more accuracy.
	if byVariant["dp eps=0.1"].Accuracy >= byVariant["dp eps=1.0"].Accuracy {
		t.Fatal("smaller epsilon should cost more accuracy")
	}
	if byVariant["mondrian k=25"].Accuracy >= byVariant["mondrian k=5"].Accuracy {
		t.Fatal("larger k should cost more accuracy")
	}
}

func TestOpenProblemShapes(t *testing.T) {
	rows, err := OpenProblem(2_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		switch r.Intent {
		case "intended":
			if !r.Answerable {
				t.Errorf("intended query blocked: %s (%s)", r.Query, r.Reason)
			}
		case "violating":
			if r.Answerable {
				t.Errorf("violating query survives: %s", r.Query)
			}
		default:
			t.Fatalf("bad intent %q", r.Intent)
		}
	}
}

func TestSyntheticDBDeterministic(t *testing.T) {
	a := SyntheticDB(100, 42)
	b := SyntheticDB(100, 42)
	_, sa, err := a.Relation("d")
	if err != nil {
		t.Fatal(err)
	}
	_, sb, err := b.Relation("d")
	if err != nil {
		t.Fatal(err)
	}
	if len(sa) != 100 || len(sb) != len(sa) {
		t.Fatalf("SyntheticDB rows: %d and %d, want 100", len(sa), len(sb))
	}
	for i := range sa {
		for j := range sa[i] {
			if !sa[i][j].Identical(sb[i][j]) {
				t.Fatal("SyntheticDB not deterministic")
			}
		}
	}
}
