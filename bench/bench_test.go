package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 50, false}, {20, 50, true},
		{199, 95, false}, {200, 95, true},
		{270, 99, false}, {999, 99, false}, {1000, 99, true},
	} {
		if got := percentileSupported(tc.n, tc.p); got != tc.want {
			t.Errorf("percentileSupported(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	for n, want := range map[int]float64{0: 0, 19: 0, 20: 50, 100: 90, 270: 95, 20000: 99} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = %v, want %v", n, got, want)
		}
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 1: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", p, got, want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns, the rule the contract's
// spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{7, 1, 3, 9, 5, 11, 13, 15, 17, 19})
	if q1 != 4.5 || q3 != 15.5 {
		t.Errorf("quartiles = %v, %v, want 4.5, 15.5", q1, q3)
	}
	if got := spread([]float64{7, 1, 3, 9, 5, 11, 13, 15, 17, 19}); got != 1.1 {
		t.Errorf("spread = %v, want 1.1", got)
	}
}

func smallCorpus(seed int64) corpusConfig { return smallSizing.corpus(seed) }

// statements draws n statements from a client's schedule.
func statements(c *corpus, seed int64, n int) []string {
	pools := drawPools(c, serveLookup.classes, seed)
	sched := newSchedule(pools, seed, 0)
	out := make([]string, n)
	for i := range out {
		_, out[i], _ = sched.next()
	}
	return out
}

func TestGeneratorDeterminism(t *testing.T) {
	a, _ := generateCorpus(smallCorpus(1), 30)
	b, _ := generateCorpus(smallCorpus(1), 30)
	other, _ := generateCorpus(smallCorpus(2), 30)
	if a.checksum() != b.checksum() {
		t.Error("one seed gave two corpora")
	}
	if a.checksum() == other.checksum() {
		t.Error("two seeds gave one corpus")
	}
	sa, sb, so := statements(a, 1, 500), statements(b, 1, 500), statements(other, 2, 500)
	same := 0
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("statement %d differs under one seed: %q, %q", i, sa[i], sb[i])
		}
		if sa[i] == so[i] {
			same++
		}
	}
	if same == len(sa) {
		t.Error("two seeds gave one schedule")
	}
}

func TestFreshLiteralsNeverRepeat(t *testing.T) {
	c, _ := generateCorpus(smallCorpus(3), 30)
	p := drawPools(c, []*class{classPointFresh}, 3)[0]
	seen := map[lit]bool{}
	for _, l := range p.lits {
		seen[l] = true
	}
	for i := len(seen); i < int(p.fresh.n); i++ {
		l := p.fresh.draw()
		if seen[l] {
			t.Fatalf("draw %d repeats %v", i, l)
		}
		if l.tick > c.lastTick()-3 {
			t.Fatalf("draw %d is in the pooled points' ticks: %v", i, l)
		}
		seen[l] = true
	}
}

func TestSelfTimes(t *testing.T) {
	mk := func(id, parent int, start, end int64) span {
		return span{Span: id, Parent: parent, StartNs: start, EndNs: end}
	}
	spans := []span{
		mk(1, 0, 0, 100),   // parent of 2 and 3
		mk(2, 1, 100, 130), // 30
		mk(3, 1, 130, 180), // 50, itself parent of 4
		mk(4, 3, 180, 250), // 70: exceeds its parent by 20
		mk(5, 0, 250, 260), // off the path: nobody's child
	}
	got := selfTimes(spans)
	want := map[int]selfTime{
		1: {self: 20}, 2: {self: 30}, 3: {clamped: 20}, 4: {self: 70}, 5: {self: 10},
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: %+v, want %+v", id, got[id], w)
		}
	}
}

func TestJudge(t *testing.T) {
	steadyA := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", []float64{101, 100, 99, 100, 101}, false, "ok"},
		{"slower", []float64{120, 121, 119, 120, 122}, false, "worse"},
		{"faster", []float64{80, 81, 79, 80, 82}, false, "ok"},
		{"less throughput", []float64{80, 81, 79, 80, 82}, true, "worse"},
		{"noisy", []float64{60, 140, 100, 90, 130}, false, "unresolved"},
		{"noisy but always better", []float64{30, 90, 50, 40, 80}, false, "ok"},
	} {
		if got := judge(steadyA, tc.b, tc.higher, 0.10).verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareChecksSeedBySeed pins what -compare does beyond the bounds: it
// refuses documents made under different seeds, wants egress_ratio equal to
// the last digit and fail_ratio no higher.
func TestCompareChecksSeedBySeed(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed int64, egress, fail float64) string {
		var doc document
		for _, w := range workloads {
			doc.Runs = append(doc.Runs, &report{Workload: w.name, Env: environment{Seed: seed}, EndToEnd: map[string]metric{
				"qps": {100, "1/s"}, "egress_ratio": {egress, "ratio"}, "fail_ratio": {fail, "ratio"}}})
		}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	o := options{benchmark: filepath.Join("..", "BENCHMARK.json")}
	base := write("a.json", 1, 0.5, 0)
	for _, tc := range []struct {
		name, other string
		ok          bool
	}{
		{"same", write("same.json", 1, 0.5, 0), true},
		{"other seed", write("seed.json", 2, 0.5, 0), false},
		{"egress moved down", write("egress.json", 1, 0.4999, 0), false},
		{"a failure", write("fail.json", 1, 0.5, 0.001), false},
	} {
		if err := compareFiles(o, []string{base, tc.other}); (err == nil) != tc.ok {
			t.Errorf("%s: compare returned %v", tc.name, err)
		}
	}
}

// smallSizing is the smoke test's corpus: 50 sensors x 30 ticks in 256-row
// segments, two set-ups, a short warm-up.
var smallSizing = sizing{sensors: 50, ticks: 30, segmentRows: 256, warmup: 200 * time.Millisecond, setups: 2}

// documentOnlyNames is what a result document may carry beyond BENCHMARK.json.
var documentOnlyNames = []string{"fail_ratio", "lat_p99_ms", "bench.writer_lag_p99_ms"}

// notApplicable lists, per workload, the names of BENCHMARK.json the
// workload does not report itself (per-class medians of other workloads'
// classes come on top): they must be under outside_workload and nowhere
// else, and everything else must be under end_to_end or per_layer.
var notApplicable = map[string][]string{
	"serve_lookup": {"ingest_krows_per_busy_s", "storage.append_us_per_krow", "storage.append_p50_ms", "storage.append_p95_ms",
		"anonymize.mondrian_us", "anonymize.us_per_krow", "engine.par_speedup"},
	"serve_export": {"ingest_krows_per_busy_s", "storage.append_us_per_krow", "storage.append_p50_ms", "storage.append_p95_ms",
		"rewrite.deny_us", "audit.append_us", "engine.par_speedup"},
	"scan_analytics": {"ingest_krows_per_busy_s", "storage.append_us_per_krow", "storage.append_p50_ms", "storage.append_p95_ms",
		"rewrite.deny_us", "anonymize.mondrian_us", "anonymize.us_per_krow",
		"server.http_us", "server.self_us", "server.self_us_per_krow", "server.bytes_per_row", "bench.client_us_per_krow"},
	"ingest_beside_query": {"rewrite.deny_us", "audit.append_us", "anonymize.mondrian_us", "anonymize.us_per_krow", "engine.par_speedup",
		"server.http_us", "server.self_us", "server.self_us_per_krow", "server.bytes_per_row", "bench.client_us_per_krow"},
}

// TestSmoke runs every workload for about a second on a small corpus, once
// with the traced pass and once without, and checks the result against
// BENCHMARK.json both ways: every metric the contract names is on the last
// line and finite, the workload reports under end_to_end and per_layer
// exactly the names that apply to it, and the end-to-end numbers do not
// depend on the traced pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	c, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(c.Workloads), len(workloads); got != want {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", got, want)
	}
	for _, w := range c.Workloads {
		if wl := workloadByName(w.Name); wl == nil || wl.why != w.Why {
			t.Errorf("BENCHMARK.json workload %q: the program has no workload of that name and reason", w.Name)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			start := time.Now()
			rep, err := measure(w, options{seed: 5, seconds: 1, trace: 1, outDir: t.TempDir()}, smallSizing)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d operations in the window, %.1f s in all", rep.Attempted, time.Since(start).Seconds())
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("correct %v, %d of %d failed: %s", rep.Correct, rep.Failed, rep.Attempted, rep.FirstFail)
			}
			if got, ok := rep.EndToEnd["fail_ratio"]; !ok || got.Value != 0 {
				t.Errorf("fail_ratio = %v, reported %v", got.Value, ok)
			}

			outside := map[string]bool{}
			for _, name := range notApplicable[w.name] {
				outside[name] = true
			}
			for _, wl := range workloads {
				if prefix, _ := wl.entryPoint(); wl != w {
					for _, cls := range wl.classes {
						outside[prefix+cls.name+".p50_ms"] = true
					}
				}
			}
			checkNames(t, "end_to_end", rep.EndToEnd, c.EndToEnd, outside)
			checkNames(t, "per_layer", rep.PerLayer, c.PerLayer, outside)
			for name, v := range rep.Outside {
				if !outside[name] {
					t.Errorf("%s is under outside_workload but applies to the workload", name)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("outside_workload %s = %v", name, v.Value)
				}
			}
			if len(rep.Outside) != len(outside) {
				t.Errorf("outside_workload has %d names, want %d", len(rep.Outside), len(outside))
			}
			for _, traced := range []bool{false, true} {
				if _, err := rep.lastLine(c, traced); err != nil {
					t.Error(err)
				}
			}

			// The same seed without the traced pass: the same end-to-end
			// names, and the counts among them to the last digit.
			plain, err := measure(w, options{seed: 5, seconds: 0.3, trace: 0, outDir: t.TempDir()}, smallSizing)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := plain.EndToEnd["egress_ratio"], rep.EndToEnd["egress_ratio"]; got != want {
				t.Errorf("egress_ratio %v without the traced pass, %v with it", got.Value, want.Value)
			}
			delete(plain.EndToEnd, "lat_p99_ms") // depends on the window's length
			delete(rep.EndToEnd, "lat_p99_ms")
			for name := range rep.EndToEnd {
				if _, ok := plain.EndToEnd[name]; !ok || len(plain.EndToEnd) != len(rep.EndToEnd) {
					t.Errorf("end_to_end differs with the traced pass: %s", name)
				}
			}
			if _, err := plain.lastLine(c, false); err != nil {
				t.Error(err)
			}
			if plain.PerLayer != nil {
				t.Error("per_layer reported without the traced pass")
			}
		})
	}
}

// checkNames checks one kind of metric of a result document against the
// contract: every contract name that applies to the workload is reported,
// finite and in the contract's unit; none that does not apply is; and
// nothing else is reported but the document-only names.
func checkNames(t *testing.T, kind string, got map[string]metric, want []contractMetric, outside map[string]bool) {
	t.Helper()
	named := map[string]bool{}
	for _, name := range documentOnlyNames {
		named[name] = true
	}
	for _, m := range want {
		named[m.Name] = true
		v, ok := got[m.Name]
		switch {
		case outside[m.Name]:
			if ok {
				t.Errorf("%s metric %s does not apply to the workload but is reported as its own", kind, m.Name)
			}
		case !ok:
			t.Errorf("%s metric %s is in BENCHMARK.json but was not reported", kind, m.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s metric %s = %v", kind, m.Name, v.Value)
		case v.Unit != m.Unit:
			t.Errorf("%s metric %s reported in %s, BENCHMARK.json says %s", kind, m.Name, v.Unit, m.Unit)
		}
	}
	var extra []string
	for name := range got {
		if !named[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s metrics reported but not in BENCHMARK.json: %v", kind, extra)
	}
}
