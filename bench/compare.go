package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

// documentOnly is the end-to-end metric with a bound that the result
// documents carry and BENCHMARK.json cannot list, because the benchmark
// contract wants every listed metric on every workload and scan_analytics
// has too few samples for it.
var documentOnly = []contractMetric{{Name: "lat_p99_ms", Unit: "ms", Better: "lower", Bound: 0.20}}

// compareFiles implements bench -compare A.json B.json: for every workload
// and end-to-end metric it prints both medians, the ratio B/A and a verdict
// against the metric's bound in BENCHMARK.json. A is the base of every
// ratio. Then it checks, seed by seed, the two numbers that have no bound:
// egress_ratio must repeat exactly and fail_ratio must not rise. Both
// documents must therefore come from the same seeds. The exit code is
// non-zero when any verdict is "worse".
func compareFiles(o options, files []string) error {
	if len(files) != 2 {
		return errors.New("usage: bench -compare A.json B.json")
	}
	c, err := readContract(o.benchmark)
	if err != nil {
		return err
	}
	a, err := readDocument(files[0])
	if err != nil {
		return err
	}
	b, err := readDocument(files[1])
	if err != nil {
		return err
	}
	for _, w := range workloads {
		if sa, sb := a.seeds(w.name), b.seeds(w.name); !slices.Equal(sa, sb) {
			return fmt.Errorf("%s: A ran under seeds %v, B under %v; run both sides with the same -seed and -repeats", w.name, sa, sb)
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tA median\tB median\tB/A\tbound\tA spread\tB spread\tverdict\n")
	worse := 0
	for _, w := range workloads {
		for _, m := range append(c.EndToEnd[:len(c.EndToEnd):len(c.EndToEnd)], documentOnly...) {
			av, bv := a.values(w.name, m.Name), b.values(w.name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue // does not apply to this workload
			}
			v := judge(av, bv, m.Better == "higher", m.Bound)
			if v.verdict == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%.3f\t%.2f\t%.3f\t%.3f\t%s\n",
				w.name, m.Name, v.a, m.Unit, v.b, m.Unit, v.b/v.a, m.Bound, v.spreadA, v.spreadB, v.verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, w := range workloads {
		// Runs are in seed order on both sides (checked above).
		ea, eb := a.values(w.name, "egress_ratio"), b.values(w.name, "egress_ratio")
		fa, fb := a.values(w.name, "fail_ratio"), b.values(w.name, "fail_ratio")
		for i, seed := range a.seeds(w.name) {
			if ea[i] != eb[i] {
				fmt.Printf("%s seed %d: egress_ratio %v in A, %v in B - no change may move it\n", w.name, seed, ea[i], eb[i])
				worse++
			}
			if fb[i] > fa[i] {
				fmt.Printf("%s seed %d: fail_ratio %v in A, %v in B - it may not rise\n", w.name, seed, fa[i], fb[i])
				worse++
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d comparisons are worse than their bound allows", worse)
	}
	return nil
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &d, nil
}

// runsOf returns a workload's runs in seed order.
func (d *document) runsOf(workload string) []*report {
	var out []*report
	for _, r := range d.Runs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Env.Seed < out[j].Env.Seed })
	return out
}

func (d *document) seeds(workload string) []int64 {
	var out []int64
	for _, r := range d.runsOf(workload) {
		out = append(out, r.Env.Seed)
	}
	return out
}

// values collects one end-to-end metric over a workload's runs, in seed
// order; a metric that applies to the workload is in every run or in none,
// except lat_p99_ms at the edge of its sample-size rule.
func (d *document) values(workload, name string) []float64 {
	var out []float64
	for _, r := range d.runsOf(workload) {
		if m, ok := r.EndToEnd[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// judgement is the comparison of one metric on one workload.
type judgement struct {
	a, b             float64 // medians
	spreadA, spreadB float64 // (q3 - q1) / median; 0 with fewer than 2 runs
	verdict          string
}

// judge applies the benchmark's rule: B is worse when its median is worse
// than A's by more than bound (as a share of A's median). When either
// side's run-to-run spread exceeds the bound the difference cannot be
// resolved, unless every run of B reads better than every run of A.
func judge(a, b []float64, higherIsBetter bool, bound float64) judgement {
	j := judgement{a: median(a), b: median(b), spreadA: spread(a), spreadB: spread(b)}
	loss := (j.b - j.a) / j.a // positive = B larger
	if higherIsBetter {
		loss = -loss
	}
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	allBetter := sb[len(sb)-1] < sa[0]
	if higherIsBetter {
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case (j.spreadA > bound || j.spreadB > bound) && !allBetter:
		j.verdict = "unresolved"
	case loss > bound:
		j.verdict = "worse"
	default:
		j.verdict = "ok"
	}
	return j
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}
