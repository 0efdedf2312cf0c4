// Command bench is the repository's one performance instrument: it builds a
// seeded, disk-backed sensor corpus through the public facade, drives four
// named workloads against it, checks every answer against results computed
// with plain Go loops over its own generated rows, and prints every metric
// by name with its unit.
//
// Usage, from the repository root (run.sh builds the program into
// .bench_build/ first; bench/ is a module of its own, so go run ./bench at
// the root does not reach it):
//
//	bash bench/run.sh                                # all four workloads, one JSON document
//	bash bench/run.sh -repeats 3 -out A.json         # several runs per workload, for -compare
//	bash bench/run.sh -compare A.json B.json         # medians, ratios, ok / worse / unresolved
//	bash bench/run.sh --workload serve_lookup --seed 7 --seconds 20 --trace 0
//
// The last form is the contract BENCHMARK.json describes: one workload in
// one process, end-to-end metrics with --trace 0 and per-layer metrics
// (from a separate traced pass) with --trace 1, one JSON object on the last
// line of standard output. Without --workload the program re-executes
// itself once per workload with the traced pass on, so resident memory and
// garbage collector state never leak from one workload into the next.
//
// README.md in this directory explains the workloads, which loop is open
// or closed, the metric names, how a falling layer metric should move an
// end-to-end one, and how to read the span file the traced pass writes
// under bench/out/.
package main
