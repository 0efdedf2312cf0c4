// Package paradise is a from-scratch Go reproduction of "Privacy Protection
// through Query Rewriting in Smart Environments" (Grunert & Heuer, EDBT
// 2016; long version: University of Rostock TR CS-01-16) — the PArADISE
// privacy-aware query processor — packaged as an embeddable library.
//
// This package is the supported entry point. Open a Session over a Store,
// then run queries through the full Figure 2 pipeline:
//
//	sess, err := paradise.Open(store,
//	        paradise.WithPolicy(paradise.Figure4Policy()))
//	if err != nil { ... }
//
//	// Materialized: the complete audit trail in one call.
//	out, err := sess.Process(ctx, "SELECT x, y, z FROM d")
//
//	// Streaming: a cursor wired onto the batch pipeline; cancelling ctx
//	// stops the storage scans within one batch.
//	cur, err := sess.Query(ctx, "SELECT x, y, z FROM d")
//	defer cur.Close()
//	for cur.Next() {
//	        row := cur.Row()
//	        ...
//	}
//
// A cursor whose Columnar method reports true (the final fragment is scan,
// filters and plain columns; no anonymization) can be consumed with
// NextBatch instead: the typed column vectors that fragment produced, with
// no row ever built. The server package streams such results that way.
//
// Failures are typed: errors.Is(err, ErrPolicyViolation) (with
// *PolicyViolation carrying the violated rule and offending columns via
// errors.As), ErrParse, ErrUnsupported and ErrUsage.
//
// Public companion packages round out the toolkit: sensorsim (the
// simulated Smart Appliance Lab), recognition (analysis pipelines),
// anonymize and privmetrics (the §3.2 postprocessing study kit), and
// experiments (the paper's exhibits). The implementation lives under
// internal/:
//
//   - sqlparser, schema, storage, engine: a SQL subset (nested SELECT,
//     joins, grouping, window functions) over in-memory relations, executed
//     as a pull-based batch-iterator pipeline bound to a context
//   - sensors, stream: the simulated Smart Appliance Lab and sensor-level
//     stream processing
//   - policy, rewrite: Figure 4 privacy policies and the preprocessor that
//     rewrites queries against them
//   - fragment, network: vertical query fragmentation (Table 1 capability
//     ladder) and the simulated peer chain of Figure 3, streaming through
//     network.Open / fragment.OpenChain
//   - anonymize, privmetrics: the postprocessor (k-anonymity, slicing,
//     differential privacy) and the paper's information-loss metrics
//   - recognition: the R-pipeline substrate (Kalman filter, filterByClass)
//   - core: the assembled processor of Figure 2 behind Session
//   - experiments: the reproduction harness behind cmd/benchrunner and the
//     benchmarks in bench_test.go
//
// See README.md for a walkthrough, DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-vs-measured record.
package paradise
