// Package engine executes logical query plans over in-memory relations. It
// is the query processor that runs — identically — on every node of the
// vertical architecture, from the cloud server down to an appliance; only
// the *fragment* of the query a node receives differs (capability
// enforcement happens in the fragment package, not here).
//
// The engine compiles a plan.Node tree (the shared logical IR produced by
// plan.FromAST and rewritten by plan.Optimize) block by block — the block
// decomposition and the column-requirement analysis behind scan pushdown
// both come from plan.Block, never re-derived here. Each block compiles
// once (Engine.openBlock), kernel first: a single-table block over a
// columnar source is offered to the whole-block kernels before the worker
// count is looked at (see the last paragraph); everything else compiles
// into a segment: a morsel source plus the stages
// that run on every morsel — scan filter and projection, residual filters,
// join probes, the select list, DISTINCT and GROUP BY key computation. A
// driver (parallel.go) pulls the segment with the block's worker count;
// LIMIT truncates its output, and GROUP BY, window functions and ORDER BY
// are pipeline breakers that materialize it. The result is a pull-based,
// batch-at-a-time iterator: Engine.Select drains it into a materialized
// Result; Engine.Open exposes it so fragment chains and network nodes can
// process batches without holding whole intermediate relations. Scan nodes
// carry pruned column sets and pushed predicates into the source's scans,
// so unused columns never leave storage.
//
// The worker count is one number per segment: WithParallelism(n), or 1 for
// a block with a streaming LIMIT (so its O(limit + batch) storage-read
// guarantee holds); a block a whole-block kernel accepted has no segment
// and runs on the consumer's goroutine. With n > 1, workers pull sequence-numbered morsels from
// a shared cursor and an order-preserving exchange re-emits their output in
// morsel order; GROUP BY folds groups in parallel and hash-join builds are
// hash-partitioned across workers. With one worker the exchange is elided:
// the same stages run on the consumer's goroutine, one morsel per pull.
// Because the exchange restores morsel order — and each group folds its
// rows in that order — results are row-identical (floats included) and
// accounting-identical for every worker count: it is purely a performance
// knob.
//
// Over sources that serve column batches (ColScanner; storage.Store does),
// the hot paths run vectorized: filter conjuncts compile into comparison
// kernels over typed vectors refining a selection vector (vecscan.go, with
// the non-kernelizable suffix evaluated row-at-a-time on pivoted
// survivors), pure equi-joins probe by selection vector and gather both
// sides into typed joined batches (vecjoin.go) — a columnar source like a
// scan — and blocks over either — at any worker count — run whole
// on kernels where one fits: numeric projections, simple DISTINCT, GROUP BY
// and ORDER BY over plain columns (vecproject.go, vecblock.go, vecgroup.go,
// vecsort.go) — the two breakers read the vectors and pivot only group
// representatives and the rows a sort returns. A block that is
// nothing but scan, filters and a select list of stars and plain columns
// has nothing to evaluate per row: its iterator (vecPassIter) also
// implements schema.ColIterator and hands on the source's vectors re-sliced
// plus the surviving selection, which is how fragment stages exchange data
// without pivoting. OpenStage is Open plus the reason (Decline*) a block's
// output is rows instead. Every
// vectorized path is an internal fast path pinned bit-identical to the row
// stages — same rows, order, and error text — and declines to them whenever
// exact semantics would be at risk (windows, expression sort keys, boxed
// vectors, non-numeric expressions). Hashed operators share one key definition,
// schema.AppendGroupKey, built alloc-free from rows or vectors alike; a join
// never looks a NULL key up.
package engine
