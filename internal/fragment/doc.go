// Package fragment implements the vertical fragmentation of queries from
// Grunert & Heuer §4: a (rewritten) query Q against the integrated sensor
// database d is decomposed into pushed-down fragments Q1..Qj that execute as
// close to the data sources as possible, plus a remainder Qδ for the more
// powerful nodes — Q(d) → Qδ(d′). The capability ladder follows Table 1:
//
//	E1 cloud      — complex ML in R, SQL:2003 with UDFs
//	E2 PC         — SQL-92 (we include window functions, which the paper's
//	                local server executes for the regression analysis)
//	E3 appliance  — "SQL light" with joins, attribute comparisons,
//	                projections, grouping/aggregation (the media center)
//	E4 sensor     — filters against constants and simple stream aggregates;
//	                cannot project single attributes (SELECT * only)
//
// Decomposition walks the plan's spine of query blocks with plan.SplitBlock
// (the block-shape and column-requirement rules live in internal/plan;
// this package only decides placement levels and conjunct partitioning).
//
// Execution side (execute.go): OpenChain wires a plan's fragments into one
// lazy batch pipeline — each stage's output feeds the next stage's scan —
// with per-stage row/byte accounting that is finalized by draining on
// Close, so stats match the fully materialized baseline even when the
// consumer stops early. A stage whose block compiled to kernels only
// (engine.OpenStage) ships schema.ColBatches, and the next stage reads
// them through an engine.ColScanner (colstage.go), so its kernels run on
// the upstream vectors and only the stage that finally needs rows pivots;
// any other stage ships rows. A batch weighs exactly what its rows weigh
// (ColBatch.WireSize), so the representation never shows in the
// accounting; StageResult records which one a stage used, and why. A
// sensor stage that is SELECT * without a predicate is not run at all when
// a later stage reads it (view.go): the next stage scans the base table
// with its own columns, and the stage is accounted from that scan's
// snapshot and verified on Close.
// WithParallelism lets each stage's engine pipeline run morsel-parallel
// where no whole-block kernel took the stage; batch sums are
// order-independent, so the accounting stays bit-identical to serial
// execution.
package fragment
