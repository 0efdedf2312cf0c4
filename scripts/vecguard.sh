#!/bin/sh
# vecguard.sh — the vectorized kernels stay columnar.
#
# internal/engine/veckernel.go is the vectorized inner loop: comparison and
# NULL-test kernels that refine selection vectors over typed column payloads.
# internal/engine/vecjoin.go is the vectorized hash join, a columnar source:
# group-key construction, typed probe fronts, selection-vector matching and a
# typed gather (ColVec.Gather) of both sides into one joined column batch.
# It neither takes nor returns a row: the build side arrives as a ColBatch,
# and a consumer that wants rows pivots the joined batch at the segment's one
# adapter (vecMorsels, vecscan.go). The pattern for this file is the tightest
# — schema.Rows and []schema.Value are out too.
# internal/engine/vecsort.go holds the typed sort keys (schema.KeyCol) the
# ORDER BY and window paths compare unboxed, and the vectorized ORDER BY
# (openVecSorted): its keys are appended from the key vectors
# (KeyCol.AppendVec) while the batches are retained unpivoted, and rows are
# built cell by cell only after the permutation — under LIMIT the top-K —
# is known. A ColBatch.Rows or RowAt there would pivot input the sort is
# about to discard.
# internal/fragment/colstage.go is the columnar branch of a fragment stage
# boundary (stageIter.nextBatch, colStageSource): batches are accounted by
# ColBatch.WireSize and handed to the next stage's kernels as they are; a
# stage that ships rows has them built into vectors (schema.BatchFromRows)
# once, rows to columns, never the other way.
# internal/fragment/view.go serves a sensor stage that is SELECT * over its
# base table as a view of that table: the next stage opens the table with
# its own columns, the stage is accounted from the scan snapshot, and what
# nobody reads is checksummed, never decoded — let alone pivoted.
# server/ndjson.go appends NDJSON row lines; its batch entry point
# (appendBatchRow, appendCell) reads the typed vectors of the final stage's
# batches, so a columnar result reaches the socket without ever being rows
# (its row entry point, appendRowLine, takes a paradise.Row it was given —
# which the pattern below does not match — and pivots nothing either).
#
# Their whole reason to exist is that no row is ever pivoted before the
# kernel decides; the moment one reaches for a row-major helper
# (ColBatch.Rows, ColBatch.RowAt, schema.Row values) the batch gets
# re-materialized per row and the vectorized path silently degrades to the
# row path with extra steps. Pivoting belongs to the boundary layers
# (vecscan.go residuals and the segment's morsel adapter,
# vecblock.go/vecgroup.go output), never to the kernels — and a stage
# boundary that pivots puts back the per-row boxing at every hop that the
# columnar chain removed.
set -eu
cd "$(dirname "$0")/.."

status=0
for f in internal/engine/veckernel.go internal/engine/vecjoin.go internal/engine/vecsort.go \
	internal/fragment/colstage.go internal/fragment/view.go server/ndjson.go; do
	pattern='\.Rows()\|RowAt\|schema\.Row\b'
	if [ "$f" = internal/engine/vecjoin.go ]; then
		pattern='\.Rows()\|RowAt\|schema\.Rows\?\b\|\[\]schema\.Value'
	fi
	hits=$(grep -n "$pattern" "$f" || true)
	if [ -n "$hits" ]; then
		echo "$f must stay columnar — no row pivots inside kernels or stage boundaries"
		echo "(ColBatch.Rows / RowAt / schema.Row belong to the pivot boundary):"
		echo "$hits"
		status=1
	fi
done
[ "$status" -eq 0 ] || exit "$status"
echo "vecguard: ok (kernels, columnar stage boundaries and the wire encoder are pivot-free)"
