#!/bin/sh
# vecguard.sh — the vectorized kernels stay columnar.
#
# internal/engine/veckernel.go is the vectorized inner loop: comparison and
# NULL-test kernels that refine selection vectors over typed column payloads.
# internal/engine/vecjoin.go is the vectorized hash-join probe: group-key
# construction, selection-vector matching and gather over the same payloads.
# internal/engine/vecsort.go holds the typed sort keys (schema.KeyCol) the
# ORDER BY and window paths compare unboxed, and the vectorized ORDER BY
# (openVecSorted): its keys are appended from the key vectors
# (KeyCol.AppendVec) while the batches are retained unpivoted, and rows are
# built cell by cell only after the permutation — under LIMIT the top-K —
# is known. A ColBatch.Rows or RowAt there would pivot input the sort is
# about to discard.
# internal/fragment/colstage.go is the columnar branch of a fragment stage
# boundary (stageIter.nextBatch, colStageSource): batches are accounted by
# ColBatch.WireSize and handed to the next stage's kernels as they are.
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
# (vecscan.go residuals, vecblock.go/vecgroup.go output, the join's
# post-match gather into output rows), never to the kernels — and a stage
# boundary that pivots puts back the per-row boxing at every hop that the
# columnar chain removed.
set -eu
cd "$(dirname "$0")/.."

status=0
for f in internal/engine/veckernel.go internal/engine/vecjoin.go internal/engine/vecsort.go \
	internal/fragment/colstage.go server/ndjson.go; do
	hits=$(grep -n '\.Rows()\|RowAt\|schema\.Row\b' "$f" || true)
	if [ -n "$hits" ]; then
		echo "$f must stay columnar — no row pivots inside kernels or stage boundaries"
		echo "(ColBatch.Rows / RowAt / schema.Row belong to the pivot boundary):"
		echo "$hits"
		status=1
	fi
done
[ "$status" -eq 0 ] || exit "$status"
echo "vecguard: ok (kernels, columnar stage boundaries and the wire encoder are pivot-free)"
