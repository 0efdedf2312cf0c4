package fragment

import (
	"context"

	"paradise/internal/engine"
	"paradise/internal/schema"
)

// This file is the columnar half of a stage boundary: how a stage hands its
// output to the next stage as column batches when the chain's base is
// columnar. A stage whose block compiled to kernels only (engine.OpenStage
// returned a schema.ColIterator) hands on its own vectors, so the next
// stage's filter kernels, vectorized GROUP BY/DISTINCT and join probe run
// on them and nothing is pivoted in between; a stage that ships rows has
// each batch built into vectors once, at the boundary. Everything a stage
// boundary promises — drain-on-close, error attribution, the one-shot rule,
// exact row/byte accounting — is stageIter's and stageSource's (execute.go)
// and is shared with the row face; this file only adds the second
// representation. Nothing here may pivot a batch to rows: the one pivot of
// a chain is the engine's, paid by whoever finally wants rows
// (scripts/vecguard.sh checks this file like the kernels).
//
// Ownership of a batch that crosses: the vectors are read-only windows over
// storage (or over whatever the first stage scanned), the header and Sel
// belong to the puller and stay valid after later pulls, so a batch can sit
// with one worker while another claims the next.

// nextBatch is the stage's columnar face: the next batch of the stage's
// output, accounted by ColBatch.WireSize — byte for byte what its rows
// would have weighed. A stage without col builds the batch from its next
// rows, accounted once, by Next. Deliberately not an exported NextBatch: a
// stageIter can itself be the next stage's pipeline (an identity scan
// returns it as is), and must not look like a schema.ColIterator there
// unless its block is one.
func (s *stageIter) nextBatch() (*schema.ColBatch, error) {
	if s.col == nil {
		rows, err := s.Next()
		if err != nil || rows == nil {
			return nil, err
		}
		return schema.BatchFromRows(s.rel, rows), nil
	}
	cb, err := s.col.NextBatch()
	if err != nil {
		return nil, wrapStage(s.f, err)
	}
	if cb != nil {
		s.rows += cb.Len()
		s.bytes += cb.WireSize()
	}
	return cb, nil
}

// Columnar reports whether the final stage compiled to kernels only, i.e.
// whether the chain's result can be pulled as column batches (NextBatch)
// instead of rows (Iterator). It is a property of the compiled plan, fixed
// at OpenChain.
func (c *Chain) Columnar() bool { return c.stages[len(c.stages)-1].col != nil }

// NextBatch is the columnar face of Iterator: the final stage's next batch,
// nil when exhausted, accounted exactly like the rows Iterator would have
// delivered. Only valid on a Columnar chain. Both faces advance one stream.
func (c *Chain) NextBatch() (*schema.ColBatch, error) {
	return c.stages[len(c.stages)-1].nextBatch()
}

// sizeHint is the stage's remaining row count when its pipeline knows it (an
// unfiltered scan), for a breaker in the next stage pre-sizing its drain.
func (s *stageIter) sizeHint() int { return sizeHint(s.col) }

// colStageSource is a stageSource over a columnar base: it additionally
// implements engine.ColScanner, which is what makes the next stage's engine
// choose its kernels. Base relations resolve on the (columnar) base source.
// With view set the stage output is a view of the base table (view.go),
// opened with the consumer's own columns and batch size.
type colStageSource struct {
	*stageSource
	cbase engine.ColScanner
	view  *viewStage
}

// OpenColScan serves the stage output as column batches. Columns is honoured
// by re-slicing each batch's vectors; Predicate is a pruning hint for
// sources with zone maps and is ignored (the consumer filters anyway);
// batches arrive at the size the stage produces them.
func (s *colStageSource) OpenColScan(ctx context.Context, name string, sc schema.ColScan) (schema.ColIterator, error) {
	if name != s.name {
		return s.cbase.OpenColScan(ctx, name, sc)
	}
	if s.view != nil {
		if err := s.claim(); err != nil {
			return nil, err
		}
		return s.view.scan(sc)
	}
	it, err := s.take()
	if err != nil {
		return nil, err
	}
	return &colStageScan{it: it, cols: sc.Columns, rel: s.rel.Project(sc.Columns)}, nil
}

// OpenColMorsels serves the stage output to concurrent workers: pulls (and
// with them the stage's accounting and everything upstream) serialize behind
// one lock, the claiming workers' kernels run outside it. A view needs no
// lock: its workers claim storage's morsels and decode them themselves.
func (s *colStageSource) OpenColMorsels(ctx context.Context, name string, sc schema.ColScan) (schema.ColMorselSource, error) {
	if name != s.name {
		return s.cbase.OpenColMorsels(ctx, name, sc)
	}
	if s.view != nil {
		if err := s.claim(); err != nil {
			return nil, err
		}
		return s.view.morsels(sc)
	}
	ci, err := s.OpenColScan(ctx, name, sc)
	if err != nil {
		return nil, err
	}
	return schema.ShareColIterator(ci), nil
}

// colStageScan is one columnar read of a stage output: the stage's batches,
// narrowed to the requested columns.
type colStageScan struct {
	it   *stageIter
	cols []int // nil keeps the stage's full width
	rel  *schema.Relation
}

func (c *colStageScan) NextBatch() (*schema.ColBatch, error) {
	cb, err := c.it.nextBatch()
	if err != nil || cb == nil || c.cols == nil {
		return cb, err
	}
	vecs := make([]schema.ColVec, len(c.cols))
	for k, col := range c.cols {
		vecs[k] = cb.Vecs[col]
	}
	return &schema.ColBatch{Rel: c.rel, Vecs: vecs, N: cb.N, Sel: cb.Sel}, nil
}

func (c *colStageScan) Close() { c.it.Close() }

func (c *colStageScan) SizeHint() int { return c.it.sizeHint() }
