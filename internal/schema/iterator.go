package schema

import "context"

// This file defines the batch-iterator vocabulary shared by the storage,
// engine, fragment and network layers: relations flow through the
// execution pipeline as pulled batches of rows instead of fully materialized
// Rows slices, so intermediate memory is bounded by the batch size and a
// consumer that stops early (LIMIT) stops its producers too.

// DefaultBatchSize is the number of rows one iterator pull delivers when the
// caller does not choose a size. Small enough for an appliance-class node to
// hold a handful of batches, large enough to amortize per-pull overhead.
const DefaultBatchSize = 256

// RowIterator streams a relation batch-at-a-time. Next returns the next
// batch, or a nil batch when the source is exhausted. The returned slice is
// only valid until the following Next call (implementations may reuse the
// batch buffer); the rows inside it are immutable and may be retained.
// Close releases upstream resources and must be safe to call more than once;
// callers that stop before exhaustion must Close.
type RowIterator interface {
	Next() (Rows, error)
	Close()
}

// Project returns the relation restricted to the given column positions, in
// that order. A nil cols returns the receiver unchanged.
func (r *Relation) Project(cols []int) *Relation {
	if cols == nil {
		return r
	}
	out := &Relation{Name: r.Name, Columns: make([]Column, len(cols))}
	for i, c := range cols {
		out.Columns[i] = r.Columns[c]
	}
	return out
}

// SizeHinter is optionally implemented by iterators that can bound how many
// rows remain. DrainIterator pre-sizes its output from the hint; 0 means
// unknown. Hints must never under-report for exact sources, and operators
// that drop rows (filters) must not forward an upstream hint.
type SizeHinter interface{ SizeHint() int }

// sliceIterator serves batches as subslices of materialized rows: no copying
// and no per-batch allocation.
type sliceIterator struct {
	rows  Rows
	pos   int
	batch int
}

// IterateRows adapts materialized rows to the iterator interface. Batches
// alias the input slice.
func IterateRows(rows Rows, batchSize int) RowIterator {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &sliceIterator{rows: rows, batch: batchSize}
}

func (s *sliceIterator) Next() (Rows, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	end := s.pos + s.batch
	if end > len(s.rows) {
		end = len(s.rows)
	}
	out := s.rows[s.pos:end]
	s.pos = end
	return out, nil
}

func (s *sliceIterator) Close() { s.pos = len(s.rows) }

func (s *sliceIterator) SizeHint() int { return len(s.rows) - s.pos }

// WithContext binds an iterator to a context: every pull first checks the
// context and surfaces ctx.Err() once it is cancelled, so a cancelled
// consumer stops within one batch no matter how much input remains. A
// context that can never be cancelled (Background, TODO) adds no wrapper.
func WithContext(ctx context.Context, it RowIterator) RowIterator {
	if ctx == nil || ctx.Done() == nil {
		return it
	}
	return &ctxIterator{ctx: ctx, src: it}
}

type ctxIterator struct {
	ctx context.Context
	src RowIterator
}

func (c *ctxIterator) Next() (Rows, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	return c.src.Next()
}

func (c *ctxIterator) Close() { c.src.Close() }

func (c *ctxIterator) SizeHint() int {
	if h, ok := c.src.(SizeHinter); ok {
		return h.SizeHint()
	}
	return 0
}

// DrainIterator consumes an iterator to exhaustion, materializing all
// remaining rows, and closes it.
func DrainIterator(it RowIterator) (Rows, error) {
	defer it.Close()
	var out Rows
	if h, ok := it.(SizeHinter); ok {
		if n := h.SizeHint(); n > 0 {
			out = make(Rows, 0, n)
		}
	}
	for {
		b, err := it.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b...)
	}
}
