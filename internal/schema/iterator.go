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

// Predicate filters rows during a scan. It must not retain or mutate the row.
type Predicate func(Row) (bool, error)

// Scan describes a pushed-down scan over a named relation: an optional
// column projection, an optional row predicate (applied before projection,
// over the full-width row), and the batch size.
type Scan struct {
	// Columns selects positions of the scanned relation in output order;
	// nil keeps every column.
	Columns []int
	// Filter drops rows before projection; nil keeps every row.
	Filter Predicate
	// Predicate is the structured restatement of Filter's kernelizable
	// conjunct prefix (see ColPred): a pruning hint that lets storage skip
	// segments whose zone maps prove no row can pass. Filter remains
	// authoritative — setting Predicate without an implying Filter is a
	// caller bug. Must be nil when Filter is nil.
	Predicate []ColPred
	// BatchSize caps rows per pull; <= 0 means DefaultBatchSize.
	BatchSize int
}

// Empty reports whether the scan is a plain full-relation read.
func (sc Scan) Empty() bool { return sc.Columns == nil && sc.Filter == nil }

// batch normalizes the batch size.
func (sc Scan) batch() int {
	if sc.BatchSize <= 0 {
		return DefaultBatchSize
	}
	return sc.BatchSize
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

// scanIterator applies a Scan (filter then projection) to an upstream
// iterator, reusing one output buffer across pulls.
type scanIterator struct {
	src RowIterator
	sc  Scan
	buf Rows
}

// FilterProject wraps an iterator with a Scan's filter and projection. An
// empty scan returns the iterator unchanged.
func FilterProject(src RowIterator, sc Scan) RowIterator {
	if sc.Empty() {
		return src
	}
	return &scanIterator{src: src, sc: sc}
}

// ScanRows applies a Scan to materialized rows: the batch-iterator form of a
// table scan for sources that hold their relations in memory.
func ScanRows(rows Rows, sc Scan) RowIterator {
	return FilterProject(IterateRows(rows, sc.batch()), sc)
}

func (s *scanIterator) Next() (Rows, error) {
	for {
		in, err := s.src.Next()
		if err != nil {
			return nil, err
		}
		if in == nil {
			return nil, nil
		}
		// Projected rows share one backing array per batch: one allocation
		// per pull instead of one per row. The array is fresh each batch —
		// rows may be retained by consumers — only the header buffer is
		// reused.
		var vals []Value
		if s.sc.Columns != nil {
			vals = make([]Value, 0, len(in)*len(s.sc.Columns))
		}
		out := s.buf[:0]
		for _, r := range in {
			if s.sc.Filter != nil {
				ok, err := s.sc.Filter(r)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			if s.sc.Columns != nil {
				start := len(vals)
				for _, c := range s.sc.Columns {
					vals = append(vals, r[c])
				}
				r = vals[start:len(vals):len(vals)]
			}
			out = append(out, r)
		}
		if len(out) > 0 {
			s.buf = out
			return out, nil
		}
		// Every row of the batch was filtered out: pull again rather than
		// returning an ambiguous empty batch.
	}
}

func (s *scanIterator) Close() { s.src.Close() }

func (s *scanIterator) SizeHint() int {
	if s.sc.Filter != nil {
		return 0 // a filter may drop anything; no useful bound
	}
	if h, ok := s.src.(SizeHinter); ok {
		return h.SizeHint()
	}
	return 0
}

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
