package engine

import (
	"context"

	"paradise/internal/schema"
)

// This file holds the optional row-side extensions of Source and the LIMIT
// operator. Every other streaming operator is a stage of the segment
// pipeline (parallel.go); sort, grouping and window evaluation are pipeline
// breakers and stay in their materialized form (sort.go, group.go,
// window.go).

// SchemaSource is the optional capability of naming a relation's schema
// without touching its rows. storage.Store and the fragment chain's stage
// sources implement it; for any other source RelationSchema falls back to
// Relation, which materializes the relation.
type SchemaSource interface {
	RelationSchema(name string) (*schema.Relation, error)
}

// BatchSource is an optional extension of Source for sources that serve
// rows but no column batches: a relation opens as a pulled batch scan
// instead of being materialized. The fragment chain's stage source over a
// non-columnar base implements it; a ColScanner (storage.Store) is never
// read through it.
type BatchSource interface {
	Source
	SchemaSource
	// OpenScan opens a full-width batch scan bound to ctx, pulling up to
	// batchSize rows at a time (<= 0 means schema.DefaultBatchSize).
	// Implementations must check ctx per batch so cancellation stops the
	// scan promptly.
	OpenScan(ctx context.Context, name string, batchSize int) (schema.RowIterator, error)
}

// RelationSchema returns the schema of a named relation, avoiding row
// materialization when the source supports it.
func RelationSchema(src Source, name string) (*schema.Relation, error) {
	if ss, ok := src.(SchemaSource); ok {
		return ss.RelationSchema(name)
	}
	rel, _, err := src.Relation(name)
	return rel, err
}

// OpenScan opens a streaming full-width scan over a source that serves rows,
// adapting sources that only materialize with an in-memory scan bound to
// ctx.
func OpenScan(ctx context.Context, src Source, name string, batchSize int) (schema.RowIterator, error) {
	if bs, ok := src.(BatchSource); ok {
		return bs.OpenScan(ctx, name, batchSize)
	}
	_, rows, err := src.Relation(name)
	if err != nil {
		return nil, err
	}
	return schema.WithContext(ctx, schema.IterateRows(rows, batchSize)), nil
}

// limitIter truncates the stream after n rows and closes its source as soon
// as the limit is reached, so upstream scans stop pulling — a LIMIT-n query
// over a large base relation reads O(n + batch) rows from storage.
type limitIter struct {
	src       schema.RowIterator
	remaining int
}

func (l *limitIter) Next() (schema.Rows, error) {
	if l.remaining <= 0 {
		l.src.Close()
		return nil, nil
	}
	in, err := l.src.Next()
	if err != nil || in == nil {
		l.remaining = 0
		return nil, err
	}
	if len(in) >= l.remaining {
		// Copy before closing: Close may drain upstream (stage accounting),
		// which reuses the batch buffer this slice aliases.
		out := make(schema.Rows, l.remaining)
		copy(out, in)
		l.remaining = 0
		l.src.Close()
		return out, nil
	}
	l.remaining -= len(in)
	return in, nil
}

func (l *limitIter) Close() {
	l.remaining = 0
	l.src.Close()
}
