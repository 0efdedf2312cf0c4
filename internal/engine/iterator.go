package engine

import (
	"context"

	"paradise/internal/schema"
)

// This file holds the BatchSource extension of Source and the LIMIT
// operator. Every other streaming operator is a stage of the segment
// pipeline (parallel.go); sort, grouping and window evaluation are pipeline
// breakers and stay in their materialized form (sort.go, group.go,
// window.go).

// BatchSource is an optional extension of Source: relations can be opened
// as pulled batch scans with projection and predicate pushdown, and schemas
// inspected without materializing rows. storage.Store implements it, and the
// fragment package implements it for intermediate stage outputs.
type BatchSource interface {
	Source
	// RelationSchema returns the schema of the named relation without
	// touching its rows.
	RelationSchema(name string) (*schema.Relation, error)
	// OpenScan opens a batch scan bound to ctx. The scan's Filter sees
	// full-width rows; Columns projects after filtering. Implementations
	// must check ctx per batch so cancellation stops the scan promptly.
	OpenScan(ctx context.Context, name string, sc schema.Scan) (schema.RowIterator, error)
}

// RelationSchema returns the schema of a named relation, avoiding row
// materialization when the source supports it.
func RelationSchema(src Source, name string) (*schema.Relation, error) {
	if bs, ok := src.(BatchSource); ok {
		return bs.RelationSchema(name)
	}
	rel, _, err := src.Relation(name)
	return rel, err
}

// OpenScan opens a streaming scan over any Source, adapting sources that
// only materialize with an in-memory scan bound to ctx.
func OpenScan(ctx context.Context, src Source, name string, sc schema.Scan) (schema.RowIterator, error) {
	if bs, ok := src.(BatchSource); ok {
		return bs.OpenScan(ctx, name, sc)
	}
	_, rows, err := src.Relation(name)
	if err != nil {
		return nil, err
	}
	return schema.FilterProject(schema.WithContext(ctx, schema.IterateRows(rows, sc.BatchSize)), sc), nil
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
