package storage

import (
	"context"

	"paradise/internal/schema"
)

// A view serves a table as a fragment chain's sensor stage ships it —
// every column of every row — to a consumer that reads only some columns.
// It is one snapshot (snapshotScan with check) over the consumer's
// columns: the rows and wire bytes the whole table weighs come from the
// seal-time sizes every segment carries (a disk segment's CRC-checked
// footer) and the tail's running size, summed under the same lock that
// takes the parts. What the consumer does not read is never decoded, but
// no shipped byte goes unverified: opening an on-disk segment checksums
// its unread column regions too, and Verify checksums every segment the
// consumer never reached. A rotted column therefore fails the query with
// the error a full-width decode raises, whether or not anyone reads it.

// OpenView snapshots the table for a consumer of sc.Columns (nil keeps
// every column) pulling sc.BatchSize rows at a time. sc.Predicate is
// ignored: the stage a view stands for ships every segment, so none may be
// skipped. The view is bound to ctx like a scan, Verify included.
func (t *Table) OpenView(ctx context.Context, sc schema.ColScan) schema.ColView {
	return &tableView{ctx: ctx, snap: t.snapshotScan(sc.Columns, nil, true), batch: scanBatch(sc)}
}

type tableView struct {
	ctx   context.Context
	snap  *tableSnap
	batch int
}

func (v *tableView) Size() (rows, wireBytes int) { return v.snap.total, v.snap.wire }

func (v *tableView) Scan() schema.ColIterator { return snapScan(v.ctx, v.snap, v.batch) }

func (v *tableView) Morsels() schema.ColMorselSource { return snapMorsels(v.ctx, v.snap, v.batch) }

// Verify checksums the parts no pull opened, in row order, checking ctx
// before each: a cancelled query stops verifying within one segment.
func (v *tableView) Verify() error {
	for _, p := range v.snap.parts {
		if err := v.ctx.Err(); err != nil {
			return err
		}
		if err := p.verifyUnopened(); err != nil {
			return err
		}
	}
	return nil
}

// OpenColView opens a view of the named table (see Table.OpenView). It
// makes the store a base a fragment chain can serve its sensor stage from
// without running it.
func (s *Store) OpenColView(ctx context.Context, name string, sc schema.ColScan) (schema.ColView, error) {
	t, err := s.Table(name)
	if err != nil {
		return nil, err
	}
	return t.OpenView(ctx, sc), nil
}
