package fragment

import (
	"context"

	"paradise/internal/engine"
	logical "paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// This file serves a sensor stage that is the identity on its base table —
// SELECT * FROM base, no predicate — as a view of that table instead of
// running it. Such a stage's output is the table itself: the paper charges
// its every column as shipped, and the stage above reads two or three of
// them. Running it would decode every column of every segment only to hand
// most of them on unread. So the next stage opens the base table directly
// with its own columns and batch size (a serial scan, or morsels its
// workers decode in parallel), and the view stands in for the rest:
//
//   - Accounting: the stage's rows and bytes are the size of the one
//     snapshot the consumer reads, taken from the segments' seal-time wire
//     sizes — not summed per batch, since the batches carry only the
//     consumer's columns.
//   - Integrity: every column the stage ships is still verified. Opening a
//     segment checksums its unread column regions, and Close checksums the
//     segments the consumer never reached — where the drain of a running
//     stage decoded them. A rotted column fails the query with the same
//     error, attributed to this stage, whether or not anyone reads it.
//
// Nothing here may pivot a batch to rows (scripts/vecguard.sh).

// viewScanner is a columnar base that can serve a table as a view
// (storage.Store). A base without it runs its sensor stage like any other
// stage; a source that embeds the store inherits it, and its sensor stage
// then reads the store's view, not the source's own OpenColScan.
type viewScanner interface {
	engine.ColScanner
	OpenColView(ctx context.Context, name string, sc schema.ColScan) (schema.ColView, error)
}

// viewStage is a sensor stage served as a view of its base table.
type viewStage struct {
	f     *Fragment
	ctx   context.Context // the chain's: every scan of the chain is bound to it
	base  viewScanner
	table string
	rel   *schema.Relation // the stage output: the table's schema named f.Output
	view  schema.ColView   // the snapshot, once the consumer (or Close) opened it
	rows  int
	bytes int
	done  bool
	err   error
}

// newViewStage returns plan's first stage as a view when it is the
// identity on a base table the base can serve as one, and a later stage
// consumes it; otherwise nil, and the stage runs.
func newViewStage(ctx context.Context, plan *Plan, base engine.Source) *viewStage {
	vs, ok := base.(viewScanner)
	if !ok || len(plan.Fragments) < 2 {
		return nil
	}
	f := plan.Fragments[0]
	table, ok := identityScan(f.Root)
	if !ok {
		return nil
	}
	rel, err := engine.RelationSchema(base, table)
	if err != nil {
		return nil // running the stage reports the error as it always has
	}
	return &viewStage{f: f, ctx: ctx, base: vs, table: table, rel: rel.Clone(f.Output)}
}

// identityScan reports the table a stage root reads when the root is
// Project * over a Scan with no predicate and no column list.
func identityScan(root logical.Node) (string, bool) {
	p, ok := root.(*logical.Project)
	if !ok || len(p.Items) != 1 || p.Items[0].Alias != "" {
		return "", false
	}
	if star, ok := p.Items[0].Expr.(*sqlparser.Star); !ok || star.Table != "" {
		return "", false
	}
	s, ok := p.Input.(*logical.Scan)
	if !ok || s.Predicate != nil || s.Columns != nil {
		return "", false
	}
	return s.Table, true
}

// open takes the stage's one snapshot for a consumer of sc and accounts
// its size. The view ignores sc.Predicate: the stage ships every row.
func (v *viewStage) open(sc schema.ColScan) (schema.ColView, error) {
	view, err := v.base.OpenColView(v.ctx, v.table, sc)
	if err != nil {
		return nil, wrapStage(v.f, err)
	}
	v.view = view
	v.rows, v.bytes = view.Size()
	return view, nil
}

func (v *viewStage) scan(sc schema.ColScan) (schema.ColIterator, error) {
	view, err := v.open(sc)
	if err != nil {
		return nil, err
	}
	return &viewScan{f: v.f, it: view.Scan()}, nil
}

func (v *viewStage) morsels(sc schema.ColScan) (schema.ColMorselSource, error) {
	view, err := v.open(sc)
	if err != nil {
		return nil, err
	}
	return &viewMorsels{f: v.f, ms: view.Morsels()}, nil
}

// close finishes the stage after its consumer closed: it verifies what the
// consumer did not reach. A consumer that never opened its input still
// leaves the stage to ship, account and verify the whole table.
func (v *viewStage) close() {
	if v.done {
		return
	}
	v.done = true
	if v.view == nil {
		if _, err := v.open(schema.ColScan{Columns: []int{}}); err != nil {
			v.err = err
			return
		}
	}
	if err := v.view.Verify(); err != nil {
		v.err = wrapStage(v.f, err)
	}
}

func (v *viewStage) result() StageResult {
	return StageResult{Fragment: v.f, Rows: v.rows, Bytes: v.bytes, Columnar: true}
}

// viewScan is the view's serial face; errors are the sensor stage's.
type viewScan struct {
	f  *Fragment
	it schema.ColIterator
}

func (s *viewScan) NextBatch() (*schema.ColBatch, error) {
	cb, err := s.it.NextBatch()
	if err != nil {
		return nil, wrapStage(s.f, err)
	}
	return cb, nil
}

func (s *viewScan) Close() { s.it.Close() }

func (s *viewScan) SizeHint() int { return sizeHint(s.it) }

// viewMorsels is the view's parallel face: storage's lock-free morsel
// cursor, so segments decode in the claiming workers.
type viewMorsels struct {
	f  *Fragment
	ms schema.ColMorselSource
}

func (m *viewMorsels) NextColMorsel() (schema.ColMorsel, error) {
	cm, err := m.ms.NextColMorsel()
	if err != nil {
		err = wrapStage(m.f, err)
	}
	return cm, err
}

func (m *viewMorsels) Close() { m.ms.Close() }

func (m *viewMorsels) SizeHint() int { return sizeHint(m.ms) }

func sizeHint(x any) int {
	if h, ok := x.(schema.SizeHinter); ok {
		return h.SizeHint()
	}
	return 0
}
