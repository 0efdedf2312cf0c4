package fragment

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"paradise/internal/engine"
	logical "paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
	"paradise/internal/storage"
)

// rowOnly hides every optional capability of a source (SchemaSource,
// BatchSource, ColScanner), leaving Relation: the engine compiles every
// stage over it on the row path and every stage boundary ships rows. That
// makes the same plan over rowOnly the reference for the columnar chain.
type rowOnly struct{ src engine.Source }

func (r rowOnly) Relation(name string) (*schema.Relation, schema.Rows, error) {
	return r.src.Relation(name)
}

// The suites below are vacuous if the store stops serving column batches.
var _ engine.ColScanner = (*storage.Store)(nil)

// chainStores returns the corpus's small store, a multi-batch one with the
// same d(x, y, z, t) table, and that table on disk — several sealed
// segments and a non-empty tail — so selections, drained remainders,
// several morsels per stage, and sensor stages served as a view from
// segment footers and the tail are all exercised.
func chainStores(t *testing.T) map[string]*storage.Store {
	t.Helper()
	big := propertyStore(t, rand.New(rand.NewSource(7)), 1500)
	return map[string]*storage.Store{
		"small": testStore(t),
		"big":   big,
		"disk":  diskCopy(t, big, 200),
	}
}

// diskCopy copies every table of st into a store on disk, sealing a segment
// every segRows rows and leaving the remainder in the tail.
func diskCopy(t *testing.T, st *storage.Store, segRows int) *storage.Store {
	t.Helper()
	b, err := storage.NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out, err := storage.NewStoreWith(storage.Config{SegmentRows: segRows, Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range st.Names() {
		rel, rows, err := st.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := out.CreateTable(rel)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Append(rows...); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func requireSameStages(t *testing.T, label string, got, want []StageResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d stages, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Rows != want[i].Rows || got[i].Bytes != want[i].Bytes {
			t.Fatalf("%s: stage %d accounts %d rows / %d bytes, want %d / %d",
				label, i+1, got[i].Rows, got[i].Bytes, want[i].Rows, want[i].Bytes)
		}
	}
}

// TestColumnarChainMatchesRowChain runs the equivalence corpus through the
// chain over the store (stage boundaries columnar wherever the block allows)
// and over the capability-stripped source (rows everywhere), at one, two and
// four workers: same rows in the same order, same per-stage accounting.
func TestColumnarChainMatchesRowChain(t *testing.T) {
	queries := append([]string{"SELECT d.x, meta.label FROM d JOIN meta ON d.x = meta.x WHERE d.z < 2"}, equivalenceCorpus...)
	for name, st := range chainStores(t) {
		for _, q := range queries {
			if name != "small" && strings.Contains(q, "meta") {
				continue // the multi-batch store has no dimension table
			}
			plan := mustFragment(t, q)
			for _, workers := range []int{1, 2, 4} {
				label := name + " " + q
				col, err := Execute(context.Background(), plan, st, WithParallelism(workers))
				if err != nil {
					t.Fatalf("%s: columnar chain: %v", label, err)
				}
				row, err := Execute(context.Background(), plan, rowOnly{st}, WithParallelism(workers))
				if err != nil {
					t.Fatalf("%s: row chain: %v", label, err)
				}
				if !reflect.DeepEqual(col.Result.Rows, row.Result.Rows) {
					t.Fatalf("%s at %d workers: columnar chain rows differ from the row chain's", label, workers)
				}
				requireSameStages(t, label, col.Stages, row.Stages)
				for i, s := range row.Stages {
					if s.Columnar {
						t.Fatalf("%s: stage %d over the row-only source reports a columnar boundary", label, i+1)
					}
				}
				// The first stage of a single-table plan is SELECT * [WHERE
				// const filters]: kernels only, at any worker count.
				if plan.Fragments[0].MinLevel == LevelSensor && !col.Stages[0].Columnar {
					t.Fatalf("%s at %d workers: sensor stage shipped %s", label, workers, col.Stages[0].Path())
				}
			}
		}
	}
}

// flakySource fails every scan it opens after `after` batches. It is a
// plain BatchSource over the store's materialized rows, so the chain over it
// runs on rows; flakyColSource serves (and fails) column batches like the
// store — two sources that break at the same row position.
type flakySource struct {
	st    *storage.Store
	after int
	err   error
}

func (f *flakySource) Relation(name string) (*schema.Relation, schema.Rows, error) {
	return f.st.Relation(name)
}
func (f *flakySource) RelationSchema(name string) (*schema.Relation, error) {
	return f.st.RelationSchema(name)
}
func (f *flakySource) OpenScan(ctx context.Context, name string, batchSize int) (schema.RowIterator, error) {
	it, err := engine.OpenScan(ctx, rowOnly{f.st}, name, batchSize)
	if err != nil {
		return nil, err
	}
	return &flakyRows{src: it, left: f.after, err: f.err}, nil
}

type flakyColSource struct{ flakySource }

func (f *flakyColSource) OpenColScan(ctx context.Context, name string, sc schema.ColScan) (schema.ColIterator, error) {
	it, err := f.st.OpenColScan(ctx, name, sc)
	if err != nil {
		return nil, err
	}
	return &flakyBatches{src: it, left: f.after, err: f.err}, nil
}
func (f *flakyColSource) OpenColMorsels(ctx context.Context, name string, sc schema.ColScan) (schema.ColMorselSource, error) {
	it, err := f.OpenColScan(ctx, name, sc)
	if err != nil {
		return nil, err
	}
	return schema.ShareColIterator(it), nil
}

type flakyRows struct {
	src  schema.RowIterator
	left int
	err  error
}

func (f *flakyRows) Next() (schema.Rows, error) {
	if f.left <= 0 {
		return nil, f.err
	}
	f.left--
	return f.src.Next()
}
func (f *flakyRows) Close() { f.src.Close() }

type flakyBatches struct {
	src  schema.ColIterator
	left int
	err  error
}

func (f *flakyBatches) NextBatch() (*schema.ColBatch, error) {
	if f.left <= 0 {
		return nil, f.err
	}
	f.left--
	return f.src.NextBatch()
}
func (f *flakyBatches) Close() { f.src.Close() }

// pullUntilError drains the chain's final iterator, returning the rows
// delivered before the first error and that error.
func pullUntilError(t *testing.T, plan *Plan, src engine.Source, workers int) (schema.Rows, error) {
	t.Helper()
	chain, err := OpenChain(context.Background(), plan, src, WithParallelism(workers))
	if err != nil {
		return nil, err
	}
	defer chain.Close()
	var rows schema.Rows
	for {
		b, err := chain.Iterator().Next()
		if err != nil {
			return rows, err
		}
		if b == nil {
			return rows, chain.Close()
		}
		rows = append(rows, b...)
	}
}

// TestColumnarChainErrorPosition: an error surfaces at the same point of the
// stream with the same text whether the boundaries below it are columnar or
// not — for a source that breaks mid-scan and for a stage whose expression
// fails deep in the table — at one, two and four workers.
func TestColumnarChainErrorPosition(t *testing.T) {
	st := storage.NewStore()
	d := st.Create(schema.NewRelation("d",
		schema.Col("x", schema.TypeFloat),
		schema.Col("z", schema.TypeFloat),
	))
	rows := make(schema.Rows, 1000)
	for i := range rows {
		z := 1.0
		if i == 600 {
			z = 0 // x / z fails in the third batch
		}
		rows[i] = schema.Row{schema.Float(float64(i)), schema.Float(z)}
	}
	if err := d.Append(rows...); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sensor radio lost")
	cases := []struct {
		name     string
		q        string
		col, row engine.Source
		wantRows int
	}{
		{"stage error", "SELECT s FROM (SELECT x / z AS s FROM d)", st, rowOnly{st}, 2 * schema.DefaultBatchSize},
		{"source error", "SELECT x FROM d WHERE x >= 100",
			&flakyColSource{flakySource{st: st, after: 2, err: boom}},
			&flakySource{st: st, after: 2, err: boom}, 2*schema.DefaultBatchSize - 100},
	}
	for _, c := range cases {
		plan := mustFragment(t, c.q)
		for _, workers := range []int{1, 2, 4} {
			colRows, colErr := pullUntilError(t, plan, c.col, workers)
			rowRows, rowErr := pullUntilError(t, plan, c.row, workers)
			if colErr == nil || rowErr == nil {
				t.Fatalf("%s at %d workers: errors %v / %v, want both set", c.name, workers, colErr, rowErr)
			}
			if colErr.Error() != rowErr.Error() {
				t.Fatalf("%s at %d workers: error text differs:\ncolumnar: %v\nrows:     %v", c.name, workers, colErr, rowErr)
			}
			if strings.Count(colErr.Error(), "fragment: stage") != 1 {
				t.Fatalf("%s: error not attributed to exactly one stage: %v", c.name, colErr)
			}
			if len(colRows) != c.wantRows || !reflect.DeepEqual(colRows, rowRows) {
				t.Fatalf("%s at %d workers: %d rows before the error over columnar boundaries, %d over rows, want %d identical",
					c.name, workers, len(colRows), len(rowRows), c.wantRows)
			}
		}
	}
}

// TestColumnarBoundaryDrainAccounting: a consumer that closes after one
// batch, and a LIMIT in a later stage that stops pulling early, still leave
// every stage with the accounting of a full run when the boundaries below
// are columnar — the drain walks column batches instead of pivoting them.
func TestColumnarBoundaryDrainAccounting(t *testing.T) {
	st := chainStores(t)["big"]
	for _, q := range []string{
		"SELECT x, y FROM d WHERE x > y AND z < 2",                          // closed after one batch
		"SELECT s FROM (SELECT x, y AS s, z FROM d WHERE z < 3.5) LIMIT 2",  // columnar stages under a LIMIT
		"SELECT s FROM (SELECT x + y AS s, z FROM d WHERE z < 3.5) LIMIT 2", // a row stage in between
	} {
		plan := mustFragment(t, q)
		want := materializedBaseline(t, plan, st)
		for _, workers := range []int{1, 4} {
			chain, err := OpenChain(context.Background(), plan, st, WithParallelism(workers))
			if err != nil {
				t.Fatal(err)
			}
			if b, err := chain.Iterator().Next(); err != nil || len(b) == 0 {
				t.Fatalf("%q: first pull: %d rows, %v", q, len(b), err)
			}
			if err := chain.Close(); err != nil {
				t.Fatal(err)
			}
			got := chain.Stages()
			requireSameStages(t, q, got, want)
			if !got[0].Columnar || got[0].Rows < 2*schema.DefaultBatchSize {
				t.Fatalf("%q: stage 1 shipped %s, %d rows — the drain had nothing columnar to walk", q, got[0].Path(), got[0].Rows)
			}
		}
	}
}

// batchCountingSource counts the column batches storage hands out.
type batchCountingSource struct {
	*storage.Store
	batches atomic.Int64
}

func (c *batchCountingSource) OpenColScan(ctx context.Context, name string, sc schema.ColScan) (schema.ColIterator, error) {
	it, err := c.Store.OpenColScan(ctx, name, sc)
	if err != nil {
		return nil, err
	}
	return &countedBatches{src: it, n: &c.batches}, nil
}
func (c *batchCountingSource) OpenColMorsels(ctx context.Context, name string, sc schema.ColScan) (schema.ColMorselSource, error) {
	it, err := c.OpenColScan(ctx, name, sc)
	if err != nil {
		return nil, err
	}
	return schema.ShareColIterator(it), nil
}

type countedBatches struct {
	src schema.ColIterator
	n   *atomic.Int64
}

func (c *countedBatches) NextBatch() (*schema.ColBatch, error) {
	cb, err := c.src.NextBatch()
	if cb != nil {
		c.n.Add(1)
	}
	return cb, err
}
func (c *countedBatches) Close() { c.src.Close() }

// TestColumnarChainCancellation: cancelling mid-stream stops storage reads
// within one batch per stage, for the pull that observes it and for the
// drain-on-close that follows, and both report the cancellation.
func TestColumnarChainCancellation(t *testing.T) {
	src := &batchCountingSource{Store: chainStores(t)["big"]}
	plan := mustFragment(t, "SELECT x, y FROM d WHERE x >= 0 AND z < 9") // two columnar stages, nothing filtered out
	for _, workers := range []int{1, 4} {
		src.batches.Store(0)
		ctx, cancel := context.WithCancel(context.Background())
		chain, err := OpenChain(ctx, plan, src, WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chain.Iterator().Next(); err != nil {
			t.Fatal(err)
		}
		before := src.batches.Load()
		cancel()
		if _, err := chain.Iterator().Next(); !errors.Is(err, context.Canceled) {
			t.Fatalf("pull after cancel = %v, want context.Canceled", err)
		}
		if err := chain.Close(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Close after cancel = %v, want context.Canceled", err)
		}
		if read := src.batches.Load() - before; read > int64(len(plan.Fragments)) {
			t.Fatalf("%d workers: storage handed out %d more batches after the cancel, want at most one per stage (%d)",
				workers, read, len(plan.Fragments))
		}
		if total := src.batches.Load(); total >= 1500/schema.DefaultBatchSize {
			t.Fatalf("the cancelled chain read all %d batches", total)
		}
	}
}

// TestStageOutputReadTwiceColumnar: the one-shot rule holds on every entry
// point of a columnar stage source, in any order.
func TestStageOutputReadTwiceColumnar(t *testing.T) {
	st := testStore(t)
	rel, err := st.RelationSchema("d")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opens := map[string]func(*colStageSource) error{
		"OpenColScan": func(s *colStageSource) error {
			_, err := s.OpenColScan(ctx, "d1", schema.ColScan{})
			return err
		},
		"OpenColMorsels": func(s *colStageSource) error {
			_, err := s.OpenColMorsels(ctx, "d1", schema.ColScan{})
			return err
		},
		"OpenScan": func(s *colStageSource) error {
			_, err := s.OpenScan(ctx, "d1", 0)
			return err
		},
	}
	for first, open1 := range opens {
		for second, open2 := range opens {
			src := &colStageSource{
				stageSource: &stageSource{base: st, name: "d1", rel: rel.Clone("d1"), it: &stageIter{}},
				cbase:       st,
			}
			if err := open1(src); err != nil {
				t.Fatalf("%s: first read: %v", first, err)
			}
			err := open2(src)
			if !errors.Is(err, ErrFragment) || !strings.Contains(err.Error(), "read twice") {
				t.Fatalf("%s after %s = %v, want the read-twice error", second, first, err)
			}
			// Base relations stay readable any number of times.
			for i := 0; i < 2; i++ {
				if _, err := src.OpenColScan(ctx, "d", schema.ColScan{}); err != nil {
					t.Fatalf("base relation through the stage source: %v", err)
				}
			}
		}
	}
}

// TestOneWorkerChainStartsNoGoroutine extends the engine's
// TestOneWorkerStartsNoGoroutine to whole chains: with one worker, opening,
// every pull and closing a chain of up to four stages — columnar boundaries,
// the lock-guarded stage morsel source included — run on the caller's
// goroutine.
func TestOneWorkerChainStartsNoGoroutine(t *testing.T) {
	st := chainStores(t)["big"]
	deepest := 0
	for _, q := range equivalenceCorpus {
		plan := mustFragment(t, q)
		if len(plan.Fragments) > deepest {
			deepest = len(plan.Fragments)
		}
		before := runtime.NumGoroutine()
		check := func(when string) {
			t.Helper()
			if n := runtime.NumGoroutine(); n != before {
				t.Fatalf("%q: %d goroutines %s, %d before open", q, n, when, before)
			}
		}
		chain, err := OpenChain(context.Background(), plan, st, WithParallelism(1))
		check("after open")
		if err != nil {
			t.Fatal(err)
		}
		for {
			b, err := chain.Iterator().Next()
			check("after a pull")
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
		}
		if err := chain.Close(); err != nil {
			t.Fatal(err)
		}
		check("after close")
	}
	if deepest < 3 {
		t.Fatalf("deepest chain of the corpus has %d stages, want at least 3", deepest)
	}
}

// chainPlan builds a fragment plan stage by stage, for chain shapes the
// fragmenter does not produce: stage i reads its predecessor as d<i-1> and
// is visible to the next stage as d<i>. root is the monolithic statement
// the chain computes.
func chainPlan(t *testing.T, root string, stages ...string) *Plan {
	t.Helper()
	lower := func(q string) (*sqlparser.Select, logical.Node) {
		sel, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		n, err := logical.FromAST(sel)
		if err != nil {
			t.Fatal(err)
		}
		return sel, n
	}
	p := &Plan{}
	p.Original, p.Root = lower(root)
	for i, q := range stages {
		f := &Fragment{Stage: i + 1, MinLevel: LevelAppliance, Output: fmt.Sprintf("d%d", i+1), Description: "stage"}
		f.Query, f.Root = lower(q)
		if i > 0 {
			f.Input = p.Fragments[i-1].Output
		}
		p.Fragments = append(p.Fragments, f)
	}
	return p
}

// colOpenRecorder records every relation a chain opens as column batches.
type colOpenRecorder struct {
	*storage.Store
	mu     sync.Mutex
	tables []string
}

func (r *colOpenRecorder) record(name string) {
	r.mu.Lock()
	r.tables = append(r.tables, name)
	r.mu.Unlock()
}

func (r *colOpenRecorder) OpenColScan(ctx context.Context, name string, sc schema.ColScan) (schema.ColIterator, error) {
	r.record(name)
	return r.Store.OpenColScan(ctx, name, sc)
}

func (r *colOpenRecorder) OpenColMorsels(ctx context.Context, name string, sc schema.ColScan) (schema.ColMorselSource, error) {
	r.record(name)
	return r.Store.OpenColMorsels(ctx, name, sc)
}

// TestRowStageFeedsColumnarJoin: over a columnar base, a stage that ships
// rows (a GROUP BY) still reaches the next stage as column batches, so a
// join of its output with a base table runs on kernels, and that base
// table is read columnar — never through a row scan. Rows, order and the
// per-stage accounting equal the row-only chain's at every worker count.
func TestRowStageFeedsColumnarJoin(t *testing.T) {
	big := propertyStore(t, rand.New(rand.NewSource(11)), 1500)
	meta := big.Create(schema.NewRelation("meta",
		schema.Col("x", schema.TypeFloat),
		schema.Col("label", schema.TypeString),
	))
	for i := 0; i < 40; i += 3 { // every third x: the join drops the rest
		if err := meta.Append(schema.Row{schema.Float(float64(i) / 10), schema.String(fmt.Sprintf("m%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	p := chainPlan(t,
		"SELECT s.t, s.za, meta.label FROM (SELECT x, t, AVG(z) AS za FROM (SELECT * FROM d WHERE z < 3) AS d1 GROUP BY x, t) AS s JOIN meta ON s.x = meta.x",
		"SELECT * FROM d WHERE z < 3",
		"SELECT x, t, AVG(z) AS za FROM d1 GROUP BY x, t",
		"SELECT d2.t, d2.za, meta.label FROM d2 JOIN meta ON d2.x = meta.x",
	)
	for name, st := range map[string]*storage.Store{"small": testStore(t), "big": big} {
		for _, workers := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s at %d workers", name, workers)
			src := &colOpenRecorder{Store: st}
			col, err := Execute(context.Background(), p, src, WithParallelism(workers))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			row, err := Execute(context.Background(), p, rowOnly{st}, WithParallelism(workers))
			if err != nil {
				t.Fatalf("%s: row chain: %v", label, err)
			}
			if len(col.Result.Rows) == 0 || !reflect.DeepEqual(col.Result.Rows, row.Result.Rows) {
				t.Fatalf("%s: %d rows over the columnar base, %d over rows, want equal and non-empty",
					label, len(col.Result.Rows), len(row.Result.Rows))
			}
			requireSameStages(t, label, col.Stages, row.Stages)
			if got := col.Stages[1].Path(); got != "rows: "+engine.DeclineBreaker {
				t.Fatalf("%s: stage 2 shipped %s, want rows: %s", label, got, engine.DeclineBreaker)
			}
			if s := col.Stages[2]; s.Declined == engine.DeclineRowSource {
				t.Fatalf("%s: stage 3 read stage 2's rows as a row-only source (%s)", label, s.Path())
			}
			if !slices.Contains(src.tables, "meta") {
				t.Fatalf("%s: stage 3 did not open meta as column batches (opened %v)", label, src.tables)
			}
		}
	}
}
