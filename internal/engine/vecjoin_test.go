package engine

import (
	"context"
	"testing"
	"time"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/storage"
)

// A vectorized equi-join is a columnar source (vecjoin.go): its probe emits
// typed joined batches that the whole-block kernels take like a scan's. These
// tests hold that source against the row path — hashProbeStage feeding
// evalGrouped, evalBroken and the row stages over a rowOnly source — which
// stays the reference.

// joinStore builds the probe table r (1 500 rows: several batches, and with
// disk several 256-row segments decoded per scan) and the build sides that
// meet it in every awkward way:
//
//	r      k int: 0..9 and NULL (no dim row has 8 or 9); fk the same number as
//	       a float; s one of four strings; ts one of three instants; v floats
//	       whose sum depends on its order; name, a column dim has too
//	dim    k 1 three times (fan-out), a NULL key, key 77 nobody probes; w with
//	       a NULL; name; ts
//	fdim   the keys as floats: 1.0 must meet Int 1, 2.5 nothing
//	mixed  a key vector that holds ints, a float, a string and a NULL: boxed
//	empty  no row
func joinStore(t testing.TB, disk bool) *storage.Store {
	t.Helper()
	cfg := storage.Config{SegmentRows: 256}
	dir := t.TempDir()
	open := func() *storage.Store {
		if disk {
			b, err := storage.NewDiskBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Backend = b
		}
		st, err := storage.NewStoreWith(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	create := func(rel *schema.Relation, rows schema.Rows) {
		tab, err := st.CreateTable(rel)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Append(rows...); err != nil {
			t.Fatal(err)
		}
	}
	at := func(n int) schema.Value { return schema.Time(time.Unix(1458045000+int64(n)*60, 0).UTC()) }
	null := schema.Null()

	ss := []string{"a", "b", "", "a\x00"}
	vs := []float64{0.1, 1e16, -1e16, 3.25, 1e-9, -7}
	rows := make(schema.Rows, 0, 1500)
	for n := 0; n < 1500; n++ {
		k, fk := schema.Int(int64(n%10)), schema.Float(float64(n%10))
		if n%11 == 10 {
			k, fk = null, null
		}
		rows = append(rows, schema.Row{
			schema.Int(int64(n)), k, fk, schema.String(ss[n%len(ss)]), at(n % 3),
			schema.Float(vs[n%len(vs)] * float64(1+n%13)), schema.String(ss[(n/4)%len(ss)]),
		})
	}
	create(schema.NewRelation("r",
		schema.Col("id", schema.TypeInt), schema.Col("k", schema.TypeInt), schema.Col("fk", schema.TypeFloat),
		schema.Col("s", schema.TypeString), schema.Col("ts", schema.TypeTime), schema.Col("v", schema.TypeFloat),
		schema.Col("name", schema.TypeString)), rows)

	create(schema.NewRelation("dim",
		schema.Col("k", schema.TypeInt), schema.Col("name", schema.TypeString),
		schema.Col("w", schema.TypeFloat), schema.Col("ts", schema.TypeTime)),
		schema.Rows{
			{schema.Int(1), schema.String("one"), schema.Float(1.5), at(0)},
			{schema.Int(1), schema.String("uno"), null, at(1)},
			{schema.Int(2), schema.String("a"), schema.Float(-2), at(1)},
			{schema.Int(3), schema.String("b"), schema.Float(3), at(7)},
			{null, schema.String("none"), schema.Float(9), at(2)},
			{schema.Int(1), schema.String("one"), schema.Float(0.25), at(0)},
			{schema.Int(77), schema.String("far"), schema.Float(77), at(2)},
			{schema.Int(0), schema.String(""), schema.Float(4), at(2)},
			{schema.Int(5), schema.String("a"), schema.Float(5), at(0)},
			{schema.Int(6), schema.String("six"), schema.Float(6), at(1)},
			{schema.Int(7), schema.String("b"), schema.Float(7.5), at(2)},
			{schema.Int(4), schema.String("a\x00"), schema.Float(-4), at(0)},
		})
	create(schema.NewRelation("fdim", schema.Col("k", schema.TypeFloat), schema.Col("label", schema.TypeString)),
		schema.Rows{
			{schema.Float(1), schema.String("one")},
			{schema.Float(2.5), schema.String("between")},
			{schema.Float(3), schema.String("three")},
			{schema.Float(3), schema.String("tres")},
			{null, schema.String("none")},
		})
	create(schema.NewRelation("mixed", schema.Col("k", schema.TypeInt), schema.Col("label", schema.TypeString)),
		schema.Rows{
			{schema.Int(1), schema.String("int")},
			{schema.Float(2), schema.String("float")},
			{schema.String("3"), schema.String("string")},
			{null, schema.String("null")},
			{schema.Int(3), schema.String("int3")},
		})
	if disk {
		// Served from disk like a re-opened corpus: every scan decodes
		// segments.
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		st = open()
	}
	// A table without a row has no segment to recover: created last.
	create(schema.NewRelation("empty", schema.Col("k", schema.TypeInt), schema.Col("name", schema.TypeString)), nil)
	return st
}

// joinStatements is the corpus: want is the decline the whole-block kernel
// that takes the statement reports ("" serves column batches), DeclineLimit
// the statements whose rows come from the same probe through the segment.
var joinStatements = []struct{ sql, want string }{
	// GROUP BY + HAVING: the group key from the build side, the aggregate
	// argument from the probe side; key 1 fans out to three build rows.
	{"SELECT dim.name, COUNT(*) AS n, SUM(r.v) AS sv, AVG(r.v) AS av FROM r JOIN dim ON r.k = dim.k GROUP BY dim.name HAVING COUNT(*) > 3", DeclineBreaker},
	{"SELECT r.s, MIN(dim.w) AS lo, MAX(dim.w) AS hi, STDDEV(r.v) AS sd FROM r JOIN dim ON r.k = dim.k GROUP BY r.s", DeclineBreaker},
	{"SELECT COUNT(*) AS n, SUM(r.v) AS sv, SUM(dim.w) AS sw FROM r JOIN dim ON r.k = dim.k", DeclineBreaker},
	// LEFT JOIN: the null extension feeds COUNT(col) and AVG and is a group.
	{"SELECT r.s, COUNT(*) AS n, COUNT(dim.w) AS nw, AVG(dim.w) AS aw, COUNT(dim.name) AS nn FROM r LEFT JOIN dim ON r.k = dim.k GROUP BY r.s", DeclineBreaker},
	{"SELECT dim.name, COUNT(*) AS n, SUM(r.v) AS sv FROM r LEFT JOIN dim ON r.k = dim.k GROUP BY dim.name", DeclineBreaker},
	// Int keys meet Float keys; a string key; a time key; two key columns.
	{"SELECT fdim.label, COUNT(*) AS n, SUM(r.v) AS sv FROM r JOIN fdim ON r.k = fdim.k GROUP BY fdim.label", DeclineBreaker},
	{"SELECT dim.name, COUNT(*) AS n FROM r JOIN dim ON r.fk = dim.k GROUP BY dim.name", DeclineBreaker},
	{"SELECT dim.k, COUNT(*) AS n, AVG(r.v) AS av FROM r JOIN dim ON r.s = dim.name GROUP BY dim.k", DeclineBreaker},
	{"SELECT dim.name, COUNT(*) AS n FROM r JOIN dim ON r.ts = dim.ts GROUP BY dim.name", DeclineBreaker},
	{"SELECT dim.w, COUNT(*) AS n FROM r LEFT JOIN dim ON r.k = dim.k AND r.s = dim.name GROUP BY dim.w", DeclineBreaker},
	// A boxed key vector, on the build side and on the probe side.
	{"SELECT mixed.label, COUNT(*) AS n, SUM(r.v) AS sv FROM r JOIN mixed ON r.k = mixed.k GROUP BY mixed.label", DeclineBreaker},
	{"SELECT mixed.label, dim.name FROM mixed LEFT JOIN dim ON mixed.k = dim.k", ""},
	// A build side large enough for the partitioned index build, NULL keys
	// among its rows.
	{"SELECT b.s, COUNT(*) AS n, SUM(a.v) AS sv FROM r a JOIN r b ON a.k = b.k AND a.id = b.id GROUP BY b.s", DeclineBreaker},
	// Nothing on one side.
	{"SELECT r.s, COUNT(*) AS n FROM r JOIN empty ON r.k = empty.k GROUP BY r.s", DeclineBreaker},
	{"SELECT r.s, COUNT(*) AS n, COUNT(empty.name) AS nn FROM r LEFT JOIN empty ON r.k = empty.k GROUP BY r.s", DeclineBreaker},
	{"SELECT COUNT(*) AS n, SUM(dim.w) AS sw FROM empty JOIN dim ON empty.k = dim.k", DeclineBreaker},
	{"SELECT empty.name, dim.name FROM empty LEFT JOIN dim ON empty.k = dim.k", ""},
	// The same column name on both sides, told apart by qualifier.
	{"SELECT r.name, dim.name, COUNT(*) AS n FROM r JOIN dim ON r.k = dim.k GROUP BY r.name, dim.name", DeclineBreaker},
	{"SELECT dim.name, r.name FROM r JOIN dim ON r.k = dim.k WHERE r.id < 40", ""},
	// Block filters over the joined layout: a kernel, a residual, one on
	// the null-extended side, which stays above the join.
	{"SELECT dim.name, COUNT(*) AS n, SUM(r.v) AS sv FROM r JOIN dim ON r.k = dim.k WHERE r.v > dim.w GROUP BY dim.name", DeclineBreaker},
	{"SELECT r.id, dim.w FROM r JOIN dim ON r.k = dim.k WHERE r.v + dim.w > 3 AND r.id < 300", ""},
	{"SELECT r.s, COUNT(*) AS n FROM r LEFT JOIN dim ON r.k = dim.k WHERE dim.w IS NULL GROUP BY r.s", DeclineBreaker},
	// ORDER BY [LIMIT]: keys from either side, NULL keys, a key that is
	// projected away.
	{"SELECT r.id, dim.name FROM r JOIN dim ON r.k = dim.k ORDER BY dim.name DESC, r.id LIMIT 25", DeclineBreaker},
	{"SELECT r.id, dim.w FROM r LEFT JOIN dim ON r.k = dim.k ORDER BY dim.w, r.id DESC", DeclineBreaker},
	{"SELECT r.id FROM r JOIN dim ON r.k = dim.k WHERE r.v > 0 ORDER BY dim.w DESC, r.v LIMIT 10", DeclineBreaker},
	// DISTINCT.
	{"SELECT DISTINCT dim.name FROM r JOIN dim ON r.k = dim.k", DeclineDistinct},
	{"SELECT DISTINCT r.s, dim.w FROM r LEFT JOIN dim ON r.k = dim.k LIMIT 9", DeclineDistinct},
	// Plain projections: reordered columns, stars.
	{"SELECT dim.w, r.id, dim.name FROM r JOIN dim ON r.k = dim.k", ""},
	{"SELECT * FROM r LEFT JOIN dim ON r.k = dim.k", ""},
	{"SELECT dim.*, r.id FROM r JOIN dim ON r.k = dim.k WHERE r.s = 'a'", ""},
	// A computed select list over the joined batch.
	{"SELECT r.id, r.v * dim.w AS p FROM r JOIN dim ON r.k = dim.k", DeclineProjection},
	// A streaming LIMIT counts rows: the segment, over the same probe.
	{"SELECT r.id, dim.name FROM r JOIN dim ON r.k = dim.k LIMIT 7", DeclineLimit},
	{"SELECT r.id, dim.name FROM r LEFT JOIN dim ON r.k = dim.k WHERE dim.w IS NULL LIMIT 300", DeclineLimit},
}

func TestVecJoinMatchesRowPath(t *testing.T) {
	ctx := context.Background()
	for _, disk := range []bool{false, true} {
		st := joinStore(t, disk)
		for _, c := range joinStatements {
			rres, rerr := New(rowOnly{st}).Query(ctx, c.sql)
			if rerr != nil {
				t.Fatalf("%q: row path: %v", c.sql, rerr)
			}
			pres, perr := New(rowOnly{st}).WithParallelism(4).Query(ctx, c.sql)
			requireSameResult(t, c.sql, pres, perr, rres, rerr)
			for _, workers := range []int{1, 4} {
				eng := New(st).WithParallelism(workers)
				if c.want == DeclineLimit {
					requireVecJoin(t, eng, c.sql)
				} else {
					requireVecKernel(t, eng, c.sql, c.want)
				}
				vres, verr := eng.Query(ctx, c.sql)
				requireSameResult(t, c.sql, vres, verr, rres, rerr)
				if c.want == "" {
					requireSameResult(t, c.sql, drainColumnar(t, eng, c.sql), nil, rres, nil)
				}
			}
		}
	}
}

// requireVecJoin fails unless the statement's join compiles to the vectorized
// core.
func requireVecJoin(t *testing.T, eng *Engine, sql string) {
	t.Helper()
	root := plan.Optimize(mustPlan(t, sql), plan.Options{Catalog: eng.Catalog(), CrossBlock: true})
	_, src := plan.SplitBlock(root)
	core, _, err := eng.compileJoin(context.Background(), src.(*plan.Join), 1)
	if err != nil || core == nil {
		t.Fatalf("%q: the join did not vectorize (err %v)", sql, err)
	}
}

// drainColumnar pulls the statement's columnar face dry before it pivots a
// single batch — what a consumer that retains batches does — so a joined
// batch overwritten by a later probe would show.
func drainColumnar(t *testing.T, eng *Engine, sql string) *Result {
	t.Helper()
	root := plan.Optimize(mustPlan(t, sql), plan.Options{Catalog: eng.Catalog(), CrossBlock: true})
	rel, it, decline, err := eng.OpenStage(context.Background(), root)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	ci, ok := it.(schema.ColIterator)
	if !ok || decline != "" {
		t.Fatalf("%q: not served as column batches (decline %q)", sql, decline)
	}
	defer ci.Close()
	var batches []*schema.ColBatch
	for {
		cb, err := ci.NextBatch()
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if cb == nil {
			break
		}
		batches = append(batches, cb)
	}
	res := &Result{Schema: rel}
	for _, cb := range batches {
		res.Rows = append(res.Rows, cb.Rows()...)
	}
	return res
}

// twoSources serves g from hand-built batches and every other table from a
// store.
type twoSources struct {
	g    *batchSource
	rest *storage.Store
}

func (s twoSources) Relation(name string) (*schema.Relation, schema.Rows, error) {
	if name == "g" {
		return s.g.Relation(name)
	}
	return s.rest.Relation(name)
}

func (s twoSources) OpenColScan(ctx context.Context, name string, sc schema.ColScan) (schema.ColIterator, error) {
	if name == "g" {
		return s.g.OpenColScan(ctx, name, sc)
	}
	return s.rest.OpenColScan(ctx, name, sc)
}

func (s twoSources) OpenColMorsels(ctx context.Context, name string, sc schema.ColScan) (schema.ColMorselSource, error) {
	if name == "g" {
		return s.g.OpenColMorsels(ctx, name, sc)
	}
	return s.rest.OpenColMorsels(ctx, name, sc)
}

// TestVecJoinOverStageBatches joins what a stage boundary delivers — probe
// key vectors that change type, gain a mask and arrive boxed from batch to
// batch, one batch under a selection — so every batch picks its own probe
// (typed front or encoded index) and all land in the same matches.
func TestVecJoinOverStageBatches(t *testing.T) {
	for _, sql := range []string{
		"SELECT g.k, g.v, w.t FROM g JOIN w ON g.k = w.k",
		"SELECT g.k, w.t FROM g LEFT JOIN w ON g.k = w.k",
		"SELECT w.t, COUNT(*) AS n, SUM(g.v) AS sv FROM g LEFT JOIN w ON g.k = w.k GROUP BY w.t",
	} {
		src := twoSources{g: mixedBatches(), rest: vecStore(t, false)}
		vres, verr := New(src).Query(context.Background(), sql)
		rres, rerr := New(rowOnly{src}).Query(context.Background(), sql)
		requireSameResult(t, sql, vres, verr, rres, rerr)
	}
}

// TestJoinLimitStopsOpeningSegments: a streaming LIMIT n over a join reads
// O(n + batch) probe rows — the satisfied limit stops the probe scan opening
// segments, as it does for a bare scan.
func TestJoinLimitStopsOpeningSegments(t *testing.T) {
	st := segStore(t, 10_000, 128, false) // 78 sealed probe segments + tail
	cells, err := st.CreateTable(schema.NewRelation("cells",
		schema.Col("cell", schema.TypeInt), schema.Col("label", schema.TypeString)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := cells.Append(schema.Row{schema.Int(int64(i)), schema.String("room")}); err != nil {
			t.Fatal(err)
		}
	}
	const sql = "SELECT d.t, cells.label FROM d JOIN cells ON d.cell = cells.cell LIMIT 10"
	for _, workers := range []int{1, 4} {
		eng := New(st).WithParallelism(workers)
		requireVecJoin(t, eng, sql)
		before := st.StorageStats().SegmentsOpened
		res, err := eng.Query(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 10 {
			t.Fatalf("want 10 rows, got %d", len(res.Rows))
		}
		// The build side's one segment, and the probe's first few.
		if opened := st.StorageStats().SegmentsOpened - before; opened > 4 {
			t.Fatalf("LIMIT 10 over a join opened %d segments at %d workers, want <= 4 (of %d)",
				opened, workers, st.StorageStats().Segments)
		}
	}
}

// TestJoinNullKeysNeverMatch: NULL = NULL is not true, so a NULL key joins
// nothing on either side — in the vectorized probe, in the row hash probe
// (which used to look the NULL key up and find w's NULL-keyed row) and in
// the nested loops, which evaluate ON and are the reference here. A LEFT
// JOIN still keeps the NULL-keyed probe row, null-extended.
func TestJoinNullKeysNeverMatch(t *testing.T) {
	st := vecStore(t, false)
	ctx := context.Background()
	for _, kind := range []string{"JOIN", "LEFT JOIN"} {
		hash := "SELECT v.i, v.s, w.t FROM v " + kind + " w ON v.i = w.k"
		loop := "SELECT v.i, v.s, w.t FROM v " + kind + " w ON v.i <= w.k AND v.i >= w.k"
		want, err := New(rowOnly{st}).Query(ctx, loop)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range want.Rows {
			if r[0].IsNull() && !r[2].IsNull() {
				t.Fatalf("%q: the reference matched a NULL key: %v", loop, r)
			}
		}
		for _, src := range []Source{st, rowOnly{st}} {
			for _, workers := range []int{1, 4} {
				got, err := New(src).WithParallelism(workers).Query(ctx, hash)
				requireSameResult(t, hash, got, err, want, nil)
			}
		}
	}
}
