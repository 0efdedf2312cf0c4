package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"paradise/internal/engine"
	"paradise/internal/fragment"
	"paradise/internal/policy"
	"paradise/internal/rewrite"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
	"paradise/internal/storage"
)

// cacheStore builds a small deterministic d with a sensitive column, so
// Figure 4 denials are reachable.
func cacheStore(t testing.TB) *storage.Store {
	t.Helper()
	st := storage.NewStore()
	tab := st.Create(schema.NewRelation("d",
		schema.SensitiveCol("user", schema.TypeString),
		schema.Col("x", schema.TypeFloat),
		schema.Col("y", schema.TypeFloat),
		schema.Col("z", schema.TypeFloat),
		schema.Col("t", schema.TypeInt),
	))
	for i := 0; i < 64; i++ {
		if err := tab.Append(schema.Row{
			schema.String(fmt.Sprintf("u%d", i%3)),
			schema.Float(float64(i % 8)),
			schema.Float(float64(i % 6)),
			schema.Float(0.5 + float64(i%30)/10),
			schema.Int(int64(i) * 50),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func cachedProcessor(t testing.TB, st *storage.Store, pol *policy.Policy, c *PlanCache) *Processor {
	t.Helper()
	p, err := New(Config{Store: st, Policy: pol, Cache: c, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// allowAllActionFilter is a second policy under the same module ID as
// Figure 4 but with different rules: everything plainly allowed. Same SQL,
// same module — only the policy fingerprint tells cache entries apart.
func allowAllActionFilter() *policy.Policy { return allowAll("user", "x", "y", "z", "t") }

func wantStats(t *testing.T, c *PlanCache, hits, misses uint64, size int) {
	t.Helper()
	s := c.Stats()
	if s.Hits != hits || s.Misses != misses || s.Size != size {
		t.Fatalf("cache stats = hits %d misses %d size %d, want %d/%d/%d",
			s.Hits, s.Misses, s.Size, hits, misses, size)
	}
}

// TestPlanCacheHitOnRepeat: the second run of the same statement shape is a
// hit, including spelling variants that parse to the same normalized SQL.
func TestPlanCacheHitOnRepeat(t *testing.T) {
	c := NewPlanCache(0)
	p := cachedProcessor(t, cacheStore(t), policy.Figure4(), c)
	ctx := context.Background()

	if _, err := p.Process(ctx, "SELECT x, y FROM d", "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	wantStats(t, c, 0, 1, 1)
	if _, err := p.Process(ctx, "SELECT x, y FROM d", "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	wantStats(t, c, 1, 1, 1)
	// Different raw spelling, same parse: whitespace and keyword case
	// normalize away in the canonical rendering the key is built from.
	if _, err := p.Process(ctx, "select  x,   y from d", "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	wantStats(t, c, 2, 1, 1)
}

// TestPlanCacheDifferentPolicyMisses: two processors sharing one cache and
// one store, same SQL, same module ID, different policies — the second must
// miss and compile its own plan (the Figure 4 session injects x > y, the
// allow-all one must not inherit it).
func TestPlanCacheDifferentPolicyMisses(t *testing.T) {
	st := cacheStore(t)
	c := NewPlanCache(0)
	fig4 := cachedProcessor(t, st, policy.Figure4(), c)
	open := cachedProcessor(t, st, allowAllActionFilter(), c)
	ctx := context.Background()

	const q = "SELECT x, y FROM d"
	a, err := fig4.Process(ctx, q, "ActionFilter")
	if err != nil {
		t.Fatal(err)
	}
	b, err := open.Process(ctx, q, "ActionFilter")
	if err != nil {
		t.Fatal(err)
	}
	wantStats(t, c, 0, 2, 2)
	if a.RewrittenSQL == b.RewrittenSQL {
		t.Fatalf("policies shared a rewrite: %q", a.RewrittenSQL)
	}
	// Each processor now hits its own entry.
	if _, err := fig4.Process(ctx, q, "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	if _, err := open.Process(ctx, q, "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	wantStats(t, c, 2, 2, 2)
}

// TestPlanCacheEpochInvalidation: DDL on the store bumps the schema epoch,
// so the statement recompiles; the stale entry stays behind until the LRU
// evicts it (capacity, not correctness).
func TestPlanCacheEpochInvalidation(t *testing.T) {
	st := cacheStore(t)
	c := NewPlanCache(0)
	p := cachedProcessor(t, st, policy.Figure4(), c)
	ctx := context.Background()

	const q = "SELECT x, y FROM d"
	if _, err := p.Process(ctx, q, "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(ctx, q, "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	wantStats(t, c, 1, 1, 1)

	st.Create(schema.NewRelation("other", schema.Col("v", schema.TypeInt)))
	if _, err := p.Process(ctx, q, "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	wantStats(t, c, 1, 2, 2) // recompiled under the new epoch; old entry lingers
	if _, err := p.Process(ctx, q, "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	wantStats(t, c, 2, 2, 2)
}

// TestPlanCacheLRUBound: the cache never exceeds its capacity; the least
// recently used entry goes first, and a re-run of the evicted statement is
// a miss again.
func TestPlanCacheLRUBound(t *testing.T) {
	c := NewPlanCache(2)
	p := cachedProcessor(t, cacheStore(t), policy.Figure4(), c)
	ctx := context.Background()

	queries := []string{
		"SELECT x FROM d",
		"SELECT y FROM d",
		"SELECT t FROM d",
	}
	for _, q := range queries {
		if _, err := p.Process(ctx, q, "ActionFilter"); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Size != 2 || s.Evictions != 1 {
		t.Fatalf("after 3 inserts at capacity 2: size %d evictions %d", s.Size, s.Evictions)
	}
	// The first statement was the LRU victim: running it again misses.
	if _, err := p.Process(ctx, queries[0], "ActionFilter"); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Misses != 4 || got.Hits != 0 {
		t.Fatalf("evicted statement did not miss: %+v", got)
	}
}

// TestPlanCacheNeverCachesDenials: a policy-denied statement recompiles
// (and re-denies) on every run; nothing is inserted.
func TestPlanCacheNeverCachesDenials(t *testing.T) {
	c := NewPlanCache(0)
	p := cachedProcessor(t, cacheStore(t), policy.Figure4(), c)
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		_, err := p.Process(ctx, "SELECT user FROM d", "ActionFilter")
		if !errors.Is(err, rewrite.ErrDenied) {
			t.Fatalf("run %d: err = %v, want policy denial", i, err)
		}
	}
	wantStats(t, c, 0, 2, 0)
}

// TestPlanCacheSingleflight: N goroutines racing one cold key perform
// exactly one compilation — the leader's — and all requests succeed with
// the shared artifact. Run under -race this also proves the flight's
// publication ordering.
func TestPlanCacheSingleflight(t *testing.T) {
	c := NewPlanCache(0)
	p := cachedProcessor(t, cacheStore(t), policy.Figure4(), c)
	ctx := context.Background()

	var lowered atomic.Int64
	lowerPlanHook = func() { lowered.Add(1) }
	defer func() { lowerPlanHook = nil }()

	const workers = 16
	start := make(chan struct{})
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = p.Process(ctx, "SELECT x, y FROM d", "ActionFilter")
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if got := lowered.Load(); got != 1 {
		t.Fatalf("lowered %d plan trees for one cold key, want 1", got)
	}
	s := c.Stats()
	if s.Size != 1 {
		t.Fatalf("cache size = %d, want 1", s.Size)
	}
	// Every lookup still counts exactly once; how many were hits depends on
	// arrival timing, but at least the leader missed.
	if s.Hits+s.Misses != workers || s.Misses < 1 {
		t.Fatalf("lookup accounting off: hits %d misses %d, want %d total with >= 1 miss",
			s.Hits, s.Misses, workers)
	}
}

// TestPlanCacheSingleflightDenial: a failed flight caches nothing and every
// racing request re-derives its own denial.
func TestPlanCacheSingleflightDenial(t *testing.T) {
	c := NewPlanCache(0)
	p := cachedProcessor(t, cacheStore(t), policy.Figure4(), c)
	ctx := context.Background()

	const workers = 8
	start := make(chan struct{})
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = p.Process(ctx, "SELECT user FROM d", "ActionFilter")
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, rewrite.ErrDenied) {
			t.Fatalf("worker %d: err = %v, want policy denial", i, err)
		}
	}
	if s := c.Stats(); s.Size != 0 {
		t.Fatalf("denied statement was cached: size %d", s.Size)
	}
}

// TestPolicyFingerprint: equal rule content gives equal fingerprints
// regardless of instance identity; any rule difference changes it.
func TestPolicyFingerprint(t *testing.T) {
	a, b := policy.Figure4(), policy.Figure4()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("two Figure4 instances disagree on fingerprint")
	}
	if a.Fingerprint() == allowAllActionFilter().Fingerprint() {
		t.Fatal("different policies share a fingerprint")
	}
}

// scanLog wraps a store and records every columnar scan request it serves,
// keyed by table — the scan-counting view of what a compiled plan asks of
// storage.
type scanLog struct {
	*storage.Store
	mu    sync.Mutex
	scans map[string][]schema.ColScan
}

func (l *scanLog) record(name string, sc schema.ColScan) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.scans == nil {
		l.scans = map[string][]schema.ColScan{}
	}
	l.scans[name] = append(l.scans[name], sc)
}

func (l *scanLog) OpenColScan(ctx context.Context, name string, sc schema.ColScan) (schema.ColIterator, error) {
	l.record(name, sc)
	return l.Store.OpenColScan(ctx, name, sc)
}

func (l *scanLog) OpenColMorsels(ctx context.Context, name string, sc schema.ColScan) (schema.ColMorselSource, error) {
	l.record(name, sc)
	return l.Store.OpenColMorsels(ctx, name, sc)
}

// joinStore is a six-column fact table beside a small dimension.
func joinStore(t testing.TB) *storage.Store {
	t.Helper()
	st := storage.NewStore()
	r := st.Create(schema.NewRelation("r",
		schema.Col("sensor", schema.TypeInt),
		schema.Col("t", schema.TypeInt),
		schema.Col("temp", schema.TypeFloat),
		schema.Col("hum", schema.TypeFloat),
		schema.Col("batt", schema.TypeFloat),
		schema.Col("status", schema.TypeString),
	))
	for i := 0; i < 600; i++ {
		if err := r.Append(schema.Row{
			schema.Int(int64(i % 20)), schema.Int(int64(i)), schema.Float(20), schema.Float(float64(i % 100)),
			schema.Float(90), schema.String("ok"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := st.Create(schema.NewRelation("s",
		schema.Col("sensor", schema.TypeInt),
		schema.Col("room", schema.TypeString),
		schema.Col("floor", schema.TypeInt),
	))
	for i := 0; i < 20; i++ {
		if err := s.Append(schema.Row{schema.Int(int64(i)), schema.String(fmt.Sprintf("room-%d", i%4)), schema.Int(int64(i % 2))}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// allowAll is a policy whose ActionFilter module plainly allows the named
// attributes.
func allowAll(names ...string) *policy.Policy {
	mod := &policy.Module{ID: "ActionFilter"}
	for _, n := range names {
		mod.Attributes = append(mod.Attributes, &policy.Attribute{Name: n, Allow: true})
	}
	return &policy.Policy{Modules: []*policy.Module{mod}}
}

// TestCompiledFragmentsAreOptimized: the fragment roots a compiled statement
// executes have been through plan.Optimize — a join fragment's WHERE reaches
// the probe scan's kernels and its zone-map hint, and both sides are pruned
// to the columns the block reads — while everything the fragmenter and the
// placement derived from the unoptimized cut (the rendered fragment query,
// levels, estimates) is what it was.
func TestCompiledFragmentsAreOptimized(t *testing.T) {
	st := joinStore(t)
	pol := allowAll("sensor", "t", "temp", "hum", "batt", "status", "room", "floor")
	p := cachedProcessor(t, st, pol, nil)
	mod, _ := pol.ModuleByID("ActionFilter")
	const q = "SELECT s.room, COUNT(*) AS n, AVG(r.hum) AS avg_hum FROM r JOIN s ON r.sensor = s.sensor WHERE r.hum > 49.5 GROUP BY s.room"
	sel, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := p.compileStatement(sel, mod)
	if err != nil {
		t.Fatal(err)
	}

	// The same pipeline without the last step.
	root, err := lowerPlan(pr.rewritten)
	if err != nil {
		t.Fatal(err)
	}
	pr.report.Annotate(root, mod.ID)
	plain, err := fragment.New().FromPlan(root)
	if err != nil {
		t.Fatal(err)
	}
	plain.PlaceCostBased(p.statsSource())
	if len(pr.plan.Fragments) != 1 || len(plain.Fragments) != 1 {
		t.Fatalf("join statement compiled to %d fragments, want 1", len(pr.plan.Fragments))
	}
	got, want := pr.plan.Fragments[0], plain.Fragments[0]
	if got.SQL() != want.SQL() || got.MinLevel != want.MinLevel || got.Level != want.Level ||
		got.EstRows != want.EstRows || got.EstBytes != want.EstBytes || got.Description != want.Description {
		t.Fatalf("optimizing the fragment root changed its description:\n got %+v\nwant %+v", got, want)
	}
	if !strings.Contains(got.SQL(), "WHERE") {
		t.Fatalf("fragment query lost its WHERE: %s", got.SQL())
	}

	log := &scanLog{Store: st}
	res, err := engine.New(log).SelectPlan(context.Background(), got.Root)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.New(st).SelectPlan(context.Background(), want.Root)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, ref.Rows) || len(res.Rows) != 4 {
		t.Fatalf("optimized fragment returns %v, the fragmenter's cut %v", res.Rows, ref.Rows)
	}
	sameSet := func(got []int, want ...int) bool {
		got = append([]int(nil), got...)
		sort.Ints(got)
		return reflect.DeepEqual(got, want)
	}
	probe := log.scans["r"]
	if len(probe) != 1 || !sameSet(probe[0].Columns, 0, 3) {
		t.Fatalf("probe scans of r = %+v, want one scan of the two columns sensor and hum", probe)
	}
	if len(probe[0].Predicate) != 1 || probe[0].Predicate[0].Op != schema.PredGt || probe[0].Predicate[0].Col != 3 {
		t.Fatalf("probe scan predicate = %+v, want hum > 49.5", probe[0].Predicate)
	}
	build := log.scans["s"]
	if len(build) != 1 || !sameSet(build[0].Columns, 0, 1) {
		t.Fatalf("build scans of s = %+v, want one scan of the two columns sensor and room", build)
	}

	// The fragmenter's own cut asks for every column and no predicate.
	log = &scanLog{Store: st}
	if _, err := engine.New(log).SelectPlan(context.Background(), want.Root); err != nil {
		t.Fatal(err)
	}
	if sc := log.scans["r"][0]; sc.Columns != nil || sc.Predicate != nil {
		t.Fatalf("unoptimized probe scan = %+v, want full width and no predicate (is the test still telling the two apart?)", sc)
	}
}
