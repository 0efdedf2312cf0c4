package core

import (
	"container/list"
	"strconv"
	"strings"
	"sync"

	"paradise/internal/engine"
	"paradise/internal/fragment"
	logical "paradise/internal/plan"
	"paradise/internal/policy"
	"paradise/internal/rewrite"
	"paradise/internal/sqlparser"
)

// prepared is the immutable product of the per-statement compilation
// pipeline — rewrite → lower → annotate → fragment — for one statement
// shape under one policy module. Everything in it is shared read-only
// across the requests that hit the cache: fragment execution compiles the
// plan trees into fresh operator pipelines without mutating them (the
// plan.Block Rebuild invariant), and the rewrite report is only read after
// construction. The satisfaction check and the chain execution stay
// per-request — they depend on the data, not the statement.
type prepared struct {
	rewritten    *sqlparser.Select
	rewrittenSQL string
	report       *rewrite.Report
	plan         *fragment.Plan
}

// CacheStats is a point-in-time snapshot of plan-cache effectiveness.
type CacheStats struct {
	// Hits and Misses count lookups; a miss is followed by a compile and,
	// on success, an insert. Denied or malformed statements count as misses
	// but are never inserted, so they recompile (and re-deny) every time.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries pushed out by the LRU capacity bound.
	// Entries keyed by a stale schema epoch linger until evicted — they can
	// never be looked up again, so staleness costs capacity, not
	// correctness.
	Evictions uint64 `json:"evictions"`
	// Size and Capacity describe the current occupancy.
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
}

// PlanCache memoizes prepared statements across the sessions that share it.
// Keys combine the normalized SQL (the canonical rendering of the parsed
// statement, so spelling variants collide), the policy module, the policy
// fingerprint (sessions with different policies never share plans, even on
// identical SQL) and the store's schema epoch (any DDL shifts the epoch,
// orphaning every earlier entry). It is safe for concurrent use and bounded
// by an LRU over lookup recency.
//
// A PlanCache is optional: sessions without one (the default) compile every
// statement per call, exactly as before.
type PlanCache struct {
	mu        sync.Mutex
	cap       int
	entries   map[string]*list.Element
	lru       *list.List // front = most recently used
	inflight  map[string]*flight
	hits      uint64
	misses    uint64
	evictions uint64
}

// flight coalesces concurrent compilations of one cold key: the first
// misser becomes the leader and compiles; everyone else blocks on done and
// shares the leader's artifact. pr is nil after a failed flight — waiters
// then compile (and re-deny, re-journal) for themselves, preserving the
// denials-are-never-cached contract per request.
type flight struct {
	done chan struct{}
	pr   *prepared
}

type cacheEntry struct {
	key string
	pr  *prepared
}

// DefaultPlanCacheSize bounds a NewPlanCache(0) cache: generous for any
// realistic statement-shape population, small enough that stale-epoch
// leftovers are irrelevant.
const DefaultPlanCacheSize = 256

// NewPlanCache creates a plan cache holding at most capacity prepared
// statements (<= 0 selects DefaultPlanCacheSize).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{
		cap:      capacity,
		entries:  make(map[string]*list.Element, capacity),
		lru:      list.New(),
		inflight: make(map[string]*flight),
	}
}

// acquire is the singleflight lookup: a present key is a hit; a cold key is
// a miss that either joins the in-progress flight for that key or starts a
// new one (leader=true — the caller must compile and call complete). A
// lookup that joins an existing flight is counted later, when the flight
// resolves (coalescedHit/coalescedMiss) — whether it was effectively a hit
// depends on whether the leader's compile succeeds. Every lookup still
// counts exactly one hit or one miss.
func (c *PlanCache) acquire(key string) (pr *prepared, fl *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).pr, nil, false
	}
	if fl, ok := c.inflight[key]; ok {
		return nil, fl, false
	}
	c.misses++
	fl = &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	return nil, fl, true
}

// coalescedHit and coalescedMiss account a lookup that joined an in-flight
// compilation, once its outcome is known: sharing the leader's artifact is
// a hit (this lookup compiled nothing), while a failed flight's
// per-request recompile is a miss. With this split, Misses counts actual
// lookup-triggered compiles, so a burst of concurrent misses on one cold
// key reports one miss and N−1 hits.
func (c *PlanCache) coalescedHit() {
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
}

func (c *PlanCache) coalescedMiss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

// complete finishes a flight: a successful artifact is inserted before the
// flight is retired, so lookups arriving in between hit the cache instead
// of starting a redundant compile. Closing done releases the waiters (the
// channel close orders fl.pr's publication before their reads).
func (c *PlanCache) complete(key string, fl *flight, pr *prepared) {
	if pr != nil {
		c.put(key, pr)
	}
	c.mu.Lock()
	fl.pr = pr
	delete(c.inflight, key)
	c.mu.Unlock()
	close(fl.done)
}

// put inserts a prepared statement, evicting the least recently used entry
// beyond capacity.
func (c *PlanCache) put(key string, pr *prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).pr = pr
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, pr: pr})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.lru.Len(),
		Capacity:  c.cap,
	}
}

// cacheKey builds the composite lookup key for one statement under one
// module. The components are joined with NUL — none of them can contain it
// (SQL rendering escapes control characters, module IDs are validated
// identifiers, the fingerprint is hex, the epoch decimal) — so distinct
// component tuples never collide.
func (p *Processor) cacheKey(sel *sqlparser.Select, mod *policy.Module) string {
	var b strings.Builder
	b.WriteString(sel.SQL())
	b.WriteByte(0)
	b.WriteString(strings.ToLower(mod.ID))
	b.WriteByte(0)
	b.WriteString(p.polFP)
	b.WriteByte(0)
	b.WriteString(strconv.FormatUint(p.store.Epoch(), 10))
	return b.String()
}

// prepared returns the statement's compiled form — rewritten SQL, rewrite
// report, fragment plan — consulting the plan cache when the processor has
// one. Compile errors (policy denials, unsupported shapes) are never
// cached: they recompile per request so every denial is re-derived and
// journaled from a live evaluation.
//
// Concurrent misses on one cold key are coalesced (singleflight): the first
// misser compiles once for everyone, waiters block on the flight and share
// the artifact. A failed flight releases its waiters to compile for
// themselves — errors stay per-request, never shared, never cached.
func (p *Processor) preparedFor(sel *sqlparser.Select, mod *policy.Module) (*prepared, error) {
	if p.cache == nil {
		return p.compileStatement(sel, mod)
	}
	key := p.cacheKey(sel, mod)
	pr, fl, leader := p.cache.acquire(key)
	if pr != nil {
		return pr, nil
	}
	if !leader {
		<-fl.done
		if fl.pr != nil {
			p.cache.coalescedHit()
			return fl.pr, nil
		}
		p.cache.coalescedMiss()
		return p.compileStatement(sel, mod)
	}
	pr, err := p.compileStatement(sel, mod)
	p.cache.complete(key, fl, pr)
	return pr, err
}

// optimizeFragments optimizes each fragment's executable tree once, so what
// every execution of the plan opens has its predicates in the scans (join
// sides included) and its scans pruned — a fragment is otherwise compiled
// exactly as the fragmenter cut it, and a join fragment would probe at full
// width and filter after the join. It runs last: the fragmenter's rendering
// (Fragment.Query), levels and the placement estimates all describe the
// unoptimized cut and are already fixed. CrossBlock stays off — a fragment is
// one block, and block boundaries are where the fragmenter put them. Roots
// share subtrees with the statement's plan, so each is cloned first.
func optimizeFragments(plan *fragment.Plan, cat logical.Catalog) {
	for _, f := range plan.Fragments {
		f.Root = logical.Optimize(logical.Clone(f.Root), logical.Options{Catalog: cat})
	}
}

// compileStatement runs the per-statement compilation pipeline: rewrite →
// lower → annotate → fragment → place → optimize fragments. The cost-based
// placement consults the store's live statistics; the placement it bakes
// into the plan persists for the entry's cache lifetime (until DDL shifts
// the epoch or the LRU evicts it).
func (p *Processor) compileStatement(sel *sqlparser.Select, mod *policy.Module) (*prepared, error) {
	rewritten, rep, err := p.rewriter.Rewrite(sel, mod)
	if err != nil {
		return nil, err
	}
	root, err := lowerPlan(rewritten)
	if err != nil {
		return nil, err
	}
	rep.Annotate(root, mod.ID)
	plan, err := fragment.New().FromPlan(root)
	if err != nil {
		return nil, err
	}
	plan.PlaceCostBased(StoreStats(p.store))
	optimizeFragments(plan, engine.New(p.store).Catalog())
	return &prepared{
		rewritten:    rewritten,
		rewrittenSQL: rewritten.SQL(),
		report:       rep,
		plan:         plan,
	}, nil
}
