package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	paradise "paradise"
	"paradise/internal/anonymize"
	"paradise/internal/engine"
	"paradise/internal/fragment"
	"paradise/internal/network"
	"paradise/internal/plan"
	"paradise/internal/policy"
	"paradise/internal/rewrite"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// span is one timed call into a layer's public function, made from the
// harness. Spans of one replayed operation share Req; Parent is the span
// whose call would contain this one inside the program (0 for a call that
// is not on the operation's path, such as compiling a statement the plan
// cache would have served). The counter deltas are taken around the call.
type span struct {
	Req     int    `json:"req"`
	Span    int    `json:"span"`
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Class   string `json:"class"`
	StartNs int64  `json:"start_ns"` // since the traced pass began
	EndNs   int64  `json:"end_ns"`
	Rows    int    `json:"rows,omitempty"`  // rows the call produced
	Bytes   int    `json:"bytes,omitempty"` // response body bytes (server.http)

	SegmentsScanned int64 `json:"segments_scanned,omitempty"`
	SegmentsSkipped int64 `json:"segments_skipped,omitempty"`
	SegmentsOpened  int64 `json:"segments_opened,omitempty"`
	CacheHits       int64 `json:"plan_cache_hits,omitempty"`
	CacheMisses     int64 `json:"plan_cache_misses,omitempty"`

	// outerNs is the wall time of the call with its counter snapshots and
	// bookkeeping, the numerator of bench.trace_overhead_ratio.
	outerNs int64
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps the spans of a traced pass in memory.
type tracer struct {
	sys   *system
	begin time.Time
	spans []span
	req   int
	class string
}

// call times f as one span and returns the span's id.
func (t *tracer) call(parent int, name string, f func(*span) error) (int, error) {
	outer := time.Now()
	st0, pc0 := t.sys.store.StorageStats(), t.sys.cache.Stats()
	s := span{Req: t.req, Span: len(t.spans) + 1, Parent: parent, Name: name, Class: t.class,
		Layer: name[:strings.IndexByte(name, '.')]}
	start := time.Now()
	err := f(&s)
	end := time.Now()
	st1, pc1 := t.sys.store.StorageStats(), t.sys.cache.Stats()
	s.StartNs, s.EndNs = start.Sub(t.begin).Nanoseconds(), end.Sub(t.begin).Nanoseconds()
	s.SegmentsScanned = st1.SegmentsScanned - st0.SegmentsScanned
	s.SegmentsSkipped = st1.SegmentsSkipped - st0.SegmentsSkipped
	s.SegmentsOpened = st1.SegmentsOpened - st0.SegmentsOpened
	s.CacheHits = int64(pc1.Hits - pc0.Hits)
	s.CacheMisses = int64(pc1.Misses - pc0.Misses)
	t.spans = append(t.spans, s)
	t.spans[len(t.spans)-1].outerNs = time.Since(outer).Nanoseconds()
	if err != nil {
		err = fmt.Errorf("traced %s of %s: %w", name, t.class, err)
	}
	return s.Span, err
}

// selfTime is a span's duration minus its children's. The children were
// timed as separate calls, not inside the parent's interval, so noise can
// make the residual negative; it is then clamped to zero and the clamped
// amount kept, to be reported.
type selfTime struct {
	self    time.Duration
	clamped time.Duration
}

func selfTimes(spans []span) map[int]selfTime {
	children := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	out := make(map[int]selfTime, len(spans))
	for _, s := range spans {
		self := s.dur() - children[s.Span]
		if self < 0 {
			out[s.Span] = selfTime{clamped: -self}
		} else {
			out[s.Span] = selfTime{self: self}
		}
	}
	return out
}

// writeSpans stores the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedGCPercent is the collector target during the traced pass.
const tracedGCPercent = 400

// tracedOp is what one replayed operation established beyond its spans.
type tracedOp struct {
	class  string
	stages int
	raw    int64
	egress int64
}

// outsideReplays is how often a traced pass replays a class of another
// workload. Those replays only supply outside_workload, the values the
// benchmark contract wants on the last line for names the workload does not
// report itself: three give a median, and a round of the four full scans
// costs about a second.
const outsideReplays = 3

// replays is how often the workload's traced pass replays a class: in
// proportion to the class's weight in the mix, so the medians over the pass
// weigh the classes as the timed window does.
func (w *workload) replays(c *class) int {
	if !w.has(c) {
		return outsideReplays
	}
	return w.tracedReplays * c.weight
}

// overHTTP reports whether the class belongs to a workload that enters
// through the server; the others' requests have no HTTP span on their path.
func overHTTP(c *class) bool { return serveLookup.has(c) || serveExport.has(c) }

// allowAll is the module the facade generates for a tenant without a
// policy: every attribute of every relation permitted.
func allowAll(store *paradise.Store) *policy.Module {
	mod := &policy.Module{ID: "unrestricted"}
	seen := map[string]bool{}
	for _, name := range store.Names() {
		t, err := store.Table(name)
		if err != nil {
			continue
		}
		for _, c := range t.Schema().Columns {
			lower := strings.ToLower(c.Name)
			if !seen[lower] {
				seen[lower] = true
				mod.Attributes = append(mod.Attributes, &policy.Attribute{Name: lower, Allow: true})
			}
		}
	}
	return mod
}

// storeStats adapts the store's statistics to the plan estimator, the way
// core.Processor does for cost-based placement.
func storeStats(store *paradise.Store) plan.Stats {
	return func(table string) (*plan.TableStats, bool) {
		ts, err := store.TableStats(table)
		if err != nil {
			return nil, false
		}
		out := &plan.TableStats{Rows: float64(ts.Rows), Cols: make(map[string]plan.ColStats, len(ts.Cols))}
		if ts.Rows > 0 {
			out.RowBytes = float64(ts.Bytes) / float64(ts.Rows)
		}
		for _, c := range ts.Cols {
			cs := plan.ColStats{NDV: float64(c.NDV), HasRange: c.HasRange, Min: c.Min, Max: c.Max, AvgBytes: c.AvgBytes(ts.Rows)}
			if ts.Rows > 0 {
				cs.NullFrac = float64(c.Nulls) / float64(ts.Rows)
			}
			if c.Hist != nil {
				cs.Hist = c.Hist
			}
			out.Cols[strings.ToLower(c.Name)] = cs
		}
		return out, true
	}
}

// drain pulls an iterator dry and counts its rows, as a cursor's consumer
// does; it collects them only when keep is set (Mondrian needs the rows).
func drain(it schema.RowIterator, keep bool) (rows schema.Rows, n int, err error) {
	for {
		batch, err := it.Next()
		if err != nil || batch == nil {
			return rows, n, err
		}
		n += len(batch)
		if keep {
			rows = append(rows, batch...)
		}
	}
}

// tracedPass replays a fixed list of operations — the classes of the pools
// given, w.replays times each, literals in pool order — stage by stage from outside the
// program: each layer's public entry point is called on its own and timed
// as one span. It checks every stage's row count against the verified
// result size.
func tracedPass(w *workload, sys *system, pools []*pool) (*tracer, []tracedOp, error) {
	// The program allocates so much per statement that under the default
	// collector target a cycle is running a third of the time, and whichever
	// span it overlaps reads two to five times too long — often more than
	// half the spans of a name, which not even a median survives. A parent
	// and its children are timed one after the other, so they must be timed
	// under like conditions to be subtracted: the pass lets the heap grow to
	// five times the live data before a cycle starts. The timed window runs
	// under the default; the collector's cost there shows in the end-to-end
	// numbers, not per layer.
	defer debug.SetGCPercent(debug.SetGCPercent(tracedGCPercent))
	t := &tracer{sys: sys, begin: time.Now()}
	ctx := context.Background()
	par := runtime.GOMAXPROCS(0)
	topo := network.DefaultApartment()
	rw := rewrite.New(sys.store.Catalog(), rewrite.Options{})
	open := allowAll(sys.store)
	climate, _ := sys.policy.ModuleByID(tenantClimate)
	stats := storeStats(sys.store)
	catalog := engine.New(sys.store).Catalog()
	scratch := paradise.NewJournal() // audit.append is timed on a journal of its own
	hc := newHTTPClient(sys.base)
	defer hc.close()

	var ops []tracedOp
	for _, p := range pools {
		cls := p.cls
		mod := open
		if cls.tenant == tenantClimate {
			mod = climate
		}
		for i := 0; i < w.replays(cls); i++ {
			t.req++
			t.class = cls.name
			op := tracedOp{class: cls.name}
			l, want := lit{}, 1
			if p.fresh != nil {
				l = p.fresh.draw()
			} else {
				l, want = p.lits[i%len(p.lits)], p.rows[i%len(p.lits)]
			}
			sql := cls.sql(l)
			wantRows := func(s *span, got int) error {
				s.Rows = got
				if got != want {
					return fmt.Errorf("%q: %d rows, want %d", sql, got, want)
				}
				return nil
			}
			// A pooled statement hits the plan cache inside Session.Query,
			// so compiling it is not on the request's path.
			missesCache := cls.fresh || cls.denied

			httpSpan := 0
			if overHTTP(cls) {
				var err error
				httpSpan, err = t.call(0, "server.http", func(s *span) error {
					got, err := hc.viaHTTP(cls.tenant, sql)
					if err != nil || got.denied != cls.denied {
						return fmt.Errorf("%q: denied %v, err %v", sql, got.denied, err)
					}
					s.Bytes = got.bytes
					return wantRows(s, got.rows)
				})
				if err != nil {
					return t, ops, err
				}
			}
			if p.fresh != nil {
				// The HTTP call has just put its statement into the plan
				// cache; the session call needs a literal of its own to miss.
				l = p.fresh.draw()
				sql = cls.sql(l)
			}
			var viaSession outcome
			sessSpan, err := t.call(httpSpan, "paradise.session", func(s *span) (err error) {
				viaSession, err = sys.viaSession(cls.tenant, sql)
				if err != nil || viaSession.denied != cls.denied {
					return fmt.Errorf("%q: denied %v, err %v", sql, viaSession.denied, err)
				}
				return wantRows(s, viaSession.rows)
			})
			if err != nil {
				return t, ops, err
			}

			var sel *sqlparser.Select
			if _, err = t.call(sessSpan, "sqlparser.parse", func(*span) (err error) {
				sel, err = sqlparser.Parse(sql)
				return err
			}); err != nil {
				return t, ops, err
			}
			if _, err = t.call(sessSpan, "sqlparser.render", func(*span) error {
				_ = sel.SQL()
				return nil
			}); err != nil {
				return t, ops, err
			}

			compileParent := 0
			if missesCache {
				compileParent = sessSpan
			}
			// The statement's compilation, step by step as core does it.
			// core.compile is a span of its own, timed over the same four
			// calls its children then time one by one.
			var fplan *fragment.Plan
			var rewritten *sqlparser.Select
			var report *rewrite.Report
			var root plan.Node
			steps := []struct {
				name string
				f    func() error
			}{
				{"rewrite.rewrite", func() (err error) { rewritten, report, err = rw.Rewrite(sel, mod); return err }},
				{"plan.lower", func() (err error) {
					if root, err = plan.FromAST(rewritten); err == nil {
						report.Annotate(root, mod.ID)
					}
					return err
				}},
				{"fragment.split", func() (err error) { fplan, err = fragment.New().FromPlan(root); return err }},
				{"fragment.place", func() error { fplan.PlaceCostBased(stats); return nil }},
			}
			compileSpan, err := t.call(compileParent, "core.compile", func(*span) error {
				var err error
				for i := 0; i < len(steps) && err == nil; i++ {
					err = steps[i].f()
				}
				if cls.denied != errors.Is(err, rewrite.ErrDenied) {
					return fmt.Errorf("%q: compile returned %v", sql, err)
				}
				return nil
			})
			if err != nil {
				return t, ops, err
			}
			if cls.denied {
				if _, err = t.call(compileSpan, "rewrite.deny", func(*span) error {
					if _, _, err := rw.Rewrite(sel, mod); !errors.Is(err, rewrite.ErrDenied) {
						return fmt.Errorf("%q: rewrite returned %v", sql, err)
					}
					return nil
				}); err != nil {
					return t, ops, err
				}
				if _, err = t.call(sessSpan, "audit.append", func(*span) error {
					scratch.Append(paradise.JournalEntry{Module: mod.ID, OriginalSQL: sel.SQL(), Denied: true, DenyReason: "denied"})
					return nil
				}); err != nil {
					return t, ops, err
				}
				ops = append(ops, op)
				continue
			}
			for _, st := range steps {
				if _, err = t.call(compileSpan, st.name, func(*span) error { return st.f() }); err != nil {
					return t, ops, err
				}
			}
			op.stages = len(fplan.Fragments)

			// The engine runs the optimized rewritten plan. Fragmenting
			// shares subtrees of the tree it was given, so the engine gets a
			// lowering of its own.
			engRoot, err := plan.FromAST(rewritten)
			if err != nil {
				return t, ops, err
			}
			report.Annotate(engRoot, mod.ID)
			if _, err = t.call(0, "plan.optimize", func(*span) error {
				engRoot = plan.Optimize(engRoot, plan.Options{Catalog: catalog, CrossBlock: true})
				return nil
			}); err != nil {
				return t, ops, err
			}

			var result schema.Rows // kept for Mondrian only
			var resultRows int
			var rel *schema.Relation
			netSpan, err := t.call(sessSpan, "network.exec", func(s *span) error {
				st, err := network.Open(ctx, topo, fplan, sys.store, network.WithParallelism(par))
				if err != nil {
					return err
				}
				defer st.Close()
				var n int
				if result, n, err = drain(st, cls.tenant == tenantKanon); err != nil {
					return err
				}
				rs, err := st.Stats()
				if err != nil {
					return err
				}
				rel = st.Schema()
				op.raw, op.egress = int64(rs.RawBytes), int64(rs.EgressBytes)
				resultRows = n
				// The plan was compiled here with copies of what the facade
				// and core build privately (allowAll, storeStats). Had they
				// drifted, it would be placed differently and ship other bytes.
				if op.raw != viaSession.raw || op.egress != viaSession.egress {
					return fmt.Errorf("%q: the harness's plan ships %d of %d bytes, Session.Query's %d of %d",
						sql, op.egress, op.raw, viaSession.egress, viaSession.raw)
				}
				return wantRows(s, n)
			})
			if err != nil {
				return t, ops, err
			}
			runEngine := func(parent int, name string, workers int) (int, error) {
				return t.call(parent, name, func(s *span) error {
					_, it, err := engine.New(sys.store).WithParallelism(workers).Open(ctx, engRoot)
					if err != nil {
						return err
					}
					defer it.Close()
					_, n, err := drain(it, false)
					if err != nil {
						return err
					}
					return wantRows(s, n)
				})
			}
			engSpan, err := runEngine(netSpan, "engine.exec", par)
			if err != nil {
				return t, ops, err
			}
			if scanAnalytics.has(cls) { // the full scans are where workers could pay off
				if _, err = runEngine(0, "engine.exec_serial", 1); err != nil {
					return t, ops, err
				}
			}
			for _, sc := range cls.scans(l) {
				if _, err = t.call(engSpan, "storage.scan", func(s *span) error {
					it, err := sys.store.OpenColScan(ctx, sc.table, sc.scan)
					if err != nil {
						return err
					}
					defer it.Close()
					for {
						b, err := it.NextBatch()
						if err != nil || b == nil {
							return err
						}
						s.Rows += b.Len()
					}
				}); err != nil {
					return t, ops, err
				}
			}
			if cls.tenant == tenantKanon {
				if _, err = t.call(sessSpan, "anonymize.mondrian", func(s *span) error {
					out, err := anonymize.Mondrian(rel, result, anonQI, anonK)
					s.Rows = len(out)
					return err
				}); err != nil {
					return t, ops, err
				}
			}
			if cls.tenant == tenantClimate {
				rewrittenSQL := rewritten.SQL() // the plan cache keeps this rendering
				if _, err = t.call(sessSpan, "audit.append", func(*span) error {
					scratch.Append(paradise.JournalEntry{Module: mod.ID, OriginalSQL: sel.SQL(), RewrittenSQL: rewrittenSQL,
						RewriteSummary: report.Summary(), RawBytes: int(op.raw), EgressBytes: int(op.egress),
						ResultRows: resultRows, Satisfactory: true})
					return nil
				}); err != nil {
					return t, ops, err
				}
			}
			ops = append(ops, op)
		}
	}
	return t, ops, nil
}
