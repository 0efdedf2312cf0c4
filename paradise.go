package paradise

import (
	"context"
	"fmt"
	"strings"

	"paradise/internal/core"
	"paradise/internal/network"
	"paradise/internal/plan"
	"paradise/internal/policy"
	"paradise/internal/recognition"
	"paradise/internal/sqlparser"
)

// Option configures a Session at Open time.
type Option func(*sessionConfig)

type sessionConfig struct {
	policy   *Policy
	topo     *Topology
	rewrite  RewriteOptions
	anon     AnonConfig
	journal  *Journal
	maxLoss  float64
	defMod   string
	parallel int // worker goroutines per pipeline; <= 0 means GOMAXPROCS
	cache    *PlanCache
	explicit bool // a policy was supplied explicitly
}

// WithPolicy sets the user's privacy policy. Without it the session runs
// unrestricted: an allow-all policy with a single module ("unrestricted")
// is generated over the store's catalog, so queries pass through the
// processor — fragmentation, chain simulation and accounting included —
// without policy transformations.
func WithPolicy(p *Policy) Option {
	return func(c *sessionConfig) { c.policy = p; c.explicit = true }
}

// WithTopology sets the peer chain; the default is DefaultApartment().
func WithTopology(t *Topology) Option {
	return func(c *sessionConfig) { c.topo = t }
}

// WithRewriteOptions tunes the preprocessor (table substitutions).
func WithRewriteOptions(o RewriteOptions) Option {
	return func(c *sessionConfig) { c.rewrite = o }
}

// WithAnonymization configures the postprocessing stage (§3.2). Note that
// anonymization needs the whole result, so cursors over anonymized queries
// materialize on the first pull.
func WithAnonymization(a AnonConfig) Option {
	return func(c *sessionConfig) { c.anon = a }
}

// WithJournal records an audit entry for every processed query, including
// denials.
func WithJournal(j *Journal) Option {
	return func(c *sessionConfig) { c.journal = j }
}

// WithInfoLossBudget enables the §3.1 satisfaction check: when the
// rewritten query's answer diverges from the original by more than this KL
// budget (per shared numeric column, max), the outcome is flagged
// unsatisfactory.
func WithInfoLossBudget(budget float64) Option {
	return func(c *sessionConfig) { c.maxLoss = budget }
}

// WithDefaultModule sets the policy module queries run under when a call
// does not pass Module(...). Without it, a policy with exactly one module
// uses that module and a multi-module policy requires Module on every call.
func WithDefaultModule(id string) Option {
	return func(c *sessionConfig) { c.defMod = id }
}

// WithParallelism sets how many worker goroutines each query pipeline may
// use for morsel-driven parallel execution of its streamable operators
// (scans, filters, projections, join probes, DISTINCT, GROUP BY
// partitioning). The default — also chosen by any n <= 0 — is
// runtime.GOMAXPROCS(0), i.e. all available CPUs; n = 1 keeps execution
// serial: the same pipeline, run on the caller's goroutine.
//
// Parallelism is purely a performance knob: the engine's exchange re-emits
// worker output in morsel order, so rows, row order, and the Figure 3
// row/byte accounting are identical to serial execution, and a cancelled
// context still stops the storage scans within one batch per worker.
// Queries whose plan requires streaming order economics (a LIMIT with no
// pipeline breaker below it) run that block with one worker regardless,
// which preserves their O(limit + batch) storage-read guarantee.
func WithParallelism(n int) Option {
	return func(c *sessionConfig) { c.parallel = n }
}

// WithPlanCache attaches a prepared-plan cache to the session: the
// per-statement compilation pipeline (policy rewrite, lowering to the plan
// IR, provenance annotation, vertical fragmentation) runs once per
// statement shape and is reused — read-only — by every later query that
// parses to the same normalized SQL under the same policy module. Entries
// are keyed by the policy's fingerprint and the store's schema epoch too,
// so one cache can safely be shared by many sessions over one store (the
// serving layer does exactly that, one cache across all tenants), and any
// DDL on the store invalidates every earlier entry.
//
// Caching changes performance only: rows, row order, transfer stats and
// audit journaling of a cached execution are identical to an uncached one.
// Denied or malformed statements are never cached. Nil is a valid argument
// and leaves caching off (the default).
func WithPlanCache(c *PlanCache) Option {
	return func(cfg *sessionConfig) { cfg.cache = c }
}

// QueryOption configures one Query/Process call.
type QueryOption func(*queryConfig)

type queryConfig struct {
	module string
}

// Module selects the policy module the query is checked against.
func Module(id string) QueryOption {
	return func(c *queryConfig) { c.module = id }
}

// Session is a handle on the privacy-aware query processor over one store.
// It is the supported entry point of this library: queries go through the
// full Figure 2 pipeline — policy rewrite, vertical fragmentation,
// simulated chain execution, optional anonymization — and come back either
// materialized (Process) or as a streaming cursor (Query).
//
// A Session is safe for concurrent use; the store may keep ingesting rows
// while queries run.
type Session struct {
	proc  *core.Processor
	store *Store
	topo  *Topology
	def   string
}

// Open assembles a Session over the store. Without options the session
// uses the Figure 3 apartment topology and an allow-all policy (see
// WithPolicy). Joins run in the order the query writes them, and each
// fragment of the vertical decomposition runs at the capability rung that
// minimizes the modeled bytes crossing level boundaries, never below its
// MinLevel floor — placement moves which node runs a stage, never its rows
// or the egress bytes.
func Open(store *Store, opts ...Option) (*Session, error) {
	if store == nil {
		return nil, fmt.Errorf("%w: nil store", ErrUsage)
	}
	var cfg sessionConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.policy == nil {
		cfg.policy = allowAllPolicy(store)
	}
	if cfg.topo == nil {
		cfg.topo = network.DefaultApartment()
	}
	proc, err := core.New(core.Config{
		Store:       store,
		Policy:      cfg.policy,
		Topology:    cfg.topo,
		Rewrite:     cfg.rewrite,
		Anon:        cfg.anon,
		MaxInfoLoss: cfg.maxLoss,
		Journal:     cfg.journal,
		Parallelism: cfg.parallel,
		Cache:       cfg.cache,
	})
	if err != nil {
		return nil, wrapErr(err)
	}
	def := cfg.defMod
	if def == "" && len(cfg.policy.Modules) == 1 {
		def = cfg.policy.Modules[0].ID
	}
	return &Session{proc: proc, store: store, topo: cfg.topo, def: def}, nil
}

// allowAllPolicy builds the unrestricted default: one module permitting
// every attribute of every relation in the store.
func allowAllPolicy(store *Store) *Policy {
	mod := &policy.Module{ID: "unrestricted"}
	seen := map[string]bool{}
	for _, name := range store.Names() {
		t, err := store.Table(name)
		if err != nil {
			continue
		}
		for _, c := range t.Schema().Columns {
			lower := strings.ToLower(c.Name)
			if seen[lower] {
				continue
			}
			seen[lower] = true
			mod.Attributes = append(mod.Attributes, &policy.Attribute{Name: lower, Allow: true})
		}
	}
	return &policy.Policy{Modules: []*policy.Module{mod}}
}

// module resolves the policy module for one call.
func (s *Session) module(q queryConfig) (string, error) {
	if q.module != "" {
		return q.module, nil
	}
	if s.def != "" {
		return s.def, nil
	}
	return "", fmt.Errorf("%w: the policy has several modules; pass paradise.Module(id)", ErrUsage)
}

// Process runs the full pipeline for a SQL query and materializes the
// complete audit trail: rewrite, fragment plan, transfer stats, result.
// The execution is bound to ctx with cancellation checked per batch, down
// to the storage scans.
func (s *Session) Process(ctx context.Context, sql string, opts ...QueryOption) (*Outcome, error) {
	var q queryConfig
	for _, o := range opts {
		o(&q)
	}
	mod, err := s.module(q)
	if err != nil {
		return nil, err
	}
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, wrapErr(err)
	}
	out, err := s.proc.ProcessSelect(ctx, sel, mod)
	if err != nil {
		return nil, s.wrapModErr(err, mod)
	}
	return out, nil
}

// Query runs the same pipeline but returns a streaming cursor over the
// result instead of materializing it: rows are pulled batch-at-a-time
// through the fragment chain, so consuming n rows of a large result costs
// O(n + batch) intermediate memory, and cancelling ctx stops the
// underlying storage scans within one batch. The caller must Close the
// cursor (idempotent); Close finalizes the Figure 3 accounting, which is
// then row- and stats-identical to Process on the same query.
func (s *Session) Query(ctx context.Context, sql string, opts ...QueryOption) (*Cursor, error) {
	var q queryConfig
	for _, o := range opts {
		o(&q)
	}
	mod, err := s.module(q)
	if err != nil {
		return nil, err
	}
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, wrapErr(err)
	}
	st, err := s.proc.OpenSelect(ctx, sel, mod)
	if err != nil {
		return nil, s.wrapModErr(err, mod)
	}
	return &Cursor{stream: st, session: s, module: mod}, nil
}

// ProcessPipeline runs the §4.2 end-to-end flow for an analysis pipeline
// (an R-style analysis with an embedded SQL part): the SQLable part is
// privacy-rewritten, fragmented and executed down the chain; the residual
// runs cloud-side against the shipped d′.
func (s *Session) ProcessPipeline(ctx context.Context, pl recognition.Node, opts ...QueryOption) (*PipelineOutcome, error) {
	var q queryConfig
	for _, o := range opts {
		o(&q)
	}
	mod, err := s.module(q)
	if err != nil {
		return nil, err
	}
	out, err := s.proc.ProcessPipeline(ctx, pl, mod)
	if err != nil {
		return nil, s.wrapModErr(err, mod)
	}
	return out, nil
}

// ResidualRisk audits a released outcome against a violating query: can
// the attacker still compute it from d′? (The open problem the paper
// closes with; the check is conservative in the attacker's favour.)
func (s *Session) ResidualRisk(violatingSQL string, out *Outcome) (*Verdict, error) {
	v, err := s.proc.ResidualRisk(violatingSQL, out)
	if err != nil {
		return nil, wrapErr(err)
	}
	return v, nil
}

// RunNaive simulates the baseline without PArADISE: the raw base data
// ships all the way to the cloud, which executes the whole query there.
// Useful to quantify what the privacy-aware execution saves.
func (s *Session) RunNaive(ctx context.Context, sql string) (*RunStats, error) {
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, wrapErr(err)
	}
	root, err := plan.FromAST(sel)
	if err != nil {
		return nil, wrapErr(err)
	}
	stats, err := network.RunNaive(ctx, s.topo, root, s.store,
		network.WithParallelism(s.proc.Parallelism()))
	if err != nil {
		return nil, wrapErr(err)
	}
	return stats, nil
}

// Journal returns the configured audit journal, or nil.
func (s *Session) Journal() *Journal { return s.proc.Journal() }

// PlanCache returns the session's prepared-plan cache, or nil when the
// session was opened without WithPlanCache.
func (s *Session) PlanCache() *PlanCache { return s.proc.Cache() }

// Store returns the session's database.
func (s *Session) Store() *Store { return s.store }

// Topology returns the session's peer chain.
func (s *Session) Topology() *Topology { return s.topo }
