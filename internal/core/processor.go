package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"paradise/internal/anonymize"
	"paradise/internal/audit"
	"paradise/internal/containment"
	"paradise/internal/engine"
	"paradise/internal/fragment"
	"paradise/internal/network"
	logical "paradise/internal/plan"
	"paradise/internal/policy"
	"paradise/internal/privmetrics"
	"paradise/internal/recognition"
	"paradise/internal/rewrite"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
	"paradise/internal/storage"
)

// ErrProcessor wraps configuration errors.
var ErrProcessor = errors.New("core: processor error")

// AnonMethod selects the postprocessing algorithm.
type AnonMethod string

// Available postprocessing methods (§3.2 names them all).
const (
	AnonNone         AnonMethod = "none"
	AnonMondrian     AnonMethod = "mondrian"   // k-anonymity, multidimensional
	AnonFullDomain   AnonMethod = "fulldomain" // k-anonymity, Samarati
	AnonSlicing      AnonMethod = "slicing"    // column-wise (Li et al.)
	AnonDifferential AnonMethod = "dp"         // Laplace mechanism
)

// AnonConfig tunes the postprocessor.
type AnonConfig struct {
	Method AnonMethod
	// K for the k-anonymity flavours.
	K int
	// Epsilon and Sensitivity for differential privacy.
	Epsilon     float64
	Sensitivity float64
	// BucketSize for slicing.
	BucketSize int
	// QuasiIdentifiers to protect; empty means auto-detection.
	QuasiIdentifiers []string
	// Seed for the randomized methods (slicing permutations, DP noise).
	Seed int64
	// MaxSuppress bounds row suppression for the full-domain flavour.
	MaxSuppress int
	// LDiversity, when > 1 together with SensitiveColumn, additionally
	// suppresses equivalence classes with fewer than l distinct sensitive
	// values after the k-anonymity step (homogeneity-attack defence).
	LDiversity int
	// SensitiveColumn names the attribute l-diversity protects.
	SensitiveColumn string
}

// Config assembles a Processor.
type Config struct {
	// Store holds the environment's integrated sensor database d.
	Store *storage.Store
	// Policy is the user's privacy policy.
	Policy *policy.Policy
	// Topology is the peer chain; nil uses network.DefaultApartment().
	Topology *network.Topology
	// Rewrite options (table substitutions).
	Rewrite rewrite.Options
	// Anonymization of results (postprocessing).
	Anon AnonConfig
	// MaxInfoLoss is the KL-divergence budget of the §3.1 satisfaction
	// check: when the rewritten query's answer diverges from the original
	// by more than this (per shared numeric column, max), the outcome is
	// flagged unsatisfactory. <= 0 disables the check.
	MaxInfoLoss float64
	// Journal, when set, records an audit entry for every processed query
	// including denials (provenance, cf. [Heu15]).
	Journal *audit.Journal
	// Parallelism is the number of worker goroutines a query pipeline may
	// use (morsel-driven, order-preserving — results and Figure 3
	// accounting are identical to serial execution): <= 0 means
	// runtime.GOMAXPROCS(0), 1 keeps execution serial.
	Parallelism int
	// Cache, when set, memoizes prepared statements (rewrite → lower →
	// annotate → fragment) keyed by normalized SQL, policy module, policy
	// fingerprint and the store's schema epoch. One cache may be shared by
	// several processors over the same store — the policy fingerprint keeps
	// their entries apart. Nil disables caching.
	Cache *PlanCache
}

// Processor is the privacy-aware query processor.
type Processor struct {
	store    *storage.Store
	pol      *policy.Policy
	topo     *network.Topology
	rewriter *rewrite.Rewriter
	anon     AnonConfig
	maxLoss  float64
	journal  *audit.Journal
	par      int
	cache    *PlanCache
	// polFP is the policy fingerprint component of cache keys, computed
	// once — the policy is immutable after validation.
	polFP string
}

// New validates the configuration and builds a Processor.
func New(cfg Config) (*Processor, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("%w: nil store", ErrProcessor)
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("%w: nil policy", ErrProcessor)
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	topo := cfg.Topology
	if topo == nil {
		topo = network.DefaultApartment()
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return &Processor{
		store:    cfg.Store,
		pol:      cfg.Policy,
		topo:     topo,
		rewriter: rewrite.New(cfg.Store.Catalog(), cfg.Rewrite),
		anon:     cfg.Anon,
		maxLoss:  cfg.MaxInfoLoss,
		journal:  cfg.Journal,
		par:      par,
		cache:    cfg.Cache,
		polFP:    cfg.Policy.Fingerprint(),
	}, nil
}

// StoreStats adapts the store's per-table statistics (row counts, wire
// bytes, per-column NDV/min/max/null counts) to the plan estimator's
// interface — the statistics cost-based placement ranks rungs with. The
// closure reads the store live, so each compilation sees the statistics as
// of compile time; cached plans keep the placement they were compiled with
// until DDL shifts the schema epoch.
func StoreStats(st *storage.Store) logical.Stats {
	return func(table string) (*logical.TableStats, bool) {
		ts, err := st.TableStats(table)
		if err != nil {
			return nil, false
		}
		out := &logical.TableStats{
			Rows: float64(ts.Rows),
			Cols: make(map[string]logical.ColStats, len(ts.Cols)),
		}
		if ts.Rows > 0 {
			out.RowBytes = float64(ts.Bytes) / float64(ts.Rows)
		}
		for _, c := range ts.Cols {
			nullFrac := 0.0
			if ts.Rows > 0 {
				nullFrac = float64(c.Nulls) / float64(ts.Rows)
			}
			cs := logical.ColStats{
				NDV:      float64(c.NDV),
				NullFrac: nullFrac,
				HasRange: c.HasRange,
				Min:      c.Min,
				Max:      c.Max,
				AvgBytes: c.AvgBytes(ts.Rows),
			}
			if c.Hist != nil {
				cs.Hist = c.Hist
			}
			out.Cols[strings.ToLower(c.Name)] = cs
		}
		return out, true
	}
}

// Cache returns the processor's plan cache, or nil.
func (p *Processor) Cache() *PlanCache { return p.cache }

// Parallelism reports the worker count query pipelines run with (1 =
// serial).
func (p *Processor) Parallelism() int { return p.par }

// Journal returns the configured audit journal, or nil.
func (p *Processor) Journal() *audit.Journal { return p.journal }

// AnonReport documents the postprocessing step.
type AnonReport struct {
	Method           AnonMethod
	QuasiIdentifiers []string
	// DD and DDRatio follow §3.2's Direct Distance.
	DD      int
	DDRatio float64
	// SuppressedRows counts rows dropped by full-domain suppression.
	SuppressedRows int
	// LDiversitySuppressed counts rows dropped to restore l-diversity.
	LDiversitySuppressed int
}

// Outcome is the complete audit trail of one processed query.
type Outcome struct {
	// OriginalSQL and RewrittenSQL document the preprocessing.
	OriginalSQL  string
	RewrittenSQL string
	// RewriteReport details the applied policy transformations.
	RewriteReport *rewrite.Report
	// Plan is the vertical fragmentation.
	Plan *fragment.Plan
	// Net is the simulated chain execution with byte accounting.
	Net *network.RunStats
	// Result is the final (anonymized) result the requester receives.
	Result *engine.Result
	// PreAnonymization is the result before postprocessing.
	PreAnonymization *engine.Result
	// Anon documents the postprocessing, nil when method is none.
	Anon *AnonReport

	// logical memoizes Logical(); logicalFn builds it on first use. The
	// -explain view costs a second lowering + annotation + optimization, so
	// plain Process/Query calls that never Explain must not pay for it.
	logical   logical.Node
	logicalFn func() logical.Node
	// InfoLoss is the max per-column KL divergence between the original
	// query's answer and the rewritten one (§3.1 satisfaction check);
	// negative when the check was disabled or the original is denied.
	InfoLoss float64
	// Satisfactory is false when InfoLoss exceeded the configured budget.
	Satisfactory bool
}

// Logical returns the optimized logical plan of the rewritten query, with
// policy transformations annotated as operator provenance (the -explain
// view). It is informational; execution runs over Plan's fragments. The
// plan is built lazily on first call and memoized — Outcome is not safe for
// concurrent first use of Logical/Explain.
func (o *Outcome) Logical() logical.Node {
	if o.logical == nil && o.logicalFn != nil {
		o.logical = o.logicalFn()
		o.logicalFn = nil
	}
	return o.logical
}

// Process runs the full Figure 2 pipeline for a SQL query under the named
// policy module. The whole vertical — rewrite evaluation, fragment chain,
// storage scans — is bound to ctx; cancellation is checked per batch.
func (p *Processor) Process(ctx context.Context, sql, moduleID string) (*Outcome, error) {
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return p.ProcessSelect(ctx, sel, moduleID)
}

// ProcessSelect is Process for an already-parsed statement.
func (p *Processor) ProcessSelect(ctx context.Context, sel *sqlparser.Select, moduleID string) (*Outcome, error) {
	out, err := p.processSelect(ctx, sel, moduleID)
	if p.journal != nil {
		rows := 0
		if err == nil {
			rows = len(out.Result.Rows)
		}
		p.journal.Append(journalEntry(sel, moduleID, out, rows, err))
	}
	return out, err
}

// journalEntry builds the audit record for one processed (or denied) query.
// Policy refusals are recorded as denials; other errors (cancellation,
// execution failure) as failures, so the denial log stays meaningful.
func journalEntry(sel *sqlparser.Select, moduleID string, out *Outcome, resultRows int, err error) audit.Entry {
	e := audit.Entry{Module: moduleID, OriginalSQL: sel.SQL()}
	if err != nil {
		if errors.Is(err, rewrite.ErrDenied) {
			e.Denied = true
			e.DenyReason = err.Error()
		} else {
			e.Failed = true
			e.FailReason = err.Error()
		}
		return e
	}
	e.RewrittenSQL = out.RewrittenSQL
	e.RewriteSummary = out.RewriteReport.Summary()
	e.RawBytes = out.Net.RawBytes
	e.EgressBytes = out.Net.EgressBytes
	e.ResultRows = resultRows
	e.Satisfactory = out.Satisfactory
	if out.Anon != nil {
		e.AnonMethod = string(out.Anon.Method)
		e.DDRatio = out.Anon.DDRatio
	}
	return e
}

// lowerPlan is the one place core lowers a statement into the plan IR;
// tests hook it to prove how many plan trees a call path builds.
var lowerPlanHook func()

func lowerPlan(sel *sqlparser.Select) (logical.Node, error) {
	if lowerPlanHook != nil {
		lowerPlanHook()
	}
	return logical.FromAST(sel)
}

// prepare runs the preprocessing common to the materialized and streaming
// paths: module lookup, policy rewrite, satisfaction check, fragmentation.
// The returned Outcome carries everything known before execution. The
// per-statement compilation (rewrite → lower → annotate → fragment) goes
// through preparedFor, which memoizes it when the processor has a plan
// cache; the satisfaction check stays per-call — it compares answers, not
// statements.
func (p *Processor) prepare(ctx context.Context, sel *sqlparser.Select, moduleID string) (*Outcome, *fragment.Plan, error) {
	mod, ok := p.pol.ModuleByID(moduleID)
	if !ok {
		return nil, nil, fmt.Errorf("%w: no policy module %q", ErrProcessor, moduleID)
	}

	out := &Outcome{OriginalSQL: sel.SQL(), Satisfactory: true, InfoLoss: -1}

	// --- Preprocessing: policy rewrite (§3.1), lowered to the logical
	// plan IR with policy provenance on the operators it introduced,
	// fragmented vertically (§4) — cached per statement shape. ---
	pr, err := p.preparedFor(sel, mod)
	if err != nil {
		return nil, nil, err
	}
	out.RewrittenSQL = pr.rewrittenSQL
	out.RewriteReport = pr.report
	out.Plan = pr.plan

	// Satisfaction check: compare original and rewritten answers.
	if p.maxLoss > 0 {
		loss, err := p.infoLoss(ctx, sel, pr.rewritten)
		if err == nil {
			out.InfoLoss = loss
			out.Satisfactory = loss <= p.maxLoss
		}
	}

	// The -explain view: a fresh lowering (the fragments share subtrees of
	// the prepared one), annotated and optimized against the store's catalog
	// so pruned scan columns and pushed predicates are visible. Deferred
	// until Outcome.Logical/Explain actually asks for it — a plain
	// Process/Query builds at most one plan tree (none on a cache hit).
	moduleID = mod.ID
	store := p.store
	rewritten, rep := pr.rewritten, pr.report
	out.logicalFn = func() logical.Node {
		expl, err := lowerPlan(rewritten)
		if err != nil {
			return nil
		}
		rep.Annotate(expl, moduleID)
		return logical.Optimize(expl, logical.Options{Catalog: engine.New(store).Catalog()})
	}
	return out, pr.plan, nil
}

func (p *Processor) processSelect(ctx context.Context, sel *sqlparser.Select, moduleID string) (*Outcome, error) {
	out, plan, err := p.prepare(ctx, sel, moduleID)
	if err != nil {
		return nil, err
	}

	// --- Chain execution (§4). ---
	stats, err := network.Run(ctx, p.topo, plan, p.store, network.WithParallelism(p.par))
	if err != nil {
		return nil, err
	}
	out.Net = stats
	out.PreAnonymization = stats.Result

	// --- Postprocessing: anonymization A (§3.2). ---
	res, anonRep, err := p.postprocess(stats.Result)
	if err != nil {
		return nil, err
	}
	out.Result = res
	out.Anon = anonRep
	return out, nil
}

// infoLoss measures the §3.1 information-loss estimate: the maximum KL
// divergence over the numeric columns shared by the original and rewritten
// answers.
func (p *Processor) infoLoss(ctx context.Context, orig, rewritten *sqlparser.Select) (float64, error) {
	eng := engine.New(p.store).WithParallelism(p.par)
	or, err := eng.Select(ctx, orig)
	if err != nil {
		return 0, err
	}
	rr, err := eng.Select(ctx, rewritten)
	if err != nil {
		return 0, err
	}
	maxLoss := 0.0
	for _, c := range or.Schema.Columns {
		if !c.Type.Numeric() {
			continue
		}
		ri, err := rr.Schema.Index(c.Name)
		if err != nil {
			continue
		}
		oi, _ := or.Schema.Index(c.Name)
		loss, err := columnKL(or, oi, rr, ri)
		if err != nil {
			continue
		}
		if loss > maxLoss {
			maxLoss = loss
		}
	}
	return maxLoss, nil
}

// columnKL compares one column of two results via privmetrics histograms.
func columnKL(a *engine.Result, ai int, b *engine.Result, bi int) (float64, error) {
	rel := schema.NewRelation("cmp", schema.Col("v", schema.TypeFloat))
	proj := func(r *engine.Result, idx int) schema.Rows {
		out := make(schema.Rows, 0, len(r.Rows))
		for _, row := range r.Rows {
			if row[idx].Type().Numeric() {
				out = append(out, schema.Row{schema.Float(row[idx].AsFloat())})
			}
		}
		return out
	}
	return privmetrics.ColumnKL(rel, proj(a, ai), proj(b, bi), "v", 16)
}

// postprocess anonymizes a result set per the configured method.
func (p *Processor) postprocess(res *engine.Result) (*engine.Result, *AnonReport, error) {
	if p.anon.Method == "" || p.anon.Method == AnonNone || len(res.Rows) == 0 {
		return res, nil, nil
	}
	qi := p.anon.QuasiIdentifiers
	if len(qi) == 0 {
		qi = anonymize.DetectQuasiIdentifiers(res.Schema, res.Rows, 0.2)
	}
	rep := &AnonReport{Method: p.anon.Method, QuasiIdentifiers: qi}
	rng := rand.New(rand.NewSource(p.anon.Seed))

	var anonRows schema.Rows
	var err error
	switch p.anon.Method {
	case AnonMondrian:
		if len(qi) == 0 {
			return res, nil, nil // nothing identifying to protect
		}
		anonRows, err = anonymize.Mondrian(res.Schema, res.Rows, qi, p.anon.K)
	case AnonFullDomain:
		if len(qi) == 0 {
			return res, nil, nil
		}
		maxSup := p.anon.MaxSuppress
		if maxSup == 0 {
			maxSup = len(res.Rows) / 10
		}
		var suppressed int
		anonRows, suppressed, err = anonymize.FullDomain(res.Schema, res.Rows, qi, p.anon.K, maxSup)
		rep.SuppressedRows = suppressed
	case AnonSlicing:
		groups := sliceGroups(res.Schema, qi)
		bucket := p.anon.BucketSize
		if bucket == 0 {
			bucket = 4
		}
		anonRows, err = anonymize.Slice(res.Schema, res.Rows, groups, bucket, rng)
	case AnonDifferential:
		var cols []string
		for _, c := range res.Schema.Columns {
			if c.Type.Numeric() {
				cols = append(cols, c.Name)
			}
		}
		sens := p.anon.Sensitivity
		if sens == 0 {
			sens = 1
		}
		anonRows, err = anonymize.NoisyRows(res.Schema, res.Rows, cols, sens, p.anon.Epsilon, rng)
	default:
		return nil, nil, fmt.Errorf("%w: unknown anonymization method %q", ErrProcessor, p.anon.Method)
	}
	if err != nil {
		return nil, nil, err
	}

	// Optional l-diversity pass: suppress homogeneous equivalence classes
	// (the homogeneity attack k-anonymity alone leaves open).
	if p.anon.LDiversity > 1 && p.anon.SensitiveColumn != "" && res.Schema.Has(p.anon.SensitiveColumn) {
		diverse, suppressed, derr := anonymize.EnforceLDiversity(
			res.Schema, anonRows, qi, p.anon.SensitiveColumn, p.anon.LDiversity)
		if derr != nil {
			return nil, nil, derr
		}
		anonRows = diverse
		rep.LDiversitySuppressed = suppressed
	}

	// Quality accounting with the paper's Direct Distance. Suppression
	// changes cardinality; DD is only defined for equal shapes.
	if len(anonRows) == len(res.Rows) {
		dd, err := privmetrics.DirectDistance(res.Rows, anonRows)
		if err == nil {
			rep.DD = dd
			rep.DDRatio, _ = privmetrics.DirectDistanceRatio(res.Rows, anonRows)
		}
	}
	return &engine.Result{Schema: res.Schema, Rows: anonRows}, rep, nil
}

// sliceGroups partitions the schema for slicing: the quasi-identifiers form
// one permuted group; every remaining column anchors the buckets.
func sliceGroups(rel *schema.Relation, qi []string) [][]string {
	if len(qi) == 0 {
		// Fall back to permuting each column independently except the
		// first (which anchors).
		var groups [][]string
		for _, c := range rel.Columns[1:] {
			groups = append(groups, []string{c.Name})
		}
		return groups
	}
	return [][]string{qi}
}

// ResidualRisk addresses the open problem the paper closes with: whether a
// privacy-violating query Q↓ can still be computed from the released d′
// (the rewritten query's output). When the verdict is Answerable, the
// anonymization step A must be extended (§4.1). The check is conservative
// in the attacker's favour: it may flag a query as answerable although no
// rewriting exists, never the reverse.
func (p *Processor) ResidualRisk(violatingSQL string, out *Outcome) (*containment.Verdict, error) {
	violating, err := sqlparser.Parse(violatingSQL)
	if err != nil {
		return nil, err
	}
	view, err := sqlparser.Parse(out.RewrittenSQL)
	if err != nil {
		return nil, err
	}
	return containment.New(p.store.Catalog()).Answerable(violating, view)
}

// PipelineOutcome extends Outcome for full analysis pipelines: the residual
// R part that stays on the cloud plus its final answer.
type PipelineOutcome struct {
	*Outcome
	// ResidualR describes the cloud-side remainder Qδ in R-like syntax.
	ResidualR string
	// Final is the answer of the residual analysis applied to d′.
	Final *engine.Result
}

// ProcessPipeline runs the §4.2 end-to-end flow for an analysis pipeline:
// the SQLable part is extracted ([Weu16]), privacy-rewritten, fragmented and
// executed down the chain; the residual R code (filterByClass) runs on the
// cloud against the shipped d′.
func (p *Processor) ProcessPipeline(ctx context.Context, pl recognition.Node, moduleID string) (*PipelineOutcome, error) {
	sel, ok := recognition.ExtractSQL(pl)
	if !ok {
		return nil, fmt.Errorf("%w: pipeline has no SQLable part", ErrProcessor)
	}
	out, err := p.ProcessSelect(ctx, sel, moduleID)
	if err != nil {
		return nil, err
	}
	residual := recognition.Residual(pl, "d'")
	frames := map[string]*engine.Result{"d'": out.Result}
	final, err := recognition.Run(ctx, residual, engine.New(p.store).WithParallelism(p.par), frames)
	if err != nil {
		return nil, err
	}
	return &PipelineOutcome{
		Outcome:   out,
		ResidualR: residual.Describe(),
		Final:     final,
	}, nil
}

// Explain renders the EXPLAIN view of the processed query: the optimized
// logical plan of the rewritten statement (policy transformations appear as
// operator provenance lines) followed by the per-fragment plan trees, their
// placement levels and — once executed — whether each stage shipped column
// batches or rows (and why the engine declined).
func (o *Outcome) Explain() string {
	var b strings.Builder
	b.WriteString("logical plan (rewritten, optimized):\n")
	if lp := o.Logical(); lp != nil {
		for _, line := range strings.Split(strings.TrimRight(logical.String(lp), "\n"), "\n") {
			b.WriteString("  " + line + "\n")
		}
	}
	b.WriteString("fragment plans (placement):\n")
	if o.Plan != nil {
		var paths []string
		if o.Net != nil {
			for _, a := range o.Net.Assignments {
				paths = append(paths, a.Path())
			}
		}
		b.WriteString(o.Plan.Explain(paths...))
	}
	return b.String()
}

// Summary renders the audit trail.
func (o *Outcome) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "original : %s\n", o.OriginalSQL)
	fmt.Fprintf(&b, "rewritten: %s\n", o.RewrittenSQL)
	fmt.Fprintf(&b, "rewrite  : %s\n", o.RewriteReport.Summary())
	if o.InfoLoss >= 0 {
		fmt.Fprintf(&b, "info loss: %.4f (satisfactory: %v)\n", o.InfoLoss, o.Satisfactory)
	}
	b.WriteString("plan:\n")
	b.WriteString(o.Plan.String())
	b.WriteString(o.Net.Summary())
	if o.Anon != nil {
		fmt.Fprintf(&b, "anonymized with %s over QI %v: DD=%d (ratio %.3f)\n",
			o.Anon.Method, o.Anon.QuasiIdentifiers, o.Anon.DD, o.Anon.DDRatio)
	}
	return b.String()
}
