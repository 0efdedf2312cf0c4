package paradise

import (
	"io"
	gotime "time"

	"paradise/internal/audit"
	"paradise/internal/containment"
	"paradise/internal/core"
	"paradise/internal/engine"
	"paradise/internal/network"
	"paradise/internal/policy"
	"paradise/internal/rewrite"
	"paradise/internal/schema"
	"paradise/internal/storage"
)

// This file re-exports the vocabulary types of the processor so that
// embedding applications configure and consume sessions without ever
// importing an internal package. The aliases are identities — a *Policy
// built here is exactly what the internal rewriter checks against.

type (
	// Store is the integrated sensor database d of one environment: a
	// named collection of in-memory tables.
	Store = storage.Store
	// Table is one append-only relation of a Store.
	Table = storage.Table
	// Relation describes a table or result schema.
	Relation = schema.Relation
	// Column is one attribute of a Relation.
	Column = schema.Column
	// Catalog indexes relations by name, for policy generation and
	// rewrite reasoning.
	Catalog = schema.Catalog
	// Row is one tuple; Rows a sequence of them.
	Row = schema.Row
	// Rows is a sequence of tuples.
	Rows = schema.Rows
	// Value is one typed cell of a Row.
	Value = schema.Value
	// Batch is a run of result rows in columnar form, as Cursor.NextBatch
	// delivers them: one Vector per column plus the selection of live rows.
	Batch = schema.ColBatch
	// Vector is one typed column of a Batch.
	Vector = schema.ColVec

	// Policy is a user's privacy policy: one Module per analysis
	// functionality (§3.3, Figure 4).
	Policy = policy.Policy
	// PolicyModule holds the per-attribute rules for one analysis module.
	PolicyModule = policy.Module
	// PolicyAttribute is the rule set for one attribute.
	PolicyAttribute = policy.Attribute

	// Topology is the vertical peer chain of Figure 3 (sensor →
	// appliance → ... → cloud).
	Topology = network.Topology
	// RunStats is the Figure 3 accounting of one chain execution: per-node
	// assignments, per-link traffic, raw and egress bytes, simulated time.
	RunStats = network.RunStats

	// Result is a materialized relation: schema plus rows.
	Result = engine.Result

	// Outcome is the audit trail of one processed query: original and
	// rewritten SQL, fragment plan, transfer stats, result.
	Outcome = core.Outcome
	// PipelineOutcome extends Outcome for analysis pipelines with the
	// cloud-side residual.
	PipelineOutcome = core.PipelineOutcome
	// AnonConfig tunes the postprocessing (anonymization) stage.
	AnonConfig = core.AnonConfig
	// AnonMethod selects the postprocessing algorithm.
	AnonMethod = core.AnonMethod
	// AnonReport documents what the postprocessor did.
	AnonReport = core.AnonReport

	// RewriteOptions tune the preprocessor (table substitutions).
	RewriteOptions = rewrite.Options
	// RewriteReport details the policy transformations applied to a query.
	RewriteReport = rewrite.Report

	// Journal records an audit entry for every processed query, including
	// denials (provenance, cf. [Heu15]).
	Journal = audit.Journal
	// JournalEntry is one record of the Journal.
	JournalEntry = audit.Entry

	// Verdict is the outcome of a residual-risk audit: whether a
	// privacy-violating query is still answerable from the released d′.
	Verdict = containment.Verdict

	// PlanCache memoizes prepared statements — the rewrite → lower →
	// annotate → fragment pipeline — across the sessions that share it
	// (Open(..., WithPlanCache(c))). Keys include the normalized SQL, the
	// policy module, the policy fingerprint and the store's schema epoch.
	PlanCache = core.PlanCache
	// PlanCacheStats is a snapshot of plan-cache effectiveness:
	// hits, misses, evictions, occupancy.
	PlanCacheStats = core.CacheStats
)

// Available postprocessing methods (§3.2 names them all).
const (
	AnonNone         = core.AnonNone
	AnonMondrian     = core.AnonMondrian
	AnonFullDomain   = core.AnonFullDomain
	AnonSlicing      = core.AnonSlicing
	AnonDifferential = core.AnonDifferential
)

// Type is the type of a column or value.
type Type = schema.Type

// The value types.
const (
	TypeBool   = schema.TypeBool
	TypeInt    = schema.TypeInt
	TypeFloat  = schema.TypeFloat
	TypeString = schema.TypeString
	TypeTime   = schema.TypeTime
)

// NewStore creates an empty database.
func NewStore() *Store { return storage.NewStore() }

// StoreConfig tunes a store's segmented storage layer.
type StoreConfig struct {
	// Dir, when non-empty, persists sealed segments on disk under this
	// directory (one file per segment, recovered on the next NewStoreWith).
	// Empty keeps everything in memory.
	Dir string
	// SegmentRows is the seal threshold; <= 0 selects the default (4096).
	SegmentRows int
}

// StorageStats aggregates a store's physical-layout and pruning counters.
type StorageStats = storage.StorageStats

// NewStoreWith creates a database with explicit storage configuration.
// With a Dir, previously sealed tables are recovered before it returns:
// schemas and statistics come from the segment footers, rows are served
// lazily from disk.
func NewStoreWith(cfg StoreConfig) (*Store, error) {
	c := storage.Config{SegmentRows: cfg.SegmentRows}
	if cfg.Dir != "" {
		b, err := storage.NewDiskBackend(cfg.Dir)
		if err != nil {
			return nil, err
		}
		c.Backend = b
	}
	return storage.NewStoreWith(c)
}

// NewRelation builds a relation schema, for Store.Create.
func NewRelation(name string, cols ...Column) *Relation { return schema.NewRelation(name, cols...) }

// Col declares one column of a relation.
func Col(name string, t Type) Column { return schema.Col(name, t) }

// SensitiveCol declares a column carrying personal data; generated
// policies deny it by default.
func SensitiveCol(name string, t Type) Column { return schema.SensitiveCol(name, t) }

// Value constructors for ingesting rows.
func Null() Value              { return schema.Null() }
func Bool(b bool) Value        { return schema.Bool(b) }
func Int(i int64) Value        { return schema.Int(i) }
func Float(f float64) Value    { return schema.Float(f) }
func String(s string) Value    { return schema.String(s) }
func Time(t gotime.Time) Value { return schema.Time(t) }

// NewJournal creates an empty audit journal, for Open(..., WithJournal(j)).
func NewJournal() *Journal { return audit.NewJournal() }

// NewPlanCache creates a prepared-plan cache holding at most capacity
// entries (<= 0 selects a sensible default), for Open(..., WithPlanCache(c)).
func NewPlanCache(capacity int) *PlanCache { return core.NewPlanCache(capacity) }

// DefaultApartment builds the Figure 3 chain: sensor → appliance → media
// center → apartment PC → cloud.
func DefaultApartment() *Topology { return network.DefaultApartment() }

// Figure4Policy returns the paper's example policy (Figure 4): positions x
// and y revealed as-is, height z only as AVG grouped by (x, y) with the
// SUM(z) > 100 safeguard, identity denied.
func Figure4Policy() *Policy { return policy.Figure4() }

// ParsePolicy reads a policy from its XML form.
func ParsePolicy(r io.Reader) (*Policy, error) { return policy.Parse(r) }

// ParsePolicyBytes is ParsePolicy over a byte slice.
func ParsePolicyBytes(data []byte) (*Policy, error) { return policy.ParseBytes(data) }

// GeneratePolicy derives a default policy for every relation of a catalog:
// one module per relation with sensitive attributes denied (the automatic
// generation of privacy settings of §3).
func GeneratePolicy(cat *Catalog) *Policy { return policy.GenerateForCatalog(cat) }

// DefaultPolicyModule derives the default module for one relation
// (sensitive attributes denied, everything else allowed).
func DefaultPolicyModule(id string, rel *Relation) *PolicyModule {
	return policy.DefaultModule(id, rel)
}

// WriteCSV writes a relation as CSV with a header row.
func WriteCSV(w io.Writer, rel *Relation, rows Rows) error { return storage.WriteCSV(w, rel, rows) }

// ReadCSV loads CSV data (with header) into rows following the relation's
// declared column order and types.
func ReadCSV(r io.Reader, rel *Relation) (Rows, error) { return storage.ReadCSV(r, rel) }
