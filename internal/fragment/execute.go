package fragment

import (
	"context"
	"errors"
	"fmt"

	"paradise/internal/engine"
	"paradise/internal/schema"
)

// StageResult records one executed fragment for accounting: the rows it
// produced and their simulated wire size (what ships to the next node), and
// in which representation they left the stage.
type StageResult struct {
	Fragment *Fragment
	Rows     int
	Bytes    int
	// Columnar is true when the stage's block compiled to kernels only and
	// its output crossed the boundary as column batches; otherwise Declined
	// holds the engine's reason (engine.Decline*) for handing on rows.
	Columnar bool
	Declined string
}

// Path renders the stage's output representation for the stats trailer and
// -explain: "columnar", or "rows: <why the block declined>".
func (r StageResult) Path() string {
	if r.Columnar {
		return "columnar"
	}
	return "rows: " + r.Declined
}

// Execution is the outcome of running a whole plan.
type Execution struct {
	Result *engine.Result
	Stages []StageResult
}

// BytesShipped sums the bytes crossing node boundaries (every stage output
// travels one hop up the ladder).
func (e *Execution) BytesShipped() int {
	total := 0
	for _, s := range e.Stages {
		total += s.Bytes
	}
	return total
}

// stageErr marks an error already attributed to a fragment stage so outer
// stages do not re-wrap it as it propagates up the iterator chain.
type stageErr struct{ err error }

func (e *stageErr) Error() string { return e.err.Error() }
func (e *stageErr) Unwrap() error { return e.err }

func wrapStage(f *Fragment, err error) error {
	var se *stageErr
	if errors.As(err, &se) {
		return err
	}
	return &stageErr{err: fmt.Errorf("fragment: stage %d (%s): %w", f.Stage, f.Description, err)}
}

// stageIter wraps one fragment's output pipeline: it counts rows and wire
// bytes per batch for the stage accounting, and attributes errors to its
// stage. Close drains the remainder first — the producing node ships its
// whole output up the chain regardless of how much the consumer reads, so
// per-stage stats match the fully materialized baseline exactly even when a
// later stage stops early (LIMIT).
//
// Every stage also serves column batches (nextBatch in colstage.go): a
// stage whose block compiled to kernels only hands on its pipeline's own
// (col, the same pipeline as src), any other stage's rows are built into
// batches of rel. Both faces advance one stream and feed one pair of
// counters, and a batch's wire size is its rows' by construction, so which
// face a consumer pulls never shows in the accounting.
type stageIter struct {
	src     schema.RowIterator
	col     schema.ColIterator // src's columnar face; nil when the block declined
	decline string             // why col is nil (engine.Decline*)
	rel     *schema.Relation   // the stage's output schema
	f       *Fragment
	rows    int
	bytes   int
	closed  bool
	err     error // runtime error surfaced while draining on Close
}

func (s *stageIter) Next() (schema.Rows, error) {
	batch, err := s.src.Next()
	if err != nil {
		return nil, wrapStage(s.f, err)
	}
	s.rows += len(batch)
	s.bytes += batch.WireSize()
	return batch, nil
}

func (s *stageIter) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for {
		more, err := s.skip()
		if err != nil {
			// The baseline would have evaluated this row and failed the
			// whole execution: record the error for Execute to surface.
			s.err = err
			break
		}
		if !more {
			break
		}
	}
	s.src.Close()
}

// skip accounts one more batch without handing it to anyone — as column
// batches when the stage has them, which costs no pivot.
func (s *stageIter) skip() (more bool, err error) {
	if s.col != nil {
		cb, err := s.nextBatch()
		return cb != nil, err
	}
	batch, err := s.Next()
	return batch != nil, err
}

// stageSource exposes the previous stage's output iterator under its
// relation name, falling back to the base source for any base relation a
// join references. The stage output is one-shot: fragment plans read each
// intermediate exactly once. Over a columnar base every stage is read
// through colStageSource instead; this row face serves non-columnar bases
// only.
type stageSource struct {
	base     engine.Source
	name     string
	rel      *schema.Relation
	it       *stageIter
	consumed bool
}

// claim enforces the one-shot rule on every entry point.
func (s *stageSource) claim() error {
	if s.consumed {
		return fmt.Errorf("%w: stage output %q read twice", ErrFragment, s.name)
	}
	s.consumed = true
	return nil
}

func (s *stageSource) take() (*stageIter, error) {
	if err := s.claim(); err != nil {
		return nil, err
	}
	if s.it == nil {
		// A sensor stage served as a view (view.go) has no row face.
		return nil, fmt.Errorf("%w: stage output %q is served as column batches only", ErrFragment, s.name)
	}
	return s.it, nil
}

func (s *stageSource) RelationSchema(name string) (*schema.Relation, error) {
	if name == s.name {
		return s.rel, nil
	}
	return engine.RelationSchema(s.base, name)
}

// OpenScan serves the stage output as the stage produces its batches
// (batchSize is a cap the stage does not need); base relations open on the
// base source.
func (s *stageSource) OpenScan(ctx context.Context, name string, batchSize int) (schema.RowIterator, error) {
	if name == s.name {
		it, err := s.take()
		if err != nil {
			return nil, err
		}
		return it, nil
	}
	return engine.OpenScan(ctx, s.base, name, batchSize)
}

// Relation is the materialized fallback of the engine's Source interface;
// the engine only takes this path for sources without batch scans, but the
// interface contract requires it.
func (s *stageSource) Relation(name string) (*schema.Relation, schema.Rows, error) {
	if name == s.name {
		it, err := s.take()
		if err != nil {
			return nil, nil, err
		}
		rows, err := schema.DrainIterator(it)
		if err != nil {
			return nil, nil, err
		}
		return s.rel, rows, nil
	}
	return s.base.Relation(name)
}

// Option configures how a fragment plan executes.
type Option func(*execConfig)

type execConfig struct{ par int }

// WithParallelism sets the number of worker goroutines each stage's engine
// pipeline may use (morsel-driven, see the engine package): n <= 0 means
// runtime.GOMAXPROCS(0), 1 (the default) keeps execution serial. A stage
// output feeds the next stage's workers through a shared morsel cursor
// (schema.ShareColIterator for column batches, schema.ShareIterator for
// rows), so the per-stage row/byte accounting accrues under that cursor's
// lock — batch sums are order-independent, making a parallel chain's
// accounting bit-identical to the serial chain's. A stage the engine's
// whole-block kernels accept runs on them whatever n is.
func WithParallelism(n int) Option {
	return func(c *execConfig) { c.par = n }
}

// Chain is an opened fragment plan: the stages wired into one lazy batch
// pipeline whose final iterator the caller pulls. Each fragment's iterator
// feeds the next stage's scan, so no intermediate relation is materialized
// in full (memory is bounded by batch size plus any pipeline breakers
// inside a stage). Per-stage row/byte accounting accrues as batches flow
// and is finalized by Close, which drains every stage — the accounting of a
// fully drained chain matches the materialized baseline exactly even when
// the consumer stopped early (LIMIT, cursor Close). A sensor stage served
// as a view of its base table (view.go) is not run: it is accounted from
// its scan snapshot, and its Close verifies what the consumer did not
// reach.
type Chain struct {
	rel    *schema.Relation
	view   *viewStage   // stage 1 as a view; nil when every stage runs
	stages []*stageIter // the stages that run, bottom first
	closed bool
}

// OpenChain wires the plan's fragments into one lazy pipeline over the base
// source, bound to ctx (cancellation is checked per batch at every scan).
// The caller pulls Iterator and must Close the chain; Close is idempotent.
func OpenChain(ctx context.Context, plan *Plan, base engine.Source, opts ...Option) (*Chain, error) {
	if len(plan.Fragments) == 0 {
		return nil, fmt.Errorf("%w: empty plan", ErrFragment)
	}
	cfg := execConfig{par: 1}
	for _, o := range opts {
		o(&cfg)
	}

	var src engine.Source = base
	frags := plan.Fragments
	view := newViewStage(ctx, plan, base)
	if view != nil {
		src = &colStageSource{
			stageSource: &stageSource{base: base, name: view.f.Output, rel: view.rel},
			cbase:       view.base,
			view:        view,
		}
		frags = frags[1:]
	}
	stages := make([]*stageIter, 0, len(frags))
	var rel *schema.Relation
	for _, f := range frags {
		stageRel, it, decline, err := engine.New(src).WithParallelism(cfg.par).OpenStage(ctx, f.Root)
		if err != nil {
			// Abandon the chain. Open's own cleanup may already have
			// closed (and thereby drained) upstream stages; the stats are
			// discarded with the error, so only release what remains.
			for _, s := range stages {
				s.src.Close()
			}
			return nil, wrapStage(f, err)
		}
		rel = stageRel.Clone(f.Output)
		st := &stageIter{src: it, f: f, decline: decline, rel: rel}
		st.col, _ = it.(schema.ColIterator)
		stages = append(stages, st)
		out := &stageSource{base: base, name: f.Output, rel: rel, it: st}
		src = out
		// Over a columnar base the next stage reads everything as column
		// batches — this stage's output, whatever it shipped, and every
		// base relation it joins — so its scans always compile to kernels.
		if cbase, ok := base.(engine.ColScanner); ok {
			src = &colStageSource{stageSource: out, cbase: cbase}
		}
	}
	return &Chain{rel: rel, view: view, stages: stages}, nil
}

// Schema is the output relation of the final fragment.
func (c *Chain) Schema() *schema.Relation { return c.rel }

// Iterator is the final stage's batch iterator. Closing it closes (and
// drains) the whole chain; prefer Chain.Close, which also surfaces drain
// errors.
func (c *Chain) Iterator() schema.RowIterator { return c.stages[len(c.stages)-1] }

// Close drain-closes the whole chain so every stage's accounting is final
// even if the consumer stopped pulling early, and reports any error the
// drain hit — a row the materialized baseline would have choked on, a
// segment that fails its checksum, or the context cancelled mid-drain.
// Close is idempotent; later calls return the first result.
func (c *Chain) Close() error {
	if !c.closed {
		c.closed = true
		for i := len(c.stages) - 1; i >= 0; i-- {
			c.stages[i].Close()
		}
		if c.view != nil {
			c.view.close()
		}
	}
	if c.view != nil && c.view.err != nil {
		return c.view.err
	}
	for _, st := range c.stages {
		if st.err != nil {
			return st.err
		}
	}
	return nil
}

// Stages returns the per-stage accounting. Only final after Close (or after
// the final iterator is exhausted and Close confirmed no drain error).
func (c *Chain) Stages() []StageResult {
	out := make([]StageResult, 0, len(c.stages)+1)
	if c.view != nil {
		out = append(out, c.view.result())
	}
	for _, st := range c.stages {
		out = append(out, StageResult{Fragment: st.f, Rows: st.rows, Bytes: st.bytes,
			Columnar: st.col != nil, Declined: st.decline})
	}
	return out
}

// Execute runs the plan bottom-up against the base source as one chained
// batch pipeline (see OpenChain). The final result is materialized for the
// caller, and per-stage row/byte accounting is collected from the streamed
// batches. Execution is semantically equivalent to evaluating the original
// query directly (the property tests in this package assert exactly that).
func Execute(ctx context.Context, plan *Plan, base engine.Source, opts ...Option) (*Execution, error) {
	chain, err := OpenChain(ctx, plan, base, opts...)
	if err != nil {
		return nil, err
	}
	rows, err := schema.DrainIterator(chain.Iterator())
	if err != nil {
		chain.Close()
		return nil, err
	}
	// Fail if the drain-close hit a row the materialized baseline would
	// have choked on.
	if err := chain.Close(); err != nil {
		return nil, err
	}
	return &Execution{
		Result: &engine.Result{Schema: chain.Schema(), Rows: rows},
		Stages: chain.Stages(),
	}, nil
}
