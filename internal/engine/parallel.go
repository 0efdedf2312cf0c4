package engine

import (
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"

	"paradise/internal/plan"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// This file is the engine's one execution pipeline. Every query block
// compiles (engine.go) into a parSeg: a morsel source plus a list of
// per-worker stage factories for the block's per-row independent work (scan
// filter and projection, residual filters, join probe, select list, the
// DISTINCT pre-pass, GROUP BY key computation). A driver — the exchange —
// runs the segment with the worker count the block chose:
//
//   - Several workers pull morsels concurrently, run the fused stage chain
//     over them, and hand the results to an order-preserving reorder buffer
//     that re-emits batches in morsel order.
//   - One worker is the same chain with the exchange elided: each consumer
//     pull claims one morsel and runs the stages on the caller's goroutine —
//     no goroutine, no mutex, no reorder buffer — and stage output buffers
//     are reused under the iterator contract (a batch is valid until the
//     next pull).
//
// The ordering discipline is what makes the worker count invisible: because
// the exchange restores the pull order, every downstream consumer —
// DISTINCT merges, group-by merges, sort ties, the fragment chain's
// accounting, the facade's cursors — observes exactly the rows, in exactly
// the order, a single worker produces, and per-group aggregate folds visit
// rows in that order so even float aggregates are bit-identical. Errors are
// delivered at the seq of the batch that raised them, so the first error
// surfaces at the same point in the stream for any worker count.
//
// What runs on one goroutine regardless, by design:
//
//   - Blocks with a *streaming* LIMIT (no breaker below it), see openBlock.
//   - Pipeline breakers' own materialized evaluation (sort, windows),
//     whose input production still runs on the segment's workers.
//   - Join build sides (drainBuildSide).
//   - The per-morsel source pull (one short critical section per batch)
//     and the exchange's in-order re-emission.

// batchFn transforms one morsel's rows inside a worker. It must not mutate
// the input batch (which may alias storage memory); it returns either the
// input untouched or a batch of its own (see outBuf for who owns it).
type batchFn func(in schema.Rows) (schema.Rows, error)

// stageFactory builds one worker's instance of a stage. Factories are
// invoked once per worker, concurrently, and must only capture read-only
// compile artifacts; all mutable state (row environments, buffers, local
// dedup maps) is created inside. reuse is the driver's buffer contract for
// this instance, handed to its outBuf.
type stageFactory func(reuse bool) batchFn

// keyFn is the optional keyed terminal stage of a worker pipeline: it
// returns the (possibly filtered) batch plus one key string per surviving
// row, for DISTINCT merges and GROUP BY partitioning.
type keyFn func(in schema.Rows) (schema.Rows, []string, error)

// keyFactory builds one worker's keyFn, under the same rules as
// stageFactory.
type keyFactory func(reuse bool) keyFn

// outBuf is a stage instance's output batch header (rows, or per-row keys).
// Batches produced by concurrent workers transfer ownership to the consumer
// with their parcel (the producer cannot know when the consumer advances),
// so each gets a fresh header; the one-worker driver hands batches over
// under the iterator contract — valid until the next pull — and reuses one
// header across batches. Only the header is ever reused: rows are immutable
// and may be retained downstream.
type outBuf[T any] struct {
	reuse bool
	buf   []T
}

// start returns an empty header for a batch of up to n entries.
func (b *outBuf[T]) start(n int) []T {
	if b.reuse {
		return b.buf[:0]
	}
	return make([]T, 0, n)
}

// done records the (possibly grown) header for the next batch.
func (b *outBuf[T]) done(out []T) []T {
	if b.reuse {
		b.buf = out
	}
	return out
}

// parSeg is a compiled streamable segment: where the morsels come from,
// what each worker does to them, and how many workers run it. Exactly one
// of ms (morsel-native sources) and it (any other source) is set.
type parSeg struct {
	b       *binding
	ms      schema.MorselSource
	it      schema.RowIterator
	mk      []stageFactory
	workers int
}

// close releases an abandoned segment (compile error before any exchange
// took ownership).
func (s *parSeg) close() {
	if s.ms != nil {
		s.ms.Close()
	}
	if s.it != nil {
		s.it.Close()
	}
}

// source resolves the segment's morsel source. Several workers share an
// iterator through schema.ShareIterator (a lock, and a header copy because
// a morsel outlives the pull); a single worker pulls it directly.
func (s *parSeg) source() schema.MorselSource {
	if s.ms != nil {
		return s.ms
	}
	if s.workers == 1 {
		return &soleMorsels{it: s.it}
	}
	return schema.ShareIterator(s.it)
}

// iterator exposes the segment as a batch iterator: through the driver when
// there are stages to run, directly otherwise.
func (s *parSeg) iterator() schema.RowIterator {
	if len(s.mk) == 0 {
		if s.it != nil {
			return s.it
		}
		// Sole consumer of the morsel source: closing the iterator must
		// close the source too (IterateMorsels alone only stops its own
		// partition).
		return &ownedMorselIter{RowIterator: schema.IterateMorsels(s.ms), ms: s.ms}
	}
	return &exchIter{x: newExchange(s, nil)}
}

// ownedMorselIter is a single-partition view that owns its source.
type ownedMorselIter struct {
	schema.RowIterator
	ms schema.MorselSource
}

func (o *ownedMorselIter) Close() {
	o.RowIterator.Close()
	o.ms.Close()
}

// SizeHint forwards the source's remaining-row bound to a breaker's drain.
func (o *ownedMorselIter) SizeHint() int { return morselHint(o.ms) }

// morselHint is a morsel source's remaining row count, 0 when it cannot say
// (it filters, or its rows come from an iterator without a hint).
func morselHint(ms schema.MorselSource) int {
	if h, ok := ms.(schema.SizeHinter); ok {
		return h.SizeHint()
	}
	return 0
}

// soleMorsels serves an iterator to the one-worker driver with neither lock
// nor header copy: the single puller is done with a batch before it pulls
// the next, which is all the iterator contract asks.
type soleMorsels struct {
	it  schema.RowIterator
	seq int
}

func (s *soleMorsels) NextMorsel() (schema.Morsel, error) {
	rows, err := s.it.Next()
	m := schema.Morsel{Seq: s.seq, Rows: rows}
	s.seq++
	return m, err
}

func (s *soleMorsels) Close() { s.it.Close() }

// parcel is one processed morsel travelling from a worker to the exchange
// consumer: the transformed batch, optional per-row keys, or the error
// raised at this position of the stream.
type parcel struct {
	rows schema.Rows
	keys []string
	err  error
}

// stageChain is one worker's instantiated stages.
type stageChain struct {
	fns []batchFn
	kf  keyFn
}

// run pushes one morsel through the chain.
func (c *stageChain) run(rows schema.Rows) (schema.Rows, []string, error) {
	var err error
	for _, fn := range c.fns {
		if rows, err = fn(rows); err != nil {
			return nil, nil, err
		}
	}
	var keys []string
	if c.kf != nil && len(rows) > 0 {
		rows, keys, err = c.kf(rows)
	}
	return rows, keys, err
}

// exchange drives a segment: it runs the workers over the morsel source and
// hands their output parcels to a single consumer in morsel order. Several
// workers run at most window parcels ahead of the consumer, bounding
// buffered memory; per-worker results are merged at the consumer, which is
// where accounting-sensitive consumers (stage drains, group merges) observe
// them — in morsel order. With one worker there is nothing to reorder and
// the exchange is elided: nextParcel does the work itself.
type exchange struct {
	src     schema.MorselSource
	mk      []stageFactory
	kf      keyFactory
	workers int
	window  int

	// One worker: the chain and parcel of the consumer's own goroutine.
	sole    *stageChain
	current parcel

	mu      sync.Mutex
	cond    *sync.Cond
	buf     map[int]*parcel
	next    int   // next seq to emit
	active  int   // workers still running
	fatal   error // a worker panicked holding no morsel: fails the stream
	started bool
	stopped bool
	wg      sync.WaitGroup
}

func newExchange(seg *parSeg, kf keyFactory) *exchange {
	x := &exchange{src: seg.source(), mk: seg.mk, kf: kf, workers: seg.workers}
	if x.workers > 1 {
		x.window = 2*x.workers + 2
		x.buf = make(map[int]*parcel)
		x.cond = sync.NewCond(&x.mu)
	}
	return x
}

// chain instantiates the stages for one worker.
func (x *exchange) chain() *stageChain {
	reuse := x.workers == 1
	c := &stageChain{fns: make([]batchFn, len(x.mk))}
	for i, mk := range x.mk {
		c.fns[i] = mk(reuse)
	}
	if x.kf != nil {
		c.kf = x.kf(reuse)
	}
	return c
}

// start spawns the workers; called lazily on the first pull so an opened
// but never-consumed pipeline costs nothing and a pre-pull Close has
// nothing to unwind.
func (x *exchange) start() {
	x.mu.Lock()
	if x.started || x.stopped {
		x.mu.Unlock()
		return
	}
	x.started = true
	x.active = x.workers
	x.mu.Unlock()
	for w := 0; w < x.workers; w++ {
		x.wg.Add(1)
		go x.worker()
	}
}

func (x *exchange) worker() {
	defer x.wg.Done()
	// held is the seq of the morsel this worker claimed and has not yet
	// delivered a parcel for; -1 between morsels.
	held := -1
	defer func() {
		// A panic in a stage (or the source) must not take the process
		// down with it: the consumer gets one ErrInternal — at the held
		// morsel's position in the stream, or, when no morsel was held and
		// nobody knows what the stream lost, at its next pull.
		var fatal error
		if p := recover(); p != nil {
			if err := panicError(p); held >= 0 {
				x.deliver(held, &parcel{err: err})
			} else {
				fatal = err
			}
		}
		x.mu.Lock()
		if x.fatal == nil {
			x.fatal = fatal
		}
		x.active--
		x.cond.Broadcast()
		x.mu.Unlock()
	}()

	c := x.chain()
	for {
		held = -1
		m, err := x.src.NextMorsel()
		if err != nil {
			x.deliver(m.Seq, &parcel{err: err})
			return
		}
		if m.Rows == nil {
			return
		}
		held = m.Seq
		rows, keys, err := c.run(m.Rows)
		if err != nil {
			x.deliver(m.Seq, &parcel{err: err})
			return
		}
		// Every claimed seq is delivered — even an empty batch — so the
		// emission order stays contiguous.
		x.deliver(m.Seq, &parcel{rows: rows, keys: keys})
	}
}

// panicError turns a recovered panic of a pipeline goroutine into the error
// its consumer sees, and logs the stack the error cannot carry.
func panicError(p any) error {
	slog.Error("engine: pipeline stage panicked", "panic", p, "stack", string(debug.Stack()))
	return fmt.Errorf("%w: pipeline stage panicked: %v", ErrInternal, p)
}

// deliver hands one parcel to the reorder buffer, waiting while the worker
// is too far ahead of the consumer.
func (x *exchange) deliver(seq int, p *parcel) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for !x.stopped && seq >= x.next+x.window {
		x.cond.Wait()
	}
	if x.stopped {
		return
	}
	x.buf[seq] = p
	x.cond.Broadcast()
}

// nextParcel returns the next parcel in morsel order, or ok=false once the
// stream is exhausted or the exchange closed. Single-consumer. Under one
// worker the parcel (and the batch in it) is valid until the next call.
func (x *exchange) nextParcel() (*parcel, bool) {
	if x.workers == 1 {
		return x.nextInline()
	}
	x.start()
	x.mu.Lock()
	defer x.mu.Unlock()
	for {
		if x.stopped {
			return nil, false
		}
		if x.fatal != nil {
			return &parcel{err: x.fatal}, true
		}
		if p, ok := x.buf[x.next]; ok {
			delete(x.buf, x.next)
			x.next++
			x.cond.Broadcast() // release window-blocked workers
			return p, true
		}
		if x.active == 0 && x.started {
			return nil, false
		}
		x.cond.Wait()
	}
}

// nextInline is the elided exchange: claim one morsel and run the stage
// chain on the consumer's goroutine.
func (x *exchange) nextInline() (p *parcel, ok bool) {
	if x.stopped {
		return nil, false
	}
	// The one-worker twin of worker's boundary: same error, same place.
	defer func() {
		if r := recover(); r != nil {
			x.current = parcel{err: panicError(r)}
			p, ok = &x.current, true
		}
	}()
	if x.sole == nil {
		x.sole = x.chain()
	}
	p = &x.current
	m, err := x.src.NextMorsel()
	if err != nil {
		*p = parcel{err: err}
		return p, true
	}
	if m.Rows == nil {
		return nil, false
	}
	p.rows, p.keys, p.err = x.sole.run(m.Rows)
	return p, true
}

// close stops the exchange: workers are released, the morsel source is
// closed (which for stage outputs triggers the drain-on-close accounting),
// and close blocks until every worker has exited, so no goroutine outlives
// the pipeline. Idempotent.
func (x *exchange) close() {
	if x.workers == 1 {
		if !x.stopped {
			x.stopped = true
			x.src.Close()
		}
		return
	}
	x.mu.Lock()
	if x.stopped {
		x.mu.Unlock()
		return
	}
	x.stopped = true
	x.cond.Broadcast()
	x.mu.Unlock()
	x.src.Close()
	x.wg.Wait()
}

// exchIter is the plain iterator face of an exchange: batches come out in
// morsel order, empty parcels are skipped, the first error ends the stream
// at its position.
type exchIter struct {
	x    *exchange
	err  error
	done bool
}

func (e *exchIter) Next() (schema.Rows, error) {
	if e.done {
		return nil, e.err
	}
	for {
		p, ok := e.x.nextParcel()
		if !ok {
			e.done = true
			e.x.close()
			return nil, nil
		}
		if p.err != nil {
			e.done, e.err = true, p.err
			e.x.close()
			return nil, e.err
		}
		if len(p.rows) > 0 {
			return p.rows, nil
		}
	}
}

func (e *exchIter) Close() {
	e.done = true
	e.x.close()
}

// distinctMergeIter merges worker streams for DISTINCT: workers pre-dedup
// their own streams and attach keys (distinctKeys); the merge keeps the
// first global occurrence. Rows are emitted on first occurrence, so order is
// preserved and memory is bounded by the number of distinct rows; because
// parcels arrive in morsel order, the surviving row set and its order do
// not depend on the worker count.
type distinctMergeIter struct {
	x    *exchange
	seen map[string]bool
	err  error
	done bool
}

func (d *distinctMergeIter) Next() (schema.Rows, error) {
	if d.done {
		return nil, d.err
	}
	for {
		p, ok := d.x.nextParcel()
		if !ok {
			d.done = true
			d.x.close()
			return nil, nil
		}
		if p.err != nil {
			d.done, d.err = true, p.err
			d.x.close()
			return nil, d.err
		}
		out := p.rows
		if d.x.workers > 1 { // a sole worker's pre-pass is already global
			// In-place compaction is safe: a keyed parcel's header is always
			// the key stage's own (never the source batch), handed over with
			// the parcel.
			out = p.rows[:0]
			for i, r := range p.rows {
				if !d.seen[p.keys[i]] {
					d.seen[p.keys[i]] = true
					out = append(out, r)
				}
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (d *distinctMergeIter) Close() {
	d.done = true
	d.x.close()
}

// --- Per-worker stage factories -------------------------------------------

// scanStage fuses a scan's pushed predicate and projection into the worker
// pipeline: the morsel source hands out raw batches, each worker filters
// and projects its own morsels. Mirrors schema's scanIterator semantics
// (filter over the full-width row, then projection backed by one fresh
// array per batch).
func scanStage(full *binding, conds []sqlparser.Expr, cols []int) stageFactory {
	var cond sqlparser.Expr
	if len(conds) > 0 {
		cond = sqlparser.AndAll(conds)
	}
	return func(reuse bool) batchFn {
		var env *rowEnv
		if cond != nil {
			env = (&rowEnv{b: full}).reuse()
		}
		buf := outBuf[schema.Row]{reuse: reuse}
		return func(in schema.Rows) (schema.Rows, error) {
			if cond == nil && cols == nil {
				return in, nil
			}
			var vals []schema.Value
			if cols != nil {
				vals = make([]schema.Value, 0, len(in)*len(cols))
			}
			out := buf.start(len(in))
			for _, r := range in {
				if cond != nil {
					env.row = r
					ok, err := truthy(env, cond)
					if err != nil {
						return nil, err
					}
					if !ok {
						continue
					}
				}
				if cols != nil {
					start := len(vals)
					for _, c := range cols {
						vals = append(vals, r[c])
					}
					r = vals[start:len(vals):len(vals)]
				}
				out = append(out, r)
			}
			return buf.done(out), nil
		}
	}
}

// addFilter appends a filter stage for cond after resolving every column
// it names against the segment's binding, so an unknown or ambiguous
// column fails the compile whatever the data. On that error the segment is
// closed.
func (s *parSeg) addFilter(cond sqlparser.Expr) error {
	for _, c := range sqlparser.ColumnRefs(cond) {
		if _, err := s.b.resolve(c); err != nil {
			s.close()
			return err
		}
	}
	s.mk = append(s.mk, filterStage(s.b, cond))
	return nil
}

// filterStage drops rows failing a residual condition (filters above a
// join or derived table, which cannot be pushed into a scan).
func filterStage(b *binding, cond sqlparser.Expr) stageFactory {
	return func(reuse bool) batchFn {
		env := (&rowEnv{b: b}).reuse()
		buf := outBuf[schema.Row]{reuse: reuse}
		return func(in schema.Rows) (schema.Rows, error) {
			out := buf.start(len(in))
			for _, r := range in {
				env.row = r
				ok, err := truthy(env, cond)
				if err != nil {
					return nil, err
				}
				if ok {
					out = append(out, r)
				}
			}
			return buf.done(out), nil
		}
	}
}

// projStage evaluates a non-identity select list. Projected rows share one
// backing array per batch, fresh each time (rows may be retained
// downstream).
func projStage(p *projector, b *binding) stageFactory {
	return func(reuse bool) batchFn {
		env := (&rowEnv{b: b}).reuse()
		buf := outBuf[schema.Row]{reuse: reuse}
		return func(in schema.Rows) (schema.Rows, error) {
			nc := len(p.cols)
			vals := make([]schema.Value, len(in)*nc)
			out := buf.start(len(in))
			for i, r := range in {
				env.row = r
				orow := vals[i*nc : (i+1)*nc : (i+1)*nc]
				if err := p.projectInto(env, orow); err != nil {
					return nil, err
				}
				out = append(out, orow)
			}
			return buf.done(out), nil
		}
	}
}

// hashProbeStage probes the shared read-only partitioned build index (the
// materialized right input) with this worker's left morsels. Inner and left
// joins with at least one equi-key.
func hashProbeStage(ix *joinIndex, rrows schema.Rows, eqL []int, rest []sqlparser.Expr, cb *binding, leftJoin bool, nullR schema.Row) stageFactory {
	return func(reuse bool) batchFn {
		env := (&rowEnv{b: cb}).reuse()
		buf := outBuf[schema.Row]{reuse: reuse}
		var kbuf []byte
		return func(in schema.Rows) (schema.Rows, error) {
			out := buf.start(len(in))
			for _, lr := range in {
				matched := false
				var matches []int
				if !nullKeyRow(lr, eqL) {
					kbuf = lr.AppendGroupKey(kbuf[:0], eqL)
					matches = ix.lookup(kbuf)
				}
				for _, ri := range matches {
					combined := joinRow(lr, rrows[ri])
					ok, err := residualOK(env, combined, rest)
					if err != nil {
						return nil, err
					}
					if ok {
						out = append(out, combined)
						matched = true
					}
				}
				if !matched && leftJoin {
					out = append(out, joinRow(lr, nullR))
				}
			}
			return buf.done(out), nil
		}
	}
}

// loopProbeStage is the nested-loop fallback (and, with a nil condition,
// the cross join): the right side is materialized, the left side streams.
func loopProbeStage(rrows schema.Rows, on sqlparser.Expr, cb *binding, leftJoin bool, nullR schema.Row) stageFactory {
	return func(reuse bool) batchFn {
		env := (&rowEnv{b: cb}).reuse()
		buf := outBuf[schema.Row]{reuse: reuse}
		return func(in schema.Rows) (schema.Rows, error) {
			out := buf.start(len(in))
			for _, lr := range in {
				matched := false
				for _, rr := range rrows {
					combined := joinRow(lr, rr)
					ok := true
					if on != nil {
						env.row = combined
						var err error
						ok, err = truthy(env, on)
						if err != nil {
							return nil, err
						}
					}
					if ok {
						out = append(out, combined)
						matched = true
					}
				}
				if !matched && leftJoin {
					out = append(out, joinRow(lr, nullR))
				}
			}
			return buf.done(out), nil
		}
	}
}

// distinctKeys is the keyed terminal stage for DISTINCT: each worker
// computes row keys and drops repeats within its own stream (a later
// duplicate can never be the global first occurrence, so local
// pre-deduplication is always safe). The cross-worker merge happens in
// distinctMergeIter.
func distinctKeys() keyFactory {
	return func(reuse bool) keyFn {
		var idx []int
		var kbuf []byte
		local := make(map[string]bool)
		buf := outBuf[schema.Row]{reuse: reuse}
		kb := outBuf[string]{reuse: reuse}
		return func(in schema.Rows) (schema.Rows, []string, error) {
			out := buf.start(len(in))
			keys := kb.start(len(in))
			for _, r := range in {
				if idx == nil {
					idx = allIndexes(len(r))
				}
				// Canonical byte key in a reused scratch buffer: the map
				// lookup on string(kbuf) compiles allocation-free.
				kbuf = r.AppendGroupKey(kbuf[:0], idx)
				if local[string(kbuf)] {
					continue
				}
				// Only a first occurrence materializes its key string — it
				// is needed across batches (the local set and the merge).
				k := string(kbuf)
				local[k] = true
				out = append(out, r)
				keys = append(keys, k)
			}
			return buf.done(out), kb.done(keys), nil
		}
	}
}

// groupKeys is the keyed terminal stage for GROUP BY: workers evaluate the
// grouping expressions for their morsels (the expensive part of grouping).
// Canonical byte keys are self-delimiting (see Value.AppendGroupKey), so
// concatenation needs no separator.
func groupKeys(b *binding, exprs []sqlparser.Expr) keyFactory {
	return func(reuse bool) keyFn {
		env := (&rowEnv{b: b}).reuse()
		var kbuf []byte
		kb := outBuf[string]{reuse: reuse}
		return func(in schema.Rows) (schema.Rows, []string, error) {
			keys := kb.start(len(in))
			for _, r := range in {
				env.row = r
				kbuf = kbuf[:0]
				for _, ex := range exprs {
					v, err := evalExpr(env, ex)
					if err != nil {
						return nil, nil, err
					}
					kbuf = v.AppendGroupKey(kbuf)
				}
				keys = append(keys, string(kbuf))
			}
			return in, kb.done(keys), nil
		}
	}
}

// --- Partitioned hash-join build ------------------------------------------

// joinIndex is a hash index over the build side, partitioned by key hash so
// it can be built by P workers without locking and probed lock-free (the
// partitions are immutable after the build barrier).
type joinIndex struct {
	parts []map[string][]int
}

func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// nullKeyRow reports whether any of the row's join key columns is NULL: such
// a row joins nothing, on either side — NULL = NULL is not true, and the
// nested-loop probe, which evaluates ON, never matched it either.
func nullKeyRow(r schema.Row, cols []int) bool {
	for _, c := range cols {
		if r[c].IsNull() {
			return true
		}
	}
	return false
}

// buildJoinIndex builds the probe index over the materialized build rows,
// leaving out rows with a NULL key. Phase 1 computes keys and hashes in
// parallel row ranges; phase 2 lets each partition's worker insert exactly
// the rows hashing to it, scanning the shared key array in row order so
// per-key row lists match the serial build order.
func buildJoinIndex(rrows schema.Rows, eqR []int, workers int) *joinIndex {
	n := len(rrows)
	if workers < 2 || n < 2*schema.DefaultBatchSize {
		// Small build sides: one partition, built serially.
		m := make(map[string][]int, n)
		var kbuf []byte
		for ri, rr := range rrows {
			if nullKeyRow(rr, eqR) {
				continue
			}
			kbuf = rr.AppendGroupKey(kbuf[:0], eqR)
			m[string(kbuf)] = append(m[string(kbuf)], ri)
		}
		return &joinIndex{parts: []map[string][]int{m}}
	}

	keys := make([]string, n)
	hs := make([]uint32, n)
	parallelRanges(n, workers, func(lo, hi int) {
		var kbuf []byte
		for i := lo; i < hi; i++ {
			if nullKeyRow(rrows[i], eqR) {
				continue // the empty key: partitionKeyIndex leaves it out
			}
			kbuf = rrows[i].AppendGroupKey(kbuf[:0], eqR)
			keys[i] = string(kbuf)
			hs[i] = fnv32a(keys[i])
		}
	})
	return &joinIndex{parts: partitionKeyIndex(keys, hs, workers)}
}

// partitionKeyIndex is phase 2 of the partitioned build (shared with the
// columnar build in vecjoin.go): each partition's worker inserts exactly
// the rows hashing to it, scanning the shared key array in row order so
// per-key row lists match the serial build order. An empty key marks a row
// with a NULL join key, which no partition takes.
func partitionKeyIndex(keys []string, hs []uint32, workers int) []map[string][]int {
	n := len(keys)
	parts := make([]map[string][]int, workers)
	var wg sync.WaitGroup
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			m := make(map[string][]int, n/workers+1)
			// Modulo in uint32: int(hs[i]) % workers would go negative on
			// 32-bit platforms for hashes >= 2^31.
			for i := 0; i < n; i++ {
				if keys[i] != "" && hs[i]%uint32(workers) == uint32(p) {
					m[keys[i]] = append(m[keys[i]], i)
				}
			}
			parts[p] = m
		}(p)
	}
	wg.Wait()
	return parts
}

// lookup probes by raw key bytes: the string(key) map accesses compile
// allocation-free, so probing never copies the key.
func (ix *joinIndex) lookup(key []byte) []int {
	if len(ix.parts) == 1 {
		return ix.parts[0][string(key)]
	}
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return ix.parts[h%uint32(len(ix.parts))][string(key)]
}

// parallelRanges splits [0, n) into one contiguous range per worker and
// runs fn over them concurrently, returning when all are done.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	if workers < 2 || n < 2 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// --- Grouped evaluation ----------------------------------------------------

// evalGrouped handles blocks with GROUP BY, HAVING or aggregate functions
// in the select list, one output row per surviving group: workers compute
// group keys per morsel, the merge partitions rows into groups in morsel
// order (so each group's row list does not depend on the worker count), and
// per-group aggregate folds + HAVING + projection run group-parallel. The
// merge order makes group output order — and, because every group folds
// its rows in that order, every aggregate value — bit-identical for any
// worker count.
func (e *Engine) evalGrouped(blk *plan.Block, seg *parSeg) (*schema.Relation, schema.Rows, error) {
	groupBy := blk.GroupBy()
	var kf keyFactory
	if len(groupBy) > 0 {
		kf = groupKeys(seg.b, groupBy)
	}
	groups, err := collectGroups(newExchange(seg, kf), len(groupBy) == 0)
	if err != nil {
		return nil, nil, err
	}

	// Validated after the drain, so a query with both a scan error and an
	// invalid grouped select list reports the scan error.
	aggCalls, rel, err := groupSpecCompile(blk, seg.b)
	if err != nil {
		return nil, nil, err
	}
	out, err := evalGroups(blk, seg.b, aggCalls, rel, groups, seg.workers)
	if err != nil {
		return nil, nil, err
	}
	return e.finishBroken(blk, seg.b, out, nil)
}

// collectGroups drains the exchange in morsel order, partitioning rows
// into groups by the worker-computed keys (or into the single implicit
// group when the block has no GROUP BY — which exists even for empty
// input, so COUNT(*) over nothing yields 0).
func collectGroups(x *exchange, single bool) ([]*group, error) {
	defer x.close()
	index := make(map[string]*group)
	var order []*group
	if single {
		order = []*group{{}}
		if len(x.mk) == 0 {
			// No stage drops rows: the one group holds the whole source.
			order[0].rows = make(schema.Rows, 0, morselHint(x.src))
		}
	}
	for {
		p, ok := x.nextParcel()
		if !ok {
			return order, nil
		}
		if p.err != nil {
			return nil, p.err
		}
		if single {
			g := order[0]
			for _, r := range p.rows {
				if g.rep == nil {
					g.rep = r
				}
				g.rows = append(g.rows, r)
			}
			continue
		}
		for i, r := range p.rows {
			key := p.keys[i]
			g, ok := index[key]
			if !ok {
				g = &group{rep: r}
				index[key] = g
				order = append(order, g)
			}
			g.rows = append(g.rows, r)
		}
	}
}

// evalGroups evaluates aggregates, HAVING and the select list for
// contiguous chunks of groups concurrently (inline below two workers or two
// groups). Output slots are per-group, so the compacted result preserves
// group order; on errors the lowest group index wins, matching the group at
// which in-order evaluation would stop.
func evalGroups(blk *plan.Block, b *binding, aggCalls []*sqlparser.FuncCall, rel *schema.Relation, groups []*group, workers int) (*Result, error) {
	n := len(groups)
	if workers > n {
		workers = n
	}
	if workers < 2 {
		env := (&rowEnv{b: b}).reuse()
		out := make(schema.Rows, 0, n)
		for _, g := range groups {
			row, keep, err := evalOneGroup(b, env, blk, aggCalls, g)
			if err != nil {
				return nil, err
			}
			if keep {
				out = append(out, row)
			}
		}
		return &Result{Schema: rel, Rows: out}, nil
	}

	rows := make(schema.Rows, n)
	keep := make([]bool, n)
	errIdx := make([]int, workers)
	errs := make([]error, workers)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			env := (&rowEnv{b: b}).reuse()
			for gi := lo; gi < hi; gi++ {
				row, ok, err := evalOneGroup(b, env, blk, aggCalls, groups[gi])
				if err != nil {
					errIdx[w], errs[w] = gi, err
					return
				}
				rows[gi], keep[gi] = row, ok
			}
			errIdx[w] = n
		}(w, lo, hi)
	}
	wg.Wait()

	firstErr := error(nil)
	firstIdx := n
	for w := range errs {
		if errs[w] != nil && errIdx[w] < firstIdx {
			firstIdx, firstErr = errIdx[w], errs[w]
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	out := make(schema.Rows, 0, n)
	for gi := 0; gi < n; gi++ {
		if keep[gi] {
			out = append(out, rows[gi])
		}
	}
	return &Result{Schema: rel, Rows: out}, nil
}
