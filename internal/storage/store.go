package storage

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"paradise/internal/schema"
)

// ErrNoTable is returned when a referenced table does not exist.
var ErrNoTable = errors.New("storage: no such table")

// ErrArity is returned when a row's width does not match the table schema.
var ErrArity = errors.New("storage: row arity mismatch")

// Config tunes a Store's tables.
type Config struct {
	// SegmentRows is the seal threshold: the active tail is sealed into an
	// immutable segment once it reaches this many rows. <= 0 selects
	// DefaultSegmentRows.
	SegmentRows int
	// Backend, when set, persists sealed segments (the tail stays in
	// memory until sealed). nil keeps sealed segments in memory.
	Backend Backend
}

func (c Config) segRows() int {
	if c.SegmentRows <= 0 {
		return DefaultSegmentRows
	}
	return c.SegmentRows
}

// Table is an append-only relation stored as a sequence of immutable
// sealed segments plus one mutable active tail, all column-major (one
// typed vector per column, see schema.ColVec). Columnar storage serves the
// engine's vectorized scan path directly — pruned columns are never
// materialized, kernels loop over unboxed payload slices — while row-major
// consumers get their rows by pivoting at the batch boundary.
//
// Each sealed segment carries a zone map (per-column min/max, null count,
// NaN count, type census — see segment.go) consulted by every scan path:
// a scan with a structured predicate (schema.ColScan.Predicate) skips whole
// segments the zone maps prove matchless before materializing a single
// batch. With a persistent Backend, sealed segments live on disk and are
// decoded lazily per scan, so tables larger than RAM scan fine and a
// restart recovers the sealed prefix without re-ingest.
type Table struct {
	mu     sync.RWMutex
	schema *schema.Relation
	cfg    Config

	// Sealed, immutable segments in append order.
	sealed     []*segment
	sealedRows int
	sealedWire int

	// The active tail: mutable under mu, vectors append-only so windows
	// handed to scans stay valid after unlock.
	cols     []schema.ColVec
	tailRows int
	tailWire int

	nrows int
	// wire caches the cumulative serialized size of rows, maintained on
	// Append/Truncate so WireSize is O(1). Stored values are immutable, so
	// the cache can never go stale.
	wire int

	// stats holds the table-lifetime statistics accumulators (NDV sketch,
	// min/max, null count — see stats.go); segStats the segment-local ones
	// reset at every seal, whose snapshot becomes the seal's zone map.
	stats    []colStat
	segStats []colStat

	// hists memoizes, per column, the sealed segments' merged histogram for
	// Stats (histogram.go); histMu guards it among readers of mu.
	histMu sync.Mutex
	hists  []histMemo

	// Pruning-effectiveness counters, exposed via Store.StorageStats.
	segsScanned atomic.Int64 // segments admitted by (or exempt from) pruning
	segsSkipped atomic.Int64 // segments skipped by zone maps
	segsOpened  atomic.Int64 // segments actually materialized by a scan
}

// NewTable creates an empty table with the given schema and default
// configuration (in-memory, DefaultSegmentRows).
func NewTable(rel *schema.Relation) *Table {
	return newTableWith(rel, Config{})
}

func newTableWith(rel *schema.Relation, cfg Config) *Table {
	t := &Table{
		schema:   rel,
		cfg:      cfg,
		cols:     make([]schema.ColVec, rel.Arity()),
		stats:    make([]colStat, rel.Arity()),
		segStats: make([]colStat, rel.Arity()),
	}
	for i := range t.cols {
		t.cols[i] = schema.NewColVec(rel.Columns[i].Type)
	}
	return t
}

// Schema returns the table schema. The returned value must not be mutated.
func (t *Table) Schema() *schema.Relation { return t.schema }

// Append adds rows, validating arity. Values are copied into the column
// vectors, so the caller keeps ownership of its row slices. Whenever the
// tail reaches the configured segment size it is sealed — with a
// persistent backend that write is durable before Append returns.
func (t *Table) Append(rows ...schema.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var keyBuf []byte
	for _, r := range rows {
		if len(r) != t.schema.Arity() {
			return fmt.Errorf("%w: table %s has %d columns, row has %d",
				ErrArity, t.schema.Name, t.schema.Arity(), len(r))
		}
		for i := range t.cols {
			t.cols[i].Append(r[i])
			keyBuf = t.foldValue(i, r[i], keyBuf)
		}
		t.tailRows++
		t.nrows++
		w := r.WireSize()
		t.tailWire += w
		t.wire += w
		if t.tailRows >= t.cfg.segRows() {
			if err := t.sealLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// foldValue folds one appended value into both the table-lifetime and the
// segment-local accumulator, hashing its canonical group key once.
func (t *Table) foldValue(i int, v schema.Value, keyBuf []byte) []byte {
	if v.IsNull() {
		t.stats[i].foldNull(v)
		t.segStats[i].foldNull(v)
		return keyBuf
	}
	keyBuf = v.AppendGroupKey(keyBuf[:0])
	h := fnv64a(keyBuf)
	t.stats[i].fold(v, h)
	t.segStats[i].fold(v, h)
	return keyBuf
}

// sealLocked turns the current tail into an immutable sealed segment:
// zone map and histogram from the segment-local accumulators, then either
// an in-memory segment (keeping the vectors) or a durable backend write
// (dropping them). Caller holds the write lock.
func (t *Table) sealLocked() error {
	n := t.tailRows
	if n == 0 {
		return nil
	}
	arity := t.schema.Arity()
	seg := &segment{
		rows: n,
		wire: t.tailWire,
		zone: make([]ZoneEntry, arity),
		hist: make([]*Histogram, arity),
	}
	for i := range seg.zone {
		seg.zone[i] = zoneEntryOf(&t.segStats[i], int64(n))
		seg.hist[i] = buildHist(&t.cols[i], n, seg.zone[i])
	}
	if t.cfg.Backend != nil {
		sketches := make([][]uint64, arity)
		for i := range sketches {
			sketches[i] = t.segStats[i].sketch()
		}
		data, err := t.cfg.Backend.Seal(t.schema.Name, len(t.sealed), &SealedSegment{
			Rows:     n,
			Wire:     t.tailWire,
			Rel:      t.schema,
			Cols:     t.cols,
			Zone:     seg.zone,
			Hists:    seg.hist,
			Sketches: sketches,
		})
		if err != nil {
			return fmt.Errorf("storage: seal %s segment %d: %w", t.schema.Name, len(t.sealed), err)
		}
		seg.data = data
	} else {
		seg.mem = &segMem{cols: t.cols}
	}
	t.sealed = append(t.sealed, seg)
	t.sealedRows += n
	t.sealedWire += t.tailWire
	t.dropHistMemo()

	// Fresh tail.
	t.cols = make([]schema.ColVec, arity)
	for i := range t.cols {
		t.cols[i] = schema.NewColVec(t.schema.Columns[i].Type)
	}
	t.tailRows = 0
	t.tailWire = 0
	for i := range t.segStats {
		t.segStats[i].reset()
	}
	return nil
}

// attachRecovered installs a backend-recovered segment sequence (called
// once, before the table is shared).
func (t *Table) attachRecovered(segs []*RecoveredSegment) {
	for _, r := range segs {
		seg := &segment{rows: r.Rows, wire: r.Wire, zone: r.Zone, hist: r.Hists, data: r.Data}
		t.sealed = append(t.sealed, seg)
		t.sealedRows += r.Rows
		t.sealedWire += r.Wire
		t.nrows += r.Rows
		t.wire += r.Wire
		for i := range t.stats {
			var sk []uint64
			if i < len(r.Sketches) {
				sk = r.Sketches[i]
			}
			if i < len(r.Zone) {
				t.stats[i].restore(r.Zone[i], sk)
			}
		}
	}
	t.dropHistMemo()
}

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nrows
}

// scanPart is one segment (or the tail) of a scan snapshot. The batch is
// resolved on first open — for on-disk segments that is the lazy column
// decode; for in-memory parts it is a header-only window. open is safe for
// concurrent callers (morsel workers share parts).
type scanPart struct {
	nrows int
	once  sync.Once
	get   func() (*schema.ColBatch, error)
	batch *schema.ColBatch
	err   error
	// check verifies the whole part without decoding it: set on a view's
	// on-disk segments (view.go), nil where there is nothing to verify.
	check func() error
}

func (p *scanPart) open() (*schema.ColBatch, error) {
	p.once.Do(func() { p.batch, p.err = p.get() })
	return p.batch, p.err
}

// verifyUnopened checks a part no pull has opened, which from then on must
// not be pulled (ColView.Verify runs after the consumer is done). A part a
// pull opened was checked by that open, and its error, if any, went to that
// pull.
func (p *scanPart) verifyUnopened() error {
	if p.check == nil {
		return nil
	}
	var err error
	p.once.Do(func() { err = p.check() })
	return err
}

// tableSnap is a scan's view of the table: the projected relation and the
// parts (post-pruning) in row order. Parts alias append-only storage, so a
// snapshot stays valid after the table lock is released; Truncate replaces
// storage wholesale and never mutates it.
type tableSnap struct {
	rel   *schema.Relation
	parts []*scanPart
	total int
	// wire is the full-width wire size of the admitted rows, summed from
	// the segments' seal-time sizes and the tail's running one.
	wire int
}

// snapshotScan builds a scan snapshot over the selected columns (nil cols
// keeps every column), consulting zone maps with the structured predicate
// to skip segments. Pruning follows the soundness rule in segment.go; with
// no predicate every part is admitted. With check, opening an on-disk
// segment also verifies the columns not served, and each such part can
// verify itself unopened (view.go).
func (t *Table) snapshotScan(cols []int, preds []schema.ColPred, check bool) *tableSnap {
	t.mu.RLock()
	defer t.mu.RUnlock()
	prune := len(preds) > 0
	snap := &tableSnap{rel: t.schema.Project(cols)}
	var skipped, scanned int64
	for _, seg := range t.sealed {
		if prune && zonePrune(preds, seg.zone) {
			skipped++
			continue
		}
		scanned++
		snap.parts = append(snap.parts, t.segPart(seg, cols, check))
		snap.total += seg.rows
		snap.wire += seg.wire
	}
	if t.tailRows > 0 {
		admit := true
		if prune {
			zone := make([]ZoneEntry, len(t.segStats))
			for i := range t.segStats {
				zone[i] = zoneEntryOf(&t.segStats[i], int64(t.tailRows))
			}
			admit = !zonePrune(preds, zone)
		}
		if admit {
			scanned++
			snap.parts = append(snap.parts, t.tailPartLocked(cols))
			snap.total += t.tailRows
			snap.wire += t.tailWire
		} else {
			skipped++
		}
	}
	t.segsSkipped.Add(skipped)
	t.segsScanned.Add(scanned)
	return snap
}

// segPart wraps one sealed segment as a scan part. An in-memory segment has
// nothing to verify, so check only concerns on-disk ones.
func (t *Table) segPart(seg *segment, cols []int, check bool) *scanPart {
	rel := t.schema.Project(cols)
	n := seg.rows
	p := &scanPart{nrows: n}
	if seg.mem != nil {
		mem := seg.mem
		p.get = func() (*schema.ColBatch, error) {
			t.segsOpened.Add(1)
			return projectBatch(rel, mem.cols, n, cols), nil
		}
		return p
	}
	data := seg.data
	p.get = func() (*schema.ColBatch, error) {
		t.segsOpened.Add(1)
		vecs, err := data.Load(cols, check)
		if err != nil {
			return nil, err
		}
		return &schema.ColBatch{Rel: rel, Vecs: vecs, N: n}, nil
	}
	if check {
		p.check = func() error {
			_, err := data.Load([]int{}, true)
			return err
		}
	}
	return p
}

// tailPartLocked windows the active tail. The windows are taken here,
// under the lock, over exactly the rows present now: the snapshot is
// unaffected by later appends. Caller holds at least a read lock.
func (t *Table) tailPartLocked(cols []int) *scanPart {
	rel := t.schema.Project(cols)
	n := t.tailRows
	vecs := make([]schema.ColVec, rel.Arity())
	if cols == nil {
		for i := range t.cols {
			vecs[i] = t.cols[i].Window(0, n)
		}
	} else {
		for k, c := range cols {
			vecs[k] = t.cols[c].Window(0, n)
		}
	}
	p := &scanPart{nrows: n}
	p.get = func() (*schema.ColBatch, error) {
		t.segsOpened.Add(1)
		return &schema.ColBatch{Rel: rel, Vecs: vecs, N: n}, nil
	}
	return p
}

// projectBatch builds a batch over fully materialized segment columns,
// applying the projection (nil cols = full width).
func projectBatch(rel *schema.Relation, src []schema.ColVec, n int, cols []int) *schema.ColBatch {
	if cols == nil {
		return &schema.ColBatch{Rel: rel, Vecs: src, N: n}
	}
	vecs := make([]schema.ColVec, len(cols))
	for k, c := range cols {
		vecs[k] = src[c]
	}
	return &schema.ColBatch{Rel: rel, Vecs: vecs, N: n}
}

// windowBatch cuts rows [lo, hi) out of a part's batch. No lock: the batch
// aliases immutable (sealed or append-only) storage.
func windowBatch(b *schema.ColBatch, lo, hi int) *schema.ColBatch {
	vecs := make([]schema.ColVec, len(b.Vecs))
	for i := range vecs {
		vecs[i] = b.Vecs[i].Window(lo, hi)
	}
	return &schema.ColBatch{Rel: b.Rel, Vecs: vecs, N: hi - lo}
}

// Snapshot returns a stable row-major copy of the table (a full pivot). A
// sealed segment that fails to load (a backend decode or checksum error)
// fails the snapshot: a copy missing rows would pass for the table.
func (t *Table) Snapshot() (schema.Rows, error) {
	snap := t.snapshotScan(nil, nil, false)
	out := make(schema.Rows, 0, snap.total)
	for _, p := range snap.parts {
		b, err := p.open()
		if err != nil {
			return nil, err
		}
		out = append(out, b.Rows()...)
	}
	return out, nil
}

// ScanColumns opens an incremental columnar scan serving zero-copy windows
// of the selected columns (sc.Columns nil keeps all): no rows are built,
// kernels consume the vectors directly. Segments whose zone maps prove the
// structured predicate (sc.Predicate) matchless are skipped outright —
// never opened, never decoded. The scan snapshots the table at open: it
// sees the rows present then, and later appends are not observed.
//
// The scan is bound to ctx: cancellation is checked on every pull, so a
// cancelled query stops reading the table within one batch.
func (t *Table) ScanColumns(ctx context.Context, sc schema.ColScan) schema.ColIterator {
	return snapScan(ctx, t.snapshotScan(sc.Columns, sc.Predicate, false), scanBatch(sc))
}

// scanBatch is the rows per pull a scan request asks for.
func scanBatch(sc schema.ColScan) int {
	if sc.BatchSize <= 0 {
		return schema.DefaultBatchSize
	}
	return sc.BatchSize
}

// snapScan serves a snapshot to one consumer, batch rows at a time.
func snapScan(ctx context.Context, snap *tableSnap, batch int) *tableColScan {
	return &tableColScan{ctx: ctx, cur: partCursor{snap: snap, batch: batch}}
}

// partCursor advances serially over a snapshot's parts, one batch window
// at a time. Parts open (and on-disk segments decode) only when the cursor
// reaches them — a consumer that stops early (LIMIT) never touches the
// segments behind its stop point.
type partCursor struct {
	snap  *tableSnap
	batch int
	pi    int
	pos   int
	done  bool
}

func (c *partCursor) next() (*schema.ColBatch, error) {
	for !c.done {
		if c.pi >= len(c.snap.parts) {
			c.done = true
			return nil, nil
		}
		p := c.snap.parts[c.pi]
		if c.pos >= p.nrows {
			c.pi++
			c.pos = 0
			continue
		}
		b, err := p.open()
		if err != nil {
			c.done = true
			return nil, err
		}
		end := c.pos + c.batch
		if end > p.nrows {
			end = p.nrows
		}
		out := windowBatch(b, c.pos, end)
		c.pos = end
		return out, nil
	}
	return nil, nil
}

// remaining reports the exact unread row count of the snapshot.
func (c *partCursor) remaining() int {
	if c.done {
		return 0
	}
	n := 0
	for i := c.pi; i < len(c.snap.parts); i++ {
		n += c.snap.parts[i].nrows
	}
	return n - c.pos
}

func (c *partCursor) close() { c.done = true }

// tableColScan serves a partCursor's windows to one consumer.
type tableColScan struct {
	ctx context.Context
	cur partCursor
}

func (s *tableColScan) NextBatch() (*schema.ColBatch, error) {
	if err := s.ctx.Err(); err != nil {
		s.cur.close()
		return nil, err
	}
	return s.cur.next()
}

func (s *tableColScan) Close() { s.cur.close() }

// SizeHint reports the exact remaining row count of the snapshot, for a
// breaker pre-sizing its drain; consumers that filter must not forward it.
func (s *tableColScan) SizeHint() int { return s.cur.remaining() }

// ScanColMorsels opens a partitioned columnar scan: the snapshot is split
// into morsels (sequence-numbered zero-copy windows of the selected
// columns) handed out to however many worker goroutines pull from the
// returned source, which run their kernels without ever building rows. The
// cursor is one atomic counter — claiming a morsel is a single
// fetch-and-add, so workers never serialize on a lock. Morsel boundaries
// are segment-aligned: a morsel never spans two segments, so each claim
// touches exactly one segment and on-disk segments decode once, on the
// first worker to claim into them. The claim index is the Seq, so
// numbering is contiguous by construction. Segments pruned by sc.Predicate
// produce no morsels at all.
//
// The source snapshots the table at open: workers partition exactly the
// rows present then, and stay unaffected by concurrent Append or Truncate.
//
// The source is bound to ctx: cancellation is checked on every pull, so
// after a cancel each worker stops within one batch (its in-flight morsel)
// and no new morsels are handed out. The cancellation error is delivered
// to exactly one caller; with concurrent pullers its Seq may race with an
// in-flight claim, so order-sensitive consumers (the engine's exchange)
// additionally bind their pipeline head to ctx, which guarantees the error
// surfaces even if the morsel-level delivery is overtaken.
func (t *Table) ScanColMorsels(ctx context.Context, sc schema.ColScan) schema.ColMorselSource {
	return snapMorsels(ctx, t.snapshotScan(sc.Columns, sc.Predicate, false), scanBatch(sc))
}

// snapMorsels serves a snapshot as segment-aligned morsels of batch rows.
func snapMorsels(ctx context.Context, snap *tableSnap, batch int) *tableColMorsels {
	c := &morselCursor{ctx: ctx, snap: snap, batch: batch}
	c.starts = make([]int, len(snap.parts)+1)
	for i, p := range snap.parts {
		c.starts[i+1] = c.starts[i] + (p.nrows+batch-1)/batch
	}
	return &tableColMorsels{cursor: c}
}

// morselCursor is the shared lock-free heart of the morsel source: a
// part-list snapshot plus one atomic claim counter. claim() is wait-free;
// everything per-morsel (opening the part, windowing) happens on the
// caller's goroutine. starts[i] is the first morsel seq of part i, so
// morsels are segment-aligned and contiguous across parts.
type morselCursor struct {
	ctx     context.Context
	snap    *tableSnap
	batch   int
	starts  []int
	next    atomic.Int64
	errOnce atomic.Bool
	closed  atomic.Bool
}

// claim reserves the next morsel range. The claimed index doubles as the
// Seq: indices come from one fetch-and-add, so they are contiguous in
// claim order across all workers.
func (c *morselCursor) claim() (seq int, part *scanPart, lo, hi int, ok bool) {
	if c.closed.Load() {
		return 0, nil, 0, 0, false
	}
	seq = int(c.next.Add(1) - 1)
	total := c.starts[len(c.starts)-1]
	if seq >= total {
		return 0, nil, 0, 0, false
	}
	// Find the part owning this seq: the last i with starts[i] <= seq.
	pi := sort.Search(len(c.starts), func(i int) bool { return c.starts[i] > seq }) - 1
	p := c.snap.parts[pi]
	lo = (seq - c.starts[pi]) * c.batch
	hi = lo + c.batch
	if hi > p.nrows {
		hi = p.nrows
	}
	return seq, p, lo, hi, true
}

// cancelled checks ctx before a claim. The error is handed to exactly one
// caller (CAS-guarded); every other caller observes exhaustion.
func (c *morselCursor) cancelled() (int, error, bool) {
	err := c.ctx.Err()
	if err == nil {
		return 0, nil, false
	}
	if c.errOnce.CompareAndSwap(false, true) {
		c.closed.Store(true)
		return int(c.next.Load()), err, true
	}
	return 0, nil, true
}

// window opens the claimed part (first claimant decodes; the rest share)
// and cuts [lo, hi) out of it.
func (c *morselCursor) window(p *scanPart, lo, hi int) (*schema.ColBatch, error) {
	b, err := p.open()
	if err != nil {
		return nil, err
	}
	return windowBatch(b, lo, hi), nil
}

func (c *morselCursor) close() { c.closed.Store(true) }

// remaining reports the snapshot rows no claim has reserved yet: exact while
// nobody claims concurrently, which is when breakers ask (before the first
// pull).
func (c *morselCursor) remaining() int {
	if c.closed.Load() {
		return 0
	}
	seq := int(c.next.Load())
	n := 0
	for i, p := range c.snap.parts {
		switch {
		case seq >= c.starts[i+1]:
		case seq <= c.starts[i]:
			n += p.nrows
		default:
			n += p.nrows - (seq-c.starts[i])*c.batch
		}
	}
	return n
}

// tableColMorsels serves columnar morsels: claim and window only, no pivot.
type tableColMorsels struct{ cursor *morselCursor }

func (m *tableColMorsels) NextColMorsel() (schema.ColMorsel, error) {
	if seq, err, done := m.cursor.cancelled(); done {
		if err != nil {
			return schema.ColMorsel{Seq: seq}, err
		}
		return schema.ColMorsel{}, nil
	}
	seq, part, lo, hi, ok := m.cursor.claim()
	if !ok {
		return schema.ColMorsel{}, nil
	}
	b, err := m.cursor.window(part, lo, hi)
	if err != nil {
		return schema.ColMorsel{Seq: seq}, err
	}
	return schema.ColMorsel{Seq: seq, Batch: b}, nil
}

func (m *tableColMorsels) Close() { m.cursor.close() }

// SizeHint implements schema.SizeHinter (see morselCursor.remaining).
func (m *tableColMorsels) SizeHint() int { return m.cursor.remaining() }

// Truncate removes all rows: sealed segments are dropped (a persistent
// backend deletes their files), the tail vectors are replaced wholesale,
// so windows held by in-flight scans keep reading the old (still
// immutable) storage.
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.Backend != nil {
		// A failed backend drop leaves orphan files behind; the in-memory
		// truncation still proceeds (re-ingest after a restart would
		// resurface them — documented with the backend).
		_ = t.cfg.Backend.Drop(t.schema.Name)
	}
	t.sealed = nil
	t.sealedRows = 0
	t.sealedWire = 0
	t.dropHistMemo()
	for i := range t.cols {
		t.cols[i] = schema.NewColVec(t.schema.Columns[i].Type)
	}
	t.tailRows = 0
	t.tailWire = 0
	t.nrows = 0
	t.wire = 0
	for i := range t.stats {
		t.stats[i].reset()
		t.segStats[i].reset()
	}
}

// WireSize is the simulated serialized size of the whole table. O(1): the
// size is maintained incrementally on Append.
func (t *Table) WireSize() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.wire
}

// Segments reports the sealed segment count.
func (t *Table) Segments() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.sealed)
}

// Flush seals the active tail (even when it is below the segment-size
// threshold), so a durable backend persists every appended row. A no-op on
// an empty tail; subsequent appends start a fresh tail.
func (t *Table) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sealLocked()
}

// Store is a named collection of tables: the database d of one environment
// node. It implements the engine's Source, SchemaSource and ColScanner
// interfaces.
type Store struct {
	mu     sync.RWMutex
	cfg    Config
	tables map[string]*Table
	// epoch counts schema-changing operations (Create, Put, Drop). Prepared
	// plans embed the epoch they were built against in their cache key, so
	// any DDL invalidates every cached plan without the store knowing who
	// caches what.
	epoch atomic.Uint64
}

// NewStore creates an empty in-memory store with default configuration.
func NewStore() *Store {
	s, _ := NewStoreWith(Config{})
	return s
}

// NewStoreWith creates a store with the given configuration. With a
// persistent backend, previously sealed tables are recovered here — schema
// from the segment footers, rows served lazily from disk, statistics
// rebuilt from the persisted zone maps and NDV sketches without decoding a
// single column.
func NewStoreWith(cfg Config) (*Store, error) {
	s := &Store{cfg: cfg, tables: make(map[string]*Table)}
	if cfg.Backend != nil {
		rec, err := cfg.Backend.RecoverAll()
		if err != nil {
			return nil, err
		}
		for _, rt := range rec {
			t := newTableWith(rt.Rel, cfg)
			t.attachRecovered(rt.Segments)
			s.tables[strings.ToLower(rt.Rel.Name)] = t
			s.epoch.Add(1)
		}
	}
	return s, nil
}

// Epoch returns the store's schema epoch: a counter bumped by every
// schema-changing operation (Create, Put, Drop). A prepared plan is valid
// exactly as long as the epoch it was built under; consumers key their
// caches by it instead of subscribing to invalidation events.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// Create registers a new empty table and returns it. An existing table
// with the same name is replaced — on a persistent backend its sealed
// segments are dropped (a drop failure is reported by CreateTable; Create
// proceeds regardless and the new table overwrites segment files as it
// seals). Bumps the schema epoch.
func (s *Store) Create(rel *schema.Relation) *Table {
	t, _ := s.CreateTable(rel)
	return t
}

// CreateTable is Create with the backend error surface: replacing a table
// on a persistent backend drops its previously sealed segments, and that
// drop can fail.
func (s *Store) CreateTable(rel *schema.Relation) (*Table, error) {
	var dropErr error
	if s.cfg.Backend != nil {
		dropErr = s.cfg.Backend.Drop(rel.Name)
	}
	t := newTableWith(rel, s.cfg)
	s.mu.Lock()
	s.tables[strings.ToLower(rel.Name)] = t
	s.mu.Unlock()
	s.epoch.Add(1)
	return t, dropErr
}

// Put registers an existing table under its schema name. Bumps the schema
// epoch.
func (s *Store) Put(t *Table) {
	s.mu.Lock()
	s.tables[strings.ToLower(t.Schema().Name)] = t
	s.mu.Unlock()
	s.epoch.Add(1)
}

// Drop removes a table by name (case-insensitive), including its sealed
// segments on a persistent backend. Dropping a missing table is a no-op
// and does not bump the schema epoch.
func (s *Store) Drop(name string) {
	key := strings.ToLower(name)
	s.mu.Lock()
	t, ok := s.tables[key]
	delete(s.tables, key)
	s.mu.Unlock()
	if ok {
		if s.cfg.Backend != nil {
			_ = s.cfg.Backend.Drop(t.Schema().Name)
		}
		s.epoch.Add(1)
	}
}

// Table finds a table by name (case-insensitive).
func (s *Store) Table(name string) (*Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// Relation implements the engine Source: it returns schema and a row
// snapshot for the named table (see Table.Snapshot). It is the materialized
// reference; queries read the table through OpenColScan/OpenColMorsels.
func (s *Store) Relation(name string) (*schema.Relation, schema.Rows, error) {
	t, err := s.Table(name)
	if err != nil {
		return nil, nil, err
	}
	rows, err := t.Snapshot()
	if err != nil {
		return nil, nil, err
	}
	return t.Schema(), rows, nil
}

// RelationStats returns the row count and serialized size of the named
// table without materializing (or even walking) its rows. The network
// simulator uses it to size |d| when opening a streaming run.
func (s *Store) RelationStats(name string) (rows, wireBytes int, err error) {
	t, err := s.Table(name)
	if err != nil {
		return 0, 0, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nrows, t.wire, nil
}

// RelationSchema returns just the schema of the named table, without
// touching rows (engine.SchemaSource).
func (s *Store) RelationSchema(name string) (*schema.Relation, error) {
	t, err := s.Table(name)
	if err != nil {
		return nil, err
	}
	return t.Schema(), nil
}

// OpenColScan opens a columnar scan over the named table: zero-copy typed
// column windows of the selected positions (nil cols keeps all), bound to
// ctx, with zone-map segment pruning from sc.Predicate (see
// Table.ScanColumns). With OpenColMorsels it makes the store an
// engine.ColScanner, the only way queries read it.
func (s *Store) OpenColScan(ctx context.Context, name string, sc schema.ColScan) (schema.ColIterator, error) {
	t, err := s.Table(name)
	if err != nil {
		return nil, err
	}
	return t.ScanColumns(ctx, sc), nil
}

// OpenColMorsels opens a partitioned columnar scan over the named table
// (see Table.ScanColMorsels): the parallel twin of OpenColScan.
func (s *Store) OpenColMorsels(ctx context.Context, name string, sc schema.ColScan) (schema.ColMorselSource, error) {
	t, err := s.Table(name)
	if err != nil {
		return nil, err
	}
	return t.ScanColMorsels(ctx, sc), nil
}

// Names lists table names in sorted order.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Catalog builds a schema catalog over all tables, for the rewriter and
// fragmenter.
func (s *Store) Catalog() *schema.Catalog {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := schema.NewCatalog()
	for _, t := range s.tables {
		c.Register(t.Schema())
	}
	return c
}

// StorageStats aggregates the store's physical-layout and pruning
// counters, the serving layer's observability view of segment pruning in
// production (/v1/stats).
type StorageStats struct {
	// Tables is the number of registered tables.
	Tables int `json:"tables"`
	// Segments counts sealed segments across all tables; SealedRows and
	// SealedBytes their rows and simulated wire bytes. TailRows counts
	// rows still in active (unsealed) tails.
	Segments    int   `json:"segments"`
	SealedRows  int64 `json:"sealed_rows"`
	SealedBytes int64 `json:"sealed_bytes"`
	TailRows    int64 `json:"tail_rows"`
	// SegmentsScanned / SegmentsSkipped count scan-snapshot admission
	// decisions (the tail counts as one segment when non-empty);
	// SegmentsOpened counts parts actually materialized — opened minus
	// scanned measures how much LIMIT-style early termination saved on
	// top of pruning.
	SegmentsScanned int64 `json:"segments_scanned"`
	SegmentsSkipped int64 `json:"segments_skipped"`
	SegmentsOpened  int64 `json:"segments_opened"`
}

// Flush seals every table's active tail, persisting all appended rows
// when the store has a durable backend (see Table.Flush).
func (s *Store) Flush() error {
	s.mu.RLock()
	tables := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.RUnlock()
	for _, t := range tables {
		if err := t.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// StorageStats snapshots the store-wide storage totals.
func (s *Store) StorageStats() StorageStats {
	s.mu.RLock()
	tables := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.RUnlock()
	var out StorageStats
	out.Tables = len(tables)
	for _, t := range tables {
		t.mu.RLock()
		out.Segments += len(t.sealed)
		out.SealedRows += int64(t.sealedRows)
		out.SealedBytes += int64(t.sealedWire)
		out.TailRows += int64(t.tailRows)
		t.mu.RUnlock()
		out.SegmentsScanned += t.segsScanned.Load()
		out.SegmentsSkipped += t.segsSkipped.Load()
		out.SegmentsOpened += t.segsOpened.Load()
	}
	return out
}

// WriteCSV writes a table as CSV with a header row.
func WriteCSV(w io.Writer, rel *schema.Relation, rows schema.Rows) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(rel.ColumnNames()); err != nil {
		return fmt.Errorf("storage: write csv header: %w", err)
	}
	rec := make([]string, rel.Arity())
	for _, r := range rows {
		for i, v := range r {
			if v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.Format()
			}
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("storage: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads CSV data (with header) into rows following the relation's
// declared column order and types. Header names must match the schema.
func ReadCSV(r io.Reader, rel *schema.Relation) (schema.Rows, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("storage: read csv header: %w", err)
	}
	if len(header) != rel.Arity() {
		return nil, fmt.Errorf("storage: csv header has %d columns, schema %s has %d",
			len(header), rel.Name, rel.Arity())
	}
	for i, h := range header {
		if !strings.EqualFold(h, rel.Columns[i].Name) {
			return nil, fmt.Errorf("storage: csv column %d is %q, schema expects %q",
				i, h, rel.Columns[i].Name)
		}
	}
	var rows schema.Rows
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return rows, nil
		}
		if err != nil {
			return nil, fmt.Errorf("storage: read csv row: %w", err)
		}
		row := make(schema.Row, rel.Arity())
		for i, f := range rec {
			v, err := schema.ParseValue(f, rel.Columns[i].Type)
			if err != nil {
				return nil, fmt.Errorf("storage: csv row %d col %s: %w", len(rows)+1, rel.Columns[i].Name, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
}
