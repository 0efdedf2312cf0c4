package schema

import "sync"

// This file extends the batch-iterator vocabulary with the concurrent
// contract used by morsel-driven parallel execution: a relation is split
// into morsels (sequence-numbered batches) handed out to worker goroutines
// through a shared MorselSource.
//
// Ownership rules under concurrency (the engine's parallel operators and
// any future implementation must preserve them):
//
//   - A morsel's Rows slice is owned by the worker that pulled it until the
//     worker hands its transformed output downstream. Workers must never
//     mutate a morsel in place: a morsel may alias storage-owned memory
//     (table subslices), so a transforming stage either passes the batch
//     through untouched or allocates a fresh output slice.
//   - Batches produced by concurrent workers are never reused: unlike the
//     serial RowIterator contract (batch valid only until the next pull),
//     a parallel pipeline transfers ownership of each emitted batch to the
//     consumer outright, because the producer cannot know when the consumer
//     advances.
//   - Seq numbers are assigned contiguously in pull order. An exchange that
//     must preserve the serial row order (everything the engine parallelizes
//     does, so parallel results are row-identical to serial execution)
//     re-emits batches in Seq order.

// Morsel is one unit of parallel work: a batch of rows plus its position in
// the source's pull order. Rows is nil once the source is exhausted.
type Morsel struct {
	// Seq is the 0-based pull index, contiguous across all workers.
	Seq int
	// Rows is the batch; nil means the source is exhausted.
	Rows Rows
}

// MorselSource hands out morsels to concurrent workers. Implementations
// must be safe for concurrent NextMorsel calls.
//
// NextMorsel returns the next morsel, or a Morsel with nil Rows once the
// source is exhausted or closed. An error is delivered exactly once, to
// exactly one caller, carrying the Seq at which the serial iterator would
// have surfaced it; every later call observes exhaustion. Close stops the
// source (subsequent pulls observe exhaustion) and releases the upstream
// iterator; it must be safe to call concurrently with NextMorsel and more
// than once.
type MorselSource interface {
	NextMorsel() (Morsel, error)
	Close()
}

// sharedMorsels adapts any RowIterator into a MorselSource by serializing
// pulls behind a mutex. Each pull is one morsel, so the serial fraction of
// a parallel scan is the underlying Next call plus one header copy, while
// filtering, projection and probing run concurrently in the workers.
type sharedMorsels struct {
	mu     sync.Mutex
	src    RowIterator
	seq    int
	done   bool
	closed bool
}

// ShareIterator wraps an iterator as a MorselSource for concurrent workers.
// The serial iterator contract only keeps a batch valid until the next pull
// (producers may reuse the header buffer), but a morsel outlives the pull —
// workers hold it while other workers keep pulling — so each batch header
// is copied into a fresh slice here. The rows inside a batch are immutable
// and retainable by contract, so only the header is copied, never the rows.
func ShareIterator(it RowIterator) MorselSource {
	return &sharedMorsels{src: it}
}

func (s *sharedMorsels) NextMorsel() (Morsel, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return Morsel{}, nil
	}
	batch, err := s.src.Next()
	if err != nil {
		s.done = true
		return Morsel{Seq: s.seq}, err
	}
	if batch == nil {
		s.done = true
		return Morsel{}, nil
	}
	owned := make(Rows, len(batch))
	copy(owned, batch)
	m := Morsel{Seq: s.seq, Rows: owned}
	s.seq++
	return m, nil
}

func (s *sharedMorsels) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done = true
	if !s.closed {
		s.closed = true
		s.src.Close()
	}
}

// IterateMorsels adapts a shared MorselSource back into the serial
// iterator interface: each pull claims the next unclaimed morsel. Several
// such iterators over one source partition it — each morsel is served to
// exactly one of them. Close stops this partition only and never closes
// the shared source: releasing the source (and whatever it wraps) is the
// source owner's job, via MorselSource.Close.
func IterateMorsels(src MorselSource) RowIterator {
	return &morselIterator{src: src}
}

type morselIterator struct {
	src  MorselSource
	done bool
}

func (p *morselIterator) Next() (Rows, error) {
	if p.done {
		return nil, nil
	}
	m, err := p.src.NextMorsel()
	if err != nil {
		p.done = true
		return nil, err
	}
	if m.Rows == nil {
		p.done = true
		return nil, nil
	}
	return m.Rows, nil
}

func (p *morselIterator) Close() { p.done = true }

// sharedColMorsels is ShareIterator's columnar twin: any ColIterator served
// to concurrent workers behind a mutex. A column batch stays valid after
// the next pull (ColIterator's contract), so there is no header to copy.
type sharedColMorsels struct {
	mu     sync.Mutex
	src    ColIterator
	seq    int
	done   bool
	closed bool
}

// ShareColIterator wraps a columnar iterator as a ColMorselSource. Whatever
// the iterator does per pull (a fragment stage's decode and accounting)
// runs inside the lock; the claiming workers' kernels run outside it.
func ShareColIterator(it ColIterator) ColMorselSource {
	return &sharedColMorsels{src: it}
}

func (s *sharedColMorsels) NextColMorsel() (ColMorsel, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return ColMorsel{}, nil
	}
	batch, err := s.src.NextBatch()
	if err != nil {
		s.done = true
		return ColMorsel{Seq: s.seq}, err
	}
	if batch == nil {
		s.done = true
		return ColMorsel{}, nil
	}
	m := ColMorsel{Seq: s.seq, Batch: batch}
	s.seq++
	return m, nil
}

func (s *sharedColMorsels) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done = true
	if !s.closed {
		s.closed = true
		s.src.Close()
	}
}

// SizeHint forwards the iterator's remaining-row bound (0 when unknown).
func (s *sharedColMorsels) SizeHint() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.src.(SizeHinter); ok && !s.done {
		return h.SizeHint()
	}
	return 0
}
