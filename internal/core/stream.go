package core

import (
	"context"

	"paradise/internal/engine"
	"paradise/internal/network"
	"paradise/internal/schema"
	"paradise/internal/sqlparser"
)

// Stream is the streaming counterpart of Process: the same Figure 2
// pipeline, but the final result reaches the caller batch-at-a-time
// instead of as a materialized Outcome. Preprocessing (policy rewrite,
// satisfaction check, fragmentation) runs at open time; the chain execution
// is pulled lazily through Next, bound to the opening context with
// cancellation checked per batch down to the storage scans.
//
// When the processor is configured with an anonymization method the
// postprocessor needs the whole result, so the first Next drains the chain
// (still under the context), anonymizes, and serves the anonymized rows in
// batches — the caller's contract is unchanged.
//
// The caller must Close the stream (idempotent). Close drains the
// remainder so the Figure 3 accounting is final — the chain nodes ship
// their full outputs regardless of how much the requester reads — and then
// journals the query like Process would: the journal records the rows the
// chain produced (what a full drain delivers), not how many the consumer
// happened to read before closing.
type Stream struct {
	p        *Processor
	sel      *sqlparser.Select
	moduleID string
	out      *Outcome
	net      *network.Stream
	cur      schema.RowIterator // non-nil once the anonymized batches are being served
	finished bool
	err      error
}

// Open parses a SQL query and opens it as a stream under the named policy
// module.
func (p *Processor) Open(ctx context.Context, sql, moduleID string) (*Stream, error) {
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return p.OpenSelect(ctx, sel, moduleID)
}

// OpenSelect is Open for an already-parsed statement. Errors found at open
// time (unknown module, policy denial, fragmentation failure) are journaled
// like Process denials.
func (p *Processor) OpenSelect(ctx context.Context, sel *sqlparser.Select, moduleID string) (*Stream, error) {
	out, plan, err := p.prepare(ctx, sel, moduleID)
	if err == nil {
		var net *network.Stream
		net, err = network.Open(ctx, p.topo, plan, p.store, network.WithParallelism(p.par))
		if err == nil {
			return &Stream{p: p, sel: sel, moduleID: moduleID, out: out, net: net}, nil
		}
	}
	if p.journal != nil {
		p.journal.Append(journalEntry(sel, moduleID, nil, 0, err))
	}
	return nil, err
}

// Schema is the output relation of the stream (identical before and after
// postprocessing — anonymization rewrites values, not columns).
func (s *Stream) Schema() *schema.Relation { return s.net.Schema() }

// Next returns the next batch of result rows, or a nil batch once the
// stream is exhausted (at which point the Outcome is final). The returned
// slice is only valid until the following Next call; the rows inside it are
// immutable and may be retained.
func (s *Stream) Next() (schema.Rows, error) {
	if s.finished {
		return nil, s.err
	}
	if s.cur == nil && s.anonymizing() {
		if err := s.materialize(); err != nil {
			s.fail(err)
			return nil, err
		}
	}

	var batch schema.Rows
	var err error
	if s.cur != nil {
		batch, err = s.cur.Next()
	} else {
		batch, err = s.net.Next()
	}
	if err != nil {
		s.fail(err)
		return nil, err
	}
	if batch == nil {
		s.finish()
		return nil, s.err
	}
	return batch, nil
}

// Columnar reports whether the result can be pulled as column batches
// (NextBatch): the final fragment compiled to kernels only and no
// postprocessor needs the rows. Fixed at open time.
func (s *Stream) Columnar() bool { return !s.anonymizing() && s.net.Columnar() }

// NextBatch is Next for a Columnar stream: the same rows in the same order,
// as the column batches the final fragment produced — nothing is pivoted. A
// nil batch means the stream is exhausted. Batches are read-only and stay
// valid after later pulls. Both faces advance one stream and one
// accounting.
func (s *Stream) NextBatch() (*schema.ColBatch, error) {
	if s.finished {
		return nil, s.err
	}
	cb, err := s.net.NextBatch()
	if err != nil {
		s.fail(err)
		return nil, err
	}
	if cb == nil {
		s.finish()
		return nil, s.err
	}
	return cb, nil
}

// Close finalizes the stream: the remaining chain is drained so the
// Figure 3 accounting is complete, the Outcome is sealed and the query is
// journaled. Idempotent — the first call decides the result.
func (s *Stream) Close() {
	s.finish()
}

// Outcome returns the audit trail of the streamed query. It is only final
// once the stream is exhausted or closed; calling it earlier closes the
// stream (draining the remainder). On the pure streaming path
// Outcome.Result and Outcome.PreAnonymization are nil — the rows went to
// the consumer batch by batch; Outcome.Net carries the full transfer
// accounting either way.
func (s *Stream) Outcome() (*Outcome, error) {
	s.finish()
	if s.err != nil {
		return nil, s.err
	}
	return s.out, nil
}

// anonymizing reports whether postprocessing forces materialization.
func (s *Stream) anonymizing() bool {
	return s.p.anon.Method != "" && s.p.anon.Method != AnonNone
}

// materialize drains the chain and runs the postprocessor, switching the
// stream to serve the anonymized rows.
func (s *Stream) materialize() error {
	rows, err := schema.DrainIterator(s.net)
	if err != nil {
		return err
	}
	stats, err := s.net.Stats()
	if err != nil {
		return err
	}
	pre := &engine.Result{Schema: s.net.Schema(), Rows: rows}
	stats.Result = pre
	s.out.Net = stats
	s.out.PreAnonymization = pre
	res, anonRep, err := s.p.postprocess(pre)
	if err != nil {
		return err
	}
	s.out.Result = res
	s.out.Anon = anonRep
	s.cur = schema.IterateRows(res.Rows, schema.DefaultBatchSize)
	return nil
}

// fail seals the stream with an error, releasing the chain.
func (s *Stream) fail(err error) {
	if s.finished {
		return
	}
	s.finished = true
	s.err = err
	s.net.Close()
	s.journal()
}

// finish seals the stream successfully: drain the remaining chain for the
// accounting, fill the Outcome, journal.
func (s *Stream) finish() {
	if s.finished {
		return
	}
	s.finished = true
	// An anonymizing stream closed before the first pull still owes the
	// postprocessed outcome: materialize now, so the journal entry and the
	// Outcome match Process regardless of consumer read behaviour.
	if s.cur == nil && s.anonymizing() {
		if err := s.materialize(); err != nil {
			s.err = err
			s.net.Close()
			s.journal()
			return
		}
	}
	if s.cur != nil {
		s.cur.Close()
	}
	if s.out.Net == nil { // streaming path: stats not yet finalized
		stats, err := s.net.Stats()
		if err != nil {
			s.err = err
			s.journal()
			return
		}
		s.out.Net = stats
	}
	s.net.Close()
	s.journal()
}

func (s *Stream) journal() {
	if s.p.journal == nil {
		return
	}
	s.p.journal.Append(journalEntry(s.sel, s.moduleID, s.out, s.producedRows(), s.err))
}

// producedRows is the cardinality of the full result — what Process would
// journal — regardless of how much the consumer read before closing. On
// every successful finish either Result (anonymizing path) or Net
// (streaming path) is set; errored streams never reach the row count in
// the journal entry.
func (s *Stream) producedRows() int {
	if s.out.Result != nil { // anonymized path: the postprocessed rows
		return len(s.out.Result.Rows)
	}
	if s.out.Net != nil && len(s.out.Net.Assignments) > 0 {
		return s.out.Net.Assignments[len(s.out.Net.Assignments)-1].OutRows
	}
	return 0
}
