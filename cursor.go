package paradise

import (
	"fmt"

	"paradise/internal/core"
	"paradise/internal/schema"
)

// Cursor streams the result of a Session.Query row by row, wired directly
// onto the engine's pull-based batch pipeline: each advance that exhausts
// the current batch pulls the next one through the fragment chain, down to
// the storage scans. The usual loop:
//
//	cur, err := sess.Query(ctx, sql)
//	if err != nil { ... }
//	defer cur.Close()
//	for cur.Next() {
//	        row := cur.Row()
//	        ...
//	}
//	if err := cur.Err(); err != nil { ... }
//
// Rows returned by Row are immutable and may be retained. A Cursor is not
// safe for concurrent use.
//
// A result whose final fragment compiled to kernels only (scan, filters,
// plain columns; Columnar reports it) can instead be consumed as the column
// batches that fragment produced, with no row ever materialized:
//
//	for {
//	        b, err := cur.NextBatch()
//	        if b == nil { break } // err, if any, is also cur.Err()
//	        ...                   // b.Vecs[c].Floats[i] for i in b.Sel
//	}
//
// Both faces deliver the same rows in the same order and the same Stats. A
// cursor serves one of them: the first Next or NextBatch call chooses, and
// calling the other afterwards fails the cursor with ErrUsage.
type Cursor struct {
	stream  *core.Stream
	session *Session
	module  string
	face    cursorFace
	batch   schema.Rows
	idx     int
	row     Row
	err     error
	done    bool
	closed  bool
}

// cursorFace is which of the two consumption faces a cursor was first
// pulled through.
type cursorFace uint8

const (
	faceUnset cursorFace = iota
	faceRows
	faceBatches
)

// choose commits the cursor to a face, failing it with ErrUsage when it
// already serves the other one.
func (c *Cursor) choose(f cursorFace) bool {
	if c.face == faceUnset {
		c.face = f
	}
	if c.face != f {
		c.misuse("Next and NextBatch mixed on one cursor")
		return false
	}
	return true
}

// misuse fails the cursor with ErrUsage.
func (c *Cursor) misuse(what string) {
	c.err = fmt.Errorf("%w: %s", ErrUsage, what)
	c.done = true
}

// Next advances to the next row, pulling the next batch through the chain
// when the current one is spent. It returns false when the stream is
// exhausted, the context is cancelled, or an error occurs — check Err
// afterwards.
func (c *Cursor) Next() bool {
	if c.err != nil || c.done {
		return false
	}
	for c.idx >= len(c.batch) {
		if !c.choose(faceRows) { // per pull, not per row: a batch face leaves no rows buffered
			return false
		}
		batch, err := c.stream.Next()
		if err != nil {
			c.err = c.session.wrapModErr(err, c.module)
			c.done = true
			return false
		}
		if batch == nil {
			c.done = true
			return false
		}
		c.batch, c.idx = batch, 0
	}
	c.row = c.batch[c.idx]
	c.idx++
	return true
}

// Row returns the current row. Only valid after a true Next.
func (c *Cursor) Row() Row { return c.row }

// Buffered returns how many rows Next will deliver without pulling the
// pipeline again. At 0 the following Next may block on the storage scans,
// which is when a consumer that batches its own output should hand it on.
func (c *Cursor) Buffered() int { return len(c.batch) - c.idx }

// Columnar reports whether the result can be consumed with NextBatch: the
// final fragment compiled to kernels only and the session does not
// anonymize (the postprocessor needs rows). It is fixed when the query
// opens; a fragment's -explain line says which way it ships.
func (c *Cursor) Columnar() bool { return c.stream.Columnar() }

// NextBatch returns the next column batch of a Columnar result, or nil when
// the stream is exhausted, the context is cancelled or an error occurs; the
// error is returned and also kept for Err. The live rows of a batch are the
// physical positions Sel lists (all N when Sel is nil). A batch is
// read-only — its vectors may alias storage — and stays valid after later
// calls. On a cursor that is not Columnar, or that Next has been called on,
// NextBatch fails with ErrUsage.
func (c *Cursor) NextBatch() (*Batch, error) {
	if c.err != nil || c.done {
		return nil, c.err
	}
	if !c.Columnar() {
		c.misuse("NextBatch on a cursor that is not Columnar")
		return nil, c.err
	}
	if !c.choose(faceBatches) {
		return nil, c.err
	}
	b, err := c.stream.NextBatch()
	if err != nil {
		c.err = c.session.wrapModErr(err, c.module)
	}
	if b == nil {
		c.done = true
	}
	return b, c.err
}

// Err returns the first error the cursor hit, or nil. Exhaustion and an
// explicit Close are not errors; a cancelled context is (ctx.Err, wrapped).
func (c *Cursor) Err() error { return c.err }

// Schema describes the columns of the streamed rows.
func (c *Cursor) Schema() *Relation { return c.stream.Schema() }

// Close releases the cursor. The chain drains its remainder first — every
// node ships its whole output regardless of how much the requester reads —
// so the Figure 3 accounting (Stats, Outcome) is final afterwards. Close
// is idempotent: the first call decides the result, later calls return it
// again.
func (c *Cursor) Close() error {
	if c.closed {
		return c.err
	}
	c.closed = true
	c.done = true
	c.stream.Close()
	if _, err := c.stream.Outcome(); err != nil && c.err == nil {
		c.err = c.session.wrapModErr(err, c.module)
	}
	return c.err
}

// Outcome returns the audit trail of the streamed query: rewrite report,
// fragment plan and transfer stats. It closes the cursor if the caller has
// not already (the accounting is only final once the chain is drained).
// On the pure streaming path Outcome.Result is nil — the rows went to the
// consumer; use Stats for the Figure 3 numbers.
func (c *Cursor) Outcome() (*Outcome, error) {
	c.Close()
	out, err := c.stream.Outcome()
	if err != nil {
		return nil, c.session.wrapModErr(err, c.module)
	}
	return out, nil
}

// Stats returns the Figure 3 transfer accounting of the fully drained
// chain, closing the cursor if needed. The numbers are identical to what
// Session.Process reports for the same query.
func (c *Cursor) Stats() (*RunStats, error) {
	out, err := c.Outcome()
	if err != nil {
		return nil, err
	}
	return out.Net, nil
}
