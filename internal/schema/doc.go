// Package schema defines the value model, row representation and relation
// schemas shared by every layer of PArADISE — the storage engine, the SQL
// executor, the anonymizer and the privacy metrics — plus the iterator
// vocabulary those layers stream rows through.
//
// Two execution contracts live here:
//
// The serial batch-iterator contract (iterator.go): relations flow as
// pulled batches of rows (RowIterator); a batch is valid only until the
// following Next call, while the rows inside it are immutable and may be
// retained; consumers that stop early must Close, and Close propagates
// upstream. WithContext binds a pipeline to a context checked per pull.
//
// The concurrent morsel contract (parallel.go): a relation is split into
// sequence-numbered morsels handed out to worker goroutines through a
// shared MorselSource. Workers own the morsels they pull, must never
// mutate a batch in place, and transfer ownership of their output outright
// — there is no reuse window across an exchange. The contract's ownership
// rules are what let the engine run scans, filters, projections and probes
// on N workers while remaining row-identical to serial execution.
//
// The columnar contract (colbatch.go): relations can also flow as
// ColBatches — typed column vectors (ColVec) plus a selection vector —
// pulled through ColIterator or
// claimed concurrently through ColMorselSource. Batches are read-only
// windows over append-only storage; refining a selection allocates a new
// Sel (nil Sel means all rows live); pivoting back to rows happens at
// operator boundaries, never inside kernels. A vector that receives a
// wrong-typed value degrades to boxed storage and round-trips exactly.
//
// One more contract cuts across both: AppendGroupKey (value.go) defines
// the canonical self-delimiting byte key every hashed operator uses to
// decide "same group" — NULL groups with NULL, NaN with NaN, 1 with 1.0,
// -0.0 apart from +0.0 — emitted identically from boxed values
// (Value.AppendGroupKey), rows (Row.AppendGroupKey) and column vectors
// (ColVec.AppendGroupKey).
package schema
