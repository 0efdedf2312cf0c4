// Package server is the network facade of the privacy-aware query
// processor: an HTTP/JSON layer over the public paradise API that serves
// many tenants from one shared Store.
//
// Each tenant is a paradise.Session — its own policy, default module,
// journal and anonymization — while all tenants share the store and one
// prepared-plan cache (entries are keyed by policy fingerprint and schema
// epoch, so tenants can never observe each other's rewrites). Query
// results stream as NDJSON straight off Session.Query cursors: one JSON
// object per line — a schema line, then row lines, then a stats trailer
// (or an error object if the stream dies mid-flight), so a response is
// well formed even when it is truncated. Execution is bound to the
// request context: client disconnects and deadlines cancel the storage
// scans within one batch.
//
// Row lines are appended to a pooled buffer by an encoder that writes
// encoding/json's bytes without boxing or reflection (ndjson.go). When the
// query's final fragment produced column batches the lines come straight
// from the typed vectors (Cursor.NextBatch) and no row is ever built;
// otherwise they come from the cursor's rows. The buffer is written and
// flushed when it passes 32 KiB and, once per pulled batch, when its
// lines are older than 20 ms — always on a line boundary. A panic on the
// request goroutine is contained: the pending whole lines and a final
// "internal" error line are delivered, the stack is logged, panics_total
// counts it and the server keeps serving.
//
// The facade's typed errors map onto status codes — ErrPolicyViolation
// 403, ErrParse 400, ErrUnsupported 501, ErrUsage 422 — with a structured
// JSON body carrying the violated rule and offending attributes.
// GET /v1/stats exposes the serving metrics: plan-cache hits, misses and
// evictions, tenant sessions, in-flight queries, totals, bytes streamed,
// flushes and which encoder entry point served each response. Shutdown drains
// in-flight cursors within a caller-supplied deadline and then cancels the
// stragglers, which end their streams with a final error line instead of
// a hang.
//
// cmd/paradised wraps this package as a binary; the bench/ harness drives
// it with concurrent query mixes and reports latency percentiles.
package server
