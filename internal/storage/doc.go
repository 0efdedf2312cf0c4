// Package storage provides the in-memory tables that back the integrated
// sensor database d of the smart environment, plus CSV import/export used
// by the CLI tools. Tables are safe for concurrent readers and writers,
// matching the ingestion pattern of sensor streams feeding queries.
//
// Tables are stored column-major only, and queries read them as column
// batches, two ways, both bound to a context checked per batch:
// Table.ScanColumns streams zero-copy windows of the projected columns
// incrementally, skipping segments by zone map, so an early-closing
// consumer (LIMIT) leaves the rest of the table untouched; and
// Table.ScanColMorsels splits the same snapshot into segment-aligned
// morsels claimed lock-free by however many workers the engine runs a scan
// with. Snapshot (Store.Relation) pivots a stable row copy: the
// materialized reference, which fails rather than drop a segment it cannot
// decode.
package storage
