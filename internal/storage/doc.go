// Package storage provides the in-memory tables that back the integrated
// sensor database d of the smart environment, plus CSV import/export used
// by the CLI tools. Tables are safe for concurrent readers and writers,
// matching the ingestion pattern of sensor streams feeding queries.
//
// Tables are read three ways, all bound to a context checked per batch:
// Snapshot materializes a stable copy; Table.Scan streams batches
// incrementally with predicate and projection pushdown, so an early-closing
// consumer (LIMIT) leaves the rest of the table untouched; and
// Table.ScanMorsels / Table.ScanColMorsels split the table into
// segment-aligned morsels claimed lock-free by however many workers the
// engine runs a scan with.
package storage
