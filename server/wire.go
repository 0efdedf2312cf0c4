package server

import (
	"strings"
	"time"

	paradise "paradise"
)

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// Tenant selects the serving session; empty means "default".
	Tenant string `json:"tenant,omitempty"`
	// SQL is the statement to process (required).
	SQL string `json:"sql"`
	// Module selects the policy module; empty uses the tenant's default.
	Module string `json:"module,omitempty"`
	// TimeoutMs bounds the execution; 0 inherits the server's ceiling.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// ColumnInfo describes one output column on the schema line.
type ColumnInfo struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// Message is one NDJSON line of a query response — exactly one of the
// Type-specific field groups is populated:
//
//	{"type":"schema","columns":[{"name":"x","type":"double"}, ...]}
//	{"type":"row","values":[0.5, "alice", null, ...]}
//	{"type":"stats","rows":12,"raw_bytes":...,"egress_bytes":...,"reduction":...,"sim_ms":...}
//	{"type":"error","code":"policy_violation","message":"...","rule":"...","attributes":[...]}
//
// A successful stream is schema, rows, stats; a stream that dies mid-way
// (cancellation, shutdown, execution failure) ends with an error line
// instead of the stats trailer, so every response is well-formed NDJSON
// with an unambiguous final line. Pre-execution failures skip the stream
// entirely: the response is a non-2xx status whose body is a single error
// Message.
type Message struct {
	Type string `json:"type"`

	// Schema line.
	Columns []ColumnInfo `json:"columns,omitempty"`

	// Row line. Values are JSON-native: null, bool, number, string;
	// timestamps are RFC 3339 strings; non-finite floats are the strings
	// "NaN", "+Inf", "-Inf" (JSON has no spelling for them).
	Values []any `json:"values,omitempty"`

	// Stats trailer (the Figure 3 accounting of the drained chain).
	Rows        int         `json:"rows,omitempty"`
	RawBytes    int         `json:"raw_bytes,omitempty"`
	EgressBytes int         `json:"egress_bytes,omitempty"`
	Reduction   float64     `json:"reduction,omitempty"`
	SimMs       float64     `json:"sim_ms,omitempty"`
	Stages      []StageInfo `json:"stages,omitempty"`

	// Error object.
	Code       string   `json:"code,omitempty"`
	Message    string   `json:"message,omitempty"`
	Rule       string   `json:"rule,omitempty"`
	Attributes []string `json:"attributes,omitempty"`
	Module     string   `json:"module,omitempty"`
}

// StatsSnapshot is the body of GET /v1/stats: the serving layer's
// observability surface.
type StatsSnapshot struct {
	PlanCache    paradise.PlanCacheStats `json:"plan_cache"`
	Storage      paradise.StorageStats   `json:"storage"`
	Tenants      int                     `json:"tenants"`
	InFlight     int64                   `json:"in_flight"`
	QueriesTotal int64                   `json:"queries_total"`
	RowsStreamed int64                   `json:"rows_streamed"`
	ErrorsTotal  int64                   `json:"errors_total"`
	// PanicsTotal counts queries whose handler panicked and was contained:
	// the response ended with an "internal" error, the stack is in the log.
	PanicsTotal int64 `json:"panics_total"`
	Draining    bool  `json:"draining"`
	UptimeMs    int64 `json:"uptime_ms"`
	// StagesColumnar and StagesRows count the fragment-stage outputs of
	// every completed query by representation: column batches handed to the
	// next stage's kernels, or rows (the trailer's stages[].path says why).
	StagesColumnar int64 `json:"stages_columnar"`
	StagesRows     int64 `json:"stages_rows"`
	// BytesStreamed is the body bytes of all streamed (200) responses,
	// Flushes how many times pending lines were pushed to a client before
	// the end of a response.
	BytesStreamed int64 `json:"bytes_streamed"`
	Flushes       int64 `json:"flushes"`
	// ResponsesColumnar and ResponsesRows count the streamed responses by
	// encoder entry point: row lines appended straight from the final
	// stage's column batches, or from materialized rows (the final stage
	// shipped rows, or the tenant anonymizes).
	ResponsesColumnar int64 `json:"responses_columnar"`
	ResponsesRows     int64 `json:"responses_rows"`
}

// StageInfo is one fragment of the stats trailer's per-stage breakdown:
// where the stage ran and its modeled (est_*) versus measured (out_*)
// output, so clients can audit the traffic model against the wire. Path is
// how the output crossed the stage boundary: "columnar", or "rows: <why the
// stage's block did not compile to kernels only>".
type StageInfo struct {
	Stage    int    `json:"stage"`
	Node     string `json:"node"`
	MinLevel string `json:"min_level"`
	Level    string `json:"level"`
	InRows   int    `json:"in_rows"`
	OutRows  int    `json:"out_rows"`
	OutBytes int    `json:"out_bytes"`
	EstRows  int64  `json:"est_rows,omitempty"`
	EstBytes int64  `json:"est_bytes,omitempty"`
	Path     string `json:"path,omitempty"`
}

// schemaMessage renders the schema line for a result relation.
func schemaMessage(rel *paradise.Relation) *Message {
	cols := make([]ColumnInfo, len(rel.Columns))
	for i, c := range rel.Columns {
		cols[i] = ColumnInfo{Name: c.Name, Type: strings.ToLower(c.Type.String())}
	}
	return &Message{Type: "schema", Columns: cols}
}

// statsMessage renders the trailer from the drained chain's accounting.
func statsMessage(rows int, st *paradise.RunStats) *Message {
	stages := make([]StageInfo, len(st.Assignments))
	for i, a := range st.Assignments {
		stages[i] = StageInfo{
			Stage:    a.Fragment.Stage,
			Node:     a.Node.Name,
			MinLevel: a.Fragment.MinLevel.String(),
			Level:    a.Fragment.EffectiveLevel().String(),
			InRows:   a.InRows,
			OutRows:  a.OutRows,
			OutBytes: a.OutBytes,
			EstRows:  a.Fragment.EstRows,
			EstBytes: a.Fragment.EstBytes,
			Path:     a.Path(),
		}
	}
	return &Message{
		Type:        "stats",
		Rows:        rows,
		RawBytes:    st.RawBytes,
		EgressBytes: st.EgressBytes,
		Reduction:   st.Reduction(),
		SimMs:       float64(st.SimTime) / float64(time.Millisecond),
		Stages:      stages,
	}
}
