package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	paradise "paradise"
)

// Config assembles a Server.
type Config struct {
	// Store is the integrated database all tenants query (required).
	Store *paradise.Store
	// Tenants declares the serving sessions; at least one is required.
	// Requests that name no tenant go to "default".
	Tenants []TenantConfig
	// PlanCacheSize bounds the shared prepared-plan cache (<= 0 selects
	// the library default). The cache is shared across every tenant:
	// policy fingerprints in the keys keep their entries apart.
	PlanCacheSize int
	// Parallelism is the per-query worker count (0 = all CPUs).
	Parallelism int
	// MaxQueryDuration is the execution ceiling per request; requests may
	// ask for less via timeout_ms but never more. 0 means no ceiling.
	MaxQueryDuration time.Duration
}

// TenantConfig declares one serving session.
type TenantConfig struct {
	// Name identifies the tenant in requests ("default" is the implicit
	// target of requests that name none).
	Name string
	// Policy is the tenant's privacy policy; nil serves unrestricted.
	Policy *paradise.Policy
	// DefaultModule picks the policy module for requests that name none.
	DefaultModule string
	// Journal, when set, records every processed query.
	Journal *paradise.Journal
	// Anon configures result postprocessing.
	Anon paradise.AnonConfig
}

// tenant is one live serving session.
type tenant struct {
	name string
	sess *paradise.Session
}

// Server serves the privacy-aware query processor over HTTP. All tenants
// share one Store and one prepared-plan cache; every query runs on its own
// goroutine through a Session (safe for concurrent use), so the number of
// concurrent queries is bounded by the HTTP layer, not the engine.
type Server struct {
	tenants map[string]*tenant
	store   *paradise.Store
	cache   *paradise.PlanCache
	mux     *http.ServeMux
	maxDur  time.Duration
	start   time.Time

	// baseCtx parents every request context; kill cancels it when a drain
	// deadline expires, which ends in-flight streams with an error line.
	baseCtx context.Context
	kill    context.CancelFunc

	// admitMu orders every wg.Add (admit) before Shutdown's wg.Wait: a
	// query is either admitted before draining flips, and waited for, or
	// refused.
	admitMu  sync.Mutex
	draining atomic.Bool
	wg       sync.WaitGroup

	inFlight     atomic.Int64
	queriesTotal atomic.Int64
	rowsStreamed atomic.Int64
	errorsTotal  atomic.Int64
	panicsTotal  atomic.Int64
	// Stage outputs of completed queries, by representation (see
	// StatsSnapshot.StagesColumnar).
	stagesColumnar atomic.Int64
	stagesRows     atomic.Int64
	// What the streamed responses cost the wire, and which encoder entry
	// point served each (see StatsSnapshot.ResponsesColumnar).
	bytesStreamed     atomic.Int64
	flushes           atomic.Int64
	responsesColumnar atomic.Int64
	responsesRows     atomic.Int64
}

// New validates the configuration, opens one session per tenant over the
// shared store and cache, and returns the ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("server: nil store")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("server: no tenants configured")
	}
	baseCtx, kill := context.WithCancel(context.Background())
	s := &Server{
		tenants: make(map[string]*tenant, len(cfg.Tenants)),
		store:   cfg.Store,
		cache:   paradise.NewPlanCache(cfg.PlanCacheSize),
		mux:     http.NewServeMux(),
		maxDur:  cfg.MaxQueryDuration,
		start:   time.Now(),
		baseCtx: baseCtx,
		kill:    kill,
	}
	for _, tc := range cfg.Tenants {
		if tc.Name == "" {
			kill()
			return nil, fmt.Errorf("server: tenant without a name")
		}
		if _, dup := s.tenants[tc.Name]; dup {
			kill()
			return nil, fmt.Errorf("server: duplicate tenant %q", tc.Name)
		}
		opts := []paradise.Option{
			paradise.WithPlanCache(s.cache),
			paradise.WithParallelism(cfg.Parallelism),
		}
		if tc.Policy != nil {
			opts = append(opts, paradise.WithPolicy(tc.Policy))
		}
		if tc.DefaultModule != "" {
			opts = append(opts, paradise.WithDefaultModule(tc.DefaultModule))
		}
		if tc.Journal != nil {
			opts = append(opts, paradise.WithJournal(tc.Journal))
		}
		if tc.Anon.Method != "" && tc.Anon.Method != paradise.AnonNone {
			opts = append(opts, paradise.WithAnonymization(tc.Anon))
		}
		sess, err := paradise.Open(cfg.Store, opts...)
		if err != nil {
			kill()
			return nil, fmt.Errorf("server: open tenant %q: %w", tc.Name, err)
		}
		s.tenants[tc.Name] = &tenant{name: tc.Name, sess: sess}
	}
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// PlanCache exposes the shared prepared-plan cache (for stats and tests).
func (s *Server) PlanCache() *paradise.PlanCache { return s.cache }

// Stats snapshots the serving metrics.
func (s *Server) Stats() StatsSnapshot {
	return StatsSnapshot{
		PlanCache:    s.cache.Stats(),
		Storage:      s.store.StorageStats(),
		Tenants:      len(s.tenants),
		InFlight:     s.inFlight.Load(),
		QueriesTotal: s.queriesTotal.Load(),
		RowsStreamed: s.rowsStreamed.Load(),
		ErrorsTotal:  s.errorsTotal.Load(),
		PanicsTotal:  s.panicsTotal.Load(),
		Draining:     s.draining.Load(),
		UptimeMs:     time.Since(s.start).Milliseconds(),

		StagesColumnar: s.stagesColumnar.Load(),
		StagesRows:     s.stagesRows.Load(),

		BytesStreamed:     s.bytesStreamed.Load(),
		Flushes:           s.flushes.Load(),
		ResponsesColumnar: s.responsesColumnar.Load(),
		ResponsesRows:     s.responsesRows.Load(),
	}
}

// Shutdown drains the server: new queries are refused with 503
// immediately; in-flight queries may finish until ctx expires, after which
// their contexts are cancelled — each open stream then delivers a final
// error line (a well-formed truncated response) and unwinds. Shutdown
// returns once every in-flight query has unwound; the error is ctx.Err()
// when the deadline forced a truncation, nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.admitMu.Lock()
	s.draining.Store(true)
	s.admitMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.kill()
		<-done
		return ctx.Err()
	}
}

// admit registers one in-flight query (the caller owes a wg.Done) unless
// the server is draining.
func (s *Server) admit() bool {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.wg.Add(1)
	return true
}

// refuseDraining answers a query the drain turned away.
func (s *Server) refuseDraining(w http.ResponseWriter) {
	s.writeError(w, http.StatusServiceUnavailable,
		&Message{Type: "error", Code: "draining", Message: "server is shutting down"})
}

// handleQuery serves POST /v1/query: resolve the tenant, open a streaming
// cursor under the request-scoped context, stream NDJSON.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed,
			&Message{Type: "error", Code: "method_not_allowed", Message: "use POST"})
		return
	}
	if s.draining.Load() { // refuse before reading the body
		s.refuseDraining(w)
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest,
			&Message{Type: "error", Code: "bad_request", Message: "invalid JSON body: " + err.Error()})
		return
	}
	if req.SQL == "" {
		s.writeError(w, http.StatusUnprocessableEntity,
			&Message{Type: "error", Code: "usage", Message: "missing sql"})
		return
	}
	name := req.Tenant
	if name == "" {
		name = "default"
	}
	tn, ok := s.tenants[name]
	if !ok {
		s.writeError(w, http.StatusNotFound,
			&Message{Type: "error", Code: "unknown_tenant", Message: fmt.Sprintf("no tenant %q", name)})
		return
	}

	// Shutdown may have run while the body was still arriving: from here on
	// it either waits for this query or this query never starts.
	if !s.admit() {
		s.refuseDraining(w)
		return
	}
	defer s.wg.Done()

	// The query context: cancelled by the client disconnecting (r.Context),
	// by a drain deadline expiring (baseCtx via AfterFunc), or by the
	// deadline — whichever comes first. Cancellation reaches the storage
	// scans within one batch.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()
	if d := s.queryDeadline(req.TimeoutMs); d > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, d)
		defer cancelT()
	}

	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	s.queriesTotal.Add(1)

	out := newLineWriter(w)
	defer s.endResponse(out, tn.name, req.SQL)

	var opts []paradise.QueryOption
	if req.Module != "" {
		opts = append(opts, paradise.Module(req.Module))
	}
	cur, err := tn.sess.Query(ctx, req.SQL, opts...)
	if err != nil {
		s.errorsTotal.Add(1)
		status, msg := errorMessage(err)
		s.writeError(w, status, msg)
		return
	}
	defer cur.Close() // also under a panic, before endResponse reports it
	s.streamCursor(out, cur)
}

// endResponse is deferred around everything that produces a query response,
// and is the panic boundary of the request goroutine: whatever the compile,
// a cursor pull or the encoder raises ends this response with a final error
// line (or a 500 when nothing was sent yet) instead of a torn stream, and
// the server keeps serving.
func (s *Server) endResponse(out *lineWriter, tenant, sql string) {
	if p := recover(); p != nil {
		s.abortOnPanic(out, p, tenant, sql)
	}
	s.bytesStreamed.Add(out.bytes)
	s.flushes.Add(out.flushes)
	out.release()
}

// abortOnPanic ends a response whose handler panicked with value p. Once the
// header is out, the whole lines still pending are delivered and the stream
// ends with an error line, as the protocol promises for every failure; a
// line the encoder was in the middle of is dropped. Before that the client
// gets a plain 500. The stack goes to the log, the event to panics_total.
func (s *Server) abortOnPanic(out *lineWriter, p any, tenant, sql string) {
	s.panicsTotal.Add(1)
	s.errorsTotal.Add(1)
	slog.Error("server: query panicked", "panic", p, "tenant", tenant, "sql", sql, "stack", string(debug.Stack()))
	msg := &Message{Type: "error", Code: "internal", Message: "internal error: the query was aborted"}
	if !out.started {
		s.writeError(out.w, http.StatusInternalServerError, msg)
		return
	}
	out.dropPartialLine()
	_ = json.NewEncoder(out).Encode(msg) // lineWriter.Write cannot fail
	out.write()
}

// resultCursor is what streamCursor needs of a *paradise.Cursor; the tests
// substitute producers that trickle or panic.
type resultCursor interface {
	Schema() *paradise.Relation
	Columnar() bool
	NextBatch() (*paradise.Batch, error)
	Next() bool
	Row() paradise.Row
	Buffered() int
	Err() error
	Stats() (*paradise.RunStats, error)
}

// streamCursor writes the NDJSON body: schema, rows, then either the stats
// trailer or a final error line. A Columnar cursor is encoded batch by batch
// straight from its vectors, any other row by row. Row lines leave by size
// (flushBytes) and, once per pulled batch, by age (flushInterval); every
// write ends on a line boundary, so each path leaves the response a
// sequence of complete JSON lines.
func (s *Server) streamCursor(out *lineWriter, cur resultCursor) {
	out.start()
	enc := json.NewEncoder(out) // schema, trailer and error lines only
	_ = enc.Encode(schemaMessage(cur.Schema()))
	out.flush()

	rows := 0
	defer func() { s.rowsStreamed.Add(int64(rows)) }()
	if cur.Columnar() {
		s.responsesColumnar.Add(1)
		for out.err == nil {
			b, _ := cur.NextBatch() // the error stays in cur.Err
			if b == nil {
				break
			}
			rows += out.batch(b)
			out.flushIfStale()
		}
	} else {
		s.responsesRows.Add(1)
		for out.err == nil && cur.Next() {
			out.row(cur.Row())
			rows++
			if cur.Buffered() == 0 {
				out.flushIfStale()
			}
		}
	}
	if out.err != nil {
		return // client is gone; nothing sensible left to write
	}

	// A mid-stream failure (cancellation, drain deadline, execution error)
	// ends the stream with an error line, not a trailer.
	err := cur.Err()
	var stats *paradise.RunStats
	if err == nil {
		stats, err = cur.Stats()
	}
	if err != nil {
		s.errorsTotal.Add(1)
		_, msg := errorMessage(err)
		_ = enc.Encode(msg)
		out.write()
		return
	}
	for _, a := range stats.Assignments {
		if a.Columnar {
			s.stagesColumnar.Add(1)
		} else {
			s.stagesRows.Add(1)
		}
	}
	_ = enc.Encode(statsMessage(rows, stats))
	out.write()
}

// queryDeadline resolves the effective execution ceiling for one request:
// the requested timeout clamped to the server's maximum.
func (s *Server) queryDeadline(timeoutMs int) time.Duration {
	req := time.Duration(timeoutMs) * time.Millisecond
	switch {
	case req <= 0:
		return s.maxDur
	case s.maxDur > 0 && req > s.maxDur:
		return s.maxDur
	default:
		return req
	}
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed,
			&Message{Type: "error", Code: "method_not_allowed", Message: "use GET"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

// handleHealth serves GET /healthz: 200 while serving, 503 while draining.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// writeError sends a single-object JSON error response.
func (s *Server) writeError(w http.ResponseWriter, status int, msg *Message) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(msg)
}

// errorMessage maps a facade error onto (status, structured body). The
// status matters for pre-execution failures; mid-stream the body rides as
// the final NDJSON line of an already-200 response.
func errorMessage(err error) (int, *Message) {
	var v *paradise.PolicyViolation
	switch {
	case errors.As(err, &v):
		return http.StatusForbidden, &Message{
			Type: "error", Code: "policy_violation", Message: err.Error(),
			Rule: v.Rule, Attributes: v.Columns, Module: v.Module,
		}
	case errors.Is(err, paradise.ErrPolicyViolation):
		return http.StatusForbidden, &Message{Type: "error", Code: "policy_violation", Message: err.Error()}
	case errors.Is(err, paradise.ErrParse):
		return http.StatusBadRequest, &Message{Type: "error", Code: "parse_error", Message: err.Error()}
	case errors.Is(err, paradise.ErrUnsupported):
		return http.StatusNotImplemented, &Message{Type: "error", Code: "unsupported", Message: err.Error()}
	case errors.Is(err, paradise.ErrUsage):
		return http.StatusUnprocessableEntity, &Message{Type: "error", Code: "usage", Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, &Message{Type: "error", Code: "deadline_exceeded", Message: err.Error()}
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, &Message{Type: "error", Code: "canceled", Message: err.Error()}
	default:
		return http.StatusInternalServerError, &Message{Type: "error", Code: "internal", Message: err.Error()}
	}
}
