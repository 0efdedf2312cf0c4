package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	paradise "paradise"
	"paradise/internal/schema"
)

// fakeCursor is a resultCursor over canned batches: it can serve either
// face, wait before each pull and panic on one.
type fakeCursor struct {
	rel      *paradise.Relation
	columnar bool
	batches  []*paradise.Batch
	delay    time.Duration // before every pull
	panicAt  int           // pull (0-based) that panics; -1 never
	pulled   atomic.Int64  // batches handed out so far

	rows paradise.Rows // row face: the pivoted current batch
	idx  int
}

func (f *fakeCursor) pull() *paradise.Batch {
	n := int(f.pulled.Load())
	if n == f.panicAt {
		panic("fakeCursor: injected pull failure")
	}
	if n == len(f.batches) {
		return nil
	}
	time.Sleep(f.delay)
	f.pulled.Add(1)
	return f.batches[n]
}

func (f *fakeCursor) Schema() *paradise.Relation { return f.rel }
func (f *fakeCursor) Columnar() bool             { return f.columnar }
func (f *fakeCursor) Err() error                 { return nil }
func (f *fakeCursor) Row() paradise.Row          { return f.rows[f.idx-1] }
func (f *fakeCursor) Buffered() int              { return len(f.rows) - f.idx }

func (f *fakeCursor) NextBatch() (*paradise.Batch, error) { return f.pull(), nil }

func (f *fakeCursor) Next() bool {
	for f.idx >= len(f.rows) {
		b := f.pull()
		if b == nil {
			return false
		}
		f.rows, f.idx = b.Rows(), 0
	}
	f.idx++
	return true
}

func (f *fakeCursor) Stats() (*paradise.RunStats, error) { return &paradise.RunStats{}, nil }

// fakeBatches cuts n rows (i, "s<i>") into batches of size per.
func fakeBatches(n, per int) (*paradise.Relation, []*paradise.Batch) {
	rel := paradise.NewRelation("f", paradise.Col("i", paradise.TypeInt), paradise.Col("s", paradise.TypeString))
	var out []*paradise.Batch
	for lo := 0; lo < n; lo += per {
		var rows paradise.Rows
		for i := lo; i < min(lo+per, n); i++ {
			rows = append(rows, paradise.Row{paradise.Int(int64(i)), paradise.String("s" + strings.Repeat("x", i%7))})
		}
		out = append(out, schema.BatchFromRows(rel, rows))
	}
	return rel, out
}

// serveFake serves one fake cursor the way handleQuery serves a real one.
func serveFake(srv *Server, cur resultCursor) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		out := newLineWriter(w)
		defer srv.endResponse(out, "fake", "fake")
		srv.streamCursor(out, cur)
	})
}

func quietLogs(t *testing.T) {
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })
}

// wellFormed asserts a response body is whole NDJSON lines — schema first,
// then rows — and returns the row count and the final message.
func wellFormed(t *testing.T, body []byte) (rows int, last Message) {
	t.Helper()
	if len(body) == 0 || body[len(body)-1] != '\n' {
		t.Fatalf("body does not end on a line boundary: %q", body[max(0, len(body)-80):])
	}
	lines := bytes.Split(body[:len(body)-1], []byte("\n"))
	for i, line := range lines {
		var msg Message
		if err := json.Unmarshal(line, &msg); err != nil {
			t.Fatalf("line %d is not valid JSON: %q: %v", i, line, err)
		}
		switch {
		case i == 0:
			if msg.Type != "schema" {
				t.Fatalf("first line type %q, want schema", msg.Type)
			}
		case i == len(lines)-1:
			last = msg
		case msg.Type != "row":
			t.Fatalf("line %d type %q, want row", i, msg.Type)
		default:
			rows++
		}
	}
	return rows, last
}

// TestTrickleStillFlushes: a producer that yields one small batch every
// 100 ms is visible to the client batch by batch — far below the size mark,
// the once-per-pull staleness check is what pushes the lines out.
func TestTrickleStillFlushes(t *testing.T) {
	srv, _, _ := newTestServer(t, testStore(t, 10))
	for _, face := range []string{"columnar", "rows"} {
		t.Run(face, func(t *testing.T) {
			rel, batches := fakeBatches(10, 2)
			cur := &fakeCursor{rel: rel, columnar: face == "columnar", batches: batches, delay: 100 * time.Millisecond, panicAt: -1}
			hs := httptest.NewServer(serveFake(srv, cur))
			defer hs.Close()
			resp, err := hs.Client().Get(hs.URL)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			br := bufio.NewReader(resp.Body)
			for _, want := range []string{"schema", "row"} {
				line, err := br.ReadBytes('\n')
				if err != nil {
					t.Fatal(err)
				}
				var msg Message
				if err := json.Unmarshal(line, &msg); err != nil || msg.Type != want {
					t.Fatalf("line %q: type %q err %v, want %s", line, msg.Type, err, want)
				}
			}
			// The first row is here; the producer is nowhere near done.
			if got := cur.pulled.Load(); got >= int64(len(batches)) {
				t.Fatalf("first row arrived only after all %d batches were produced", got)
			}
			rest, err := io.ReadAll(br)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(rest, []byte(`{"type":"stats","rows":10`)) {
				t.Fatalf("stream does not end in the trailer: %q", rest)
			}
		})
	}
}

// TestPanicBoundaryCursor: a panic out of a cursor pull, or out of the
// encoder in the middle of a line, ends the stream with the lines that were
// whole and a final error line; the panic is counted and the partial line
// never reaches the client.
func TestPanicBoundaryCursor(t *testing.T) {
	quietLogs(t)
	for _, face := range []string{"columnar", "rows"} {
		t.Run("pull/"+face, func(t *testing.T) {
			srv, _, _ := newTestServer(t, testStore(t, 10))
			rel, batches := fakeBatches(300, 100)
			cur := &fakeCursor{rel: rel, columnar: face == "columnar", batches: batches, panicAt: 2}
			rec := httptest.NewRecorder()
			serveFake(srv, cur).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
			rows, last := wellFormed(t, rec.Body.Bytes())
			if rows != 200 || last.Type != "error" || last.Code != "internal" {
				t.Fatalf("got %d rows and final line %+v, want 200 rows and an internal error", rows, last)
			}
			if st := srv.Stats(); st.PanicsTotal != 1 || st.RowsStreamed != 200 {
				t.Fatalf("panics_total = %d, rows_streamed = %d", st.PanicsTotal, st.RowsStreamed)
			}
		})
	}
	t.Run("mid-line", func(t *testing.T) {
		srv, _, _ := newTestServer(t, testStore(t, 10))
		rel, batches := fakeBatches(100, 100)
		// The second column is three elements short: row 97 panics after
		// its first cell is in the buffer.
		batches[0].Vecs[1].Strs = batches[0].Vecs[1].Strs[:97]
		cur := &fakeCursor{rel: rel, columnar: true, batches: batches, panicAt: -1}
		rec := httptest.NewRecorder()
		serveFake(srv, cur).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
		rows, last := wellFormed(t, rec.Body.Bytes())
		if rows != 97 || last.Code != "internal" {
			t.Fatalf("got %d rows and final line %+v, want 97 rows and an internal error", rows, last)
		}
	})
}

// panicOnce is a ResponseWriter that panics on its n-th Write, or on its
// first Header call, once.
type panicOnce struct {
	http.ResponseWriter
	writes    *atomic.Int64
	failWrite int64
	header    *atomic.Bool // true: the next Header call panics
}

func (p *panicOnce) Header() http.Header {
	if p.header.CompareAndSwap(true, false) {
		panic("panicOnce: injected Header failure")
	}
	return p.ResponseWriter.Header()
}

func (p *panicOnce) Write(b []byte) (int, error) {
	if p.writes.Add(1) == p.failWrite {
		panic("panicOnce: injected Write failure")
	}
	return p.ResponseWriter.Write(b)
}

func (p *panicOnce) Flush() { p.ResponseWriter.(http.Flusher).Flush() }

// TestPanicBoundaryServesOn: a panic on the request goroutine of a real
// query — here out of the response writer, mid-stream and before the header
// — costs that response its trailer and nothing else. Without the boundary
// net/http swallows the panic and the client sees a torn stream.
func TestPanicBoundaryServesOn(t *testing.T) {
	quietLogs(t)
	srv, err := New(Config{Store: testStore(t, 5000), Tenants: []TenantConfig{{Name: "default"}}})
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	var header atomic.Bool
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(&panicOnce{ResponseWriter: w, writes: &writes, failWrite: 3, header: &header}, r)
	}))
	defer hs.Close()
	client := &Client{Base: hs.URL, HTTP: hs.Client()}
	ctx := context.Background()
	const sql = "SELECT * FROM d"

	post := func() (*http.Response, []byte) {
		body, _ := json.Marshal(QueryRequest{SQL: sql})
		resp, err := hs.Client().Post(hs.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading the response: %v", err) // a torn chunked stream fails here
		}
		return resp, b
	}

	// Mid-stream: the third write (schema, one buffer of rows, ...) panics.
	resp, body := post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	rows, last := wellFormed(t, body)
	if last.Type != "error" || last.Code != "internal" {
		t.Fatalf("final line = %+v, want an internal error", last)
	}
	if rows == 0 || rows >= 5000 {
		t.Fatalf("%d rows before the error line, want a truncated stream", rows)
	}
	if st := srv.Stats(); st.PanicsTotal != 1 || st.InFlight != 0 {
		t.Fatalf("panics_total = %d, in_flight = %d after the contained panic", st.PanicsTotal, st.InFlight)
	}

	// The server keeps serving.
	res, err := client.Query(ctx, QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || len(res.Rows) != 5000 || res.Stats == nil {
		t.Fatalf("query after the panic: err %+v, %d rows", res.Err, len(res.Rows))
	}

	// Before the header: a plain 500 with the error object as its body.
	header.Store(true)
	resp, body = post()
	var msg Message
	if err := json.Unmarshal(body, &msg); err != nil {
		t.Fatalf("500 body %q: %v", body, err)
	}
	if resp.StatusCode != http.StatusInternalServerError || msg.Code != "internal" {
		t.Fatalf("status %d body %+v, want 500 internal", resp.StatusCode, msg)
	}
	if st := srv.Stats(); st.PanicsTotal != 2 {
		t.Fatalf("panics_total = %d, want 2", st.PanicsTotal)
	}
}

// exportRequest is a POST /v1/query for the given statement.
func exportRequest(sql string) *http.Request {
	body, _ := json.Marshal(QueryRequest{SQL: sql})
	return httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
}

// TestStreamAllocationBudget: a columnar response allocates per request and
// per batch, not per row — ten times the rows may cost a handful of buffer
// growths (the recorder's, the scan's), nothing proportional.
func TestStreamAllocationBudget(t *testing.T) {
	allocs := func(n int) float64 {
		srv, err := New(Config{Store: testStore(t, n), Tenants: []TenantConfig{{Name: "default"}}, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, exportRequest("SELECT * FROM d"))
			if rec.Code != http.StatusOK || rec.Body.Len() < 40*n {
				t.Fatalf("status %d, %d body bytes", rec.Code, rec.Body.Len())
			}
		}
		run() // compile once: the measured runs hit the plan cache
		return testing.AllocsPerRun(5, run)
	}
	small, large := allocs(1000), allocs(10000)
	if perRow := (large - small) / 9000; perRow > 0.05 {
		t.Fatalf("%.0f allocs for 1k rows, %.0f for 10k: %.2f per extra row, want none", small, large, perRow)
	}
}

// TestResponseCounters: /v1/stats says how many bytes left in streamed
// responses, in how many flushes, and which encoder entry point served each.
func TestResponseCounters(t *testing.T) {
	srv, _, client := newTestServer(t, testStore(t, 3000))
	ctx := context.Background()
	var bytesWant int64
	for _, sql := range []string{
		"SELECT x, y, t FROM d WHERE t >= 1000",      // kernels only: columnar
		"SELECT x + 1 AS x1, t FROM d WHERE t >= 10", // expression projection: rows
	} {
		rec := httptest.NewRecorder()
		body, _ := json.Marshal(QueryRequest{SQL: sql, Tenant: "open"})
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if rows, last := wellFormed(t, rec.Body.Bytes()); rows == 0 || last.Type != "stats" {
			t.Fatalf("%s: %d rows, final line %+v", sql, rows, last)
		}
		bytesWant += int64(rec.Body.Len())
	}
	// Denied before execution: no stream, so none of the stream counters move.
	if res, err := client.Query(ctx, QueryRequest{SQL: "SELECT user FROM d"}); err != nil || res.Status != http.StatusForbidden {
		t.Fatalf("denied query: %+v, %v", res, err)
	}
	st := srv.Stats()
	if st.ResponsesColumnar != 1 || st.ResponsesRows != 1 {
		t.Fatalf("responses: %d columnar, %d rows, want 1 and 1", st.ResponsesColumnar, st.ResponsesRows)
	}
	if st.BytesStreamed != bytesWant {
		t.Fatalf("bytes_streamed = %d, the two bodies are %d", st.BytesStreamed, bytesWant)
	}
	// Each response flushes its schema line, then by size: every further
	// flush carried flushBytes (a stall of flushInterval may add one).
	if most := 2 + bytesWant/flushBytes + 2; st.Flushes < 3 || st.Flushes > most {
		t.Fatalf("flushes = %d for %d body bytes in two responses, want 3 to %d", st.Flushes, bytesWant, most)
	}
}

// sinkWriter is a ResponseWriter that keeps nothing: a client that reads
// everything or, with err set, one that went away.
type sinkWriter struct {
	header http.Header
	n      int
	err    error
}

func (w *sinkWriter) Header() http.Header { return w.header }
func (w *sinkWriter) WriteHeader(int)     {}
func (w *sinkWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	w.n += len(p)
	return len(p), nil
}

// TestGoneClientStopsEncoding: after a failed write the handler stops
// pulling and encoding instead of rendering the rest of the result.
func TestGoneClientStopsEncoding(t *testing.T) {
	srv, _, _ := newTestServer(t, testStore(t, 10))
	for _, face := range []string{"columnar", "rows"} {
		rel, batches := fakeBatches(5000, 100)
		cur := &fakeCursor{rel: rel, columnar: face == "columnar", batches: batches, panicAt: -1}
		gone := &sinkWriter{header: http.Header{}, err: errors.New("broken pipe")}
		serveFake(srv, cur).ServeHTTP(gone, httptest.NewRequest(http.MethodGet, "/", nil))
		if got := cur.pulled.Load(); got > 1 {
			t.Fatalf("%s: %d batches pulled for a client that was gone at the schema line", face, got)
		}
	}
}

// streamBench serves one 10k-row statement b.N times to a client that
// discards it and reports what the serving path costs per streamed row.
func streamBench(b *testing.B, sql string, wantColumnar bool) {
	const n = 10000
	srv, err := New(Config{Store: testStore(b, n), Tenants: []TenantConfig{{Name: "default"}}, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		w := &sinkWriter{header: http.Header{}}
		srv.ServeHTTP(w, exportRequest(sql))
		if w.n < 40*n {
			b.Fatalf("%d body bytes", w.n)
		}
	}
	run() // compile once: the measured runs hit the plan cache
	if st := srv.Stats(); st.RowsStreamed != n || (st.ResponsesColumnar == 1) != wantColumnar {
		b.Fatalf("warm-up streamed %d rows, columnar=%v", st.RowsStreamed, st.ResponsesColumnar == 1)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	rows := float64(b.N) * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/rows, "B/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
}

// BenchmarkStreamExport is a 10k-row response through the columnar entry
// point: scan, batch face, row lines appended from the vectors.
func BenchmarkStreamExport(b *testing.B) {
	streamBench(b, "SELECT user, x, y, z, t FROM d WHERE t >= 0", true)
}

// BenchmarkStreamRows is the same result through the row entry point (the
// expression makes the final stage ship rows).
func BenchmarkStreamRows(b *testing.B) {
	streamBench(b, "SELECT user, x, y, z + 0 AS z, t FROM d WHERE t >= 0", false)
}
