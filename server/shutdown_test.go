package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestShutdownCleanDrain: with nothing in flight, Shutdown returns nil
// immediately and the server refuses further work.
func TestShutdownCleanDrain(t *testing.T) {
	srv, hs, client := newTestServer(t, testStore(t, 100))
	ctx := context.Background()

	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	res, err := client.Query(ctx, QueryRequest{SQL: "SELECT x FROM d"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusServiceUnavailable || res.Err == nil || res.Err.Code != "draining" {
		t.Fatalf("query after drain: status %d err %+v", res.Status, res.Err)
	}
	hres, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d", hres.StatusCode)
	}
}

// TestShutdownMidStreamTruncates is the drain acceptance case: a shutdown
// deadline expiring under an in-flight stream must yield a well-formed
// truncated NDJSON response — every line valid JSON, the last one an error
// object — rather than a hang or a torn line.
func TestShutdownMidStreamTruncates(t *testing.T) {
	store := testStore(t, 200000)
	srv, err := New(Config{Store: store, Tenants: []TenantConfig{{Name: "default"}}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	body, err := json.Marshal(QueryRequest{SQL: "SELECT * FROM d"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Post(hs.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// Read a handful of lines, then stop consuming: TCP backpressure pins
	// the server mid-stream with the cursor open.
	br := bufio.NewReaderSize(resp.Body, 4096)
	var lines []string
	for i := 0; i < 5; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading line %d: %v", i, err)
		}
		lines = append(lines, line)
	}

	shutErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		shutErr <- srv.Shutdown(ctx)
	}()

	// Draining flips before the deadline: health goes 503, new queries are
	// refused while the old stream is still open.
	deadline := time.Now().Add(5 * time.Second)
	for {
		hres, err := hs.Client().Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hres.Body.Close()
		if hres.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	client := &Client{Base: hs.URL, HTTP: hs.Client()}
	res, err := client.Query(context.Background(), QueryRequest{SQL: "SELECT x FROM d"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusServiceUnavailable || res.Err == nil || res.Err.Code != "draining" {
		t.Fatalf("new query during drain: status %d err %+v", res.Status, res.Err)
	}

	// Let the drain deadline expire so the kill switch cancels the stream's
	// context, then resume reading to the end.
	time.Sleep(250 * time.Millisecond)
	for {
		line, err := br.ReadString('\n')
		if len(line) > 0 {
			lines = append(lines, line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	if err := <-shutErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown returned %v, want context.DeadlineExceeded", err)
	}

	// The response is truncated but well formed: schema first, every line a
	// complete JSON object, the final line an error — never a stats trailer,
	// never a torn row.
	if len(lines) >= 200000 {
		t.Fatalf("stream was not truncated: %d lines", len(lines))
	}
	for i, line := range lines {
		var msg Message
		if err := json.Unmarshal([]byte(line), &msg); err != nil {
			t.Fatalf("line %d is not valid JSON: %q: %v", i, line, err)
		}
		switch {
		case i == 0 && msg.Type != "schema":
			t.Fatalf("first line type %q, want schema", msg.Type)
		case i == len(lines)-1:
			if msg.Type != "error" || msg.Code != "canceled" {
				t.Fatalf("final line = %s, want a canceled error object", strings.TrimSpace(line))
			}
		case i > 0 && msg.Type != "row":
			t.Fatalf("line %d type %q, want row", i, msg.Type)
		}
	}
	if !strings.HasSuffix(lines[len(lines)-1], "\n") {
		t.Fatalf("final line not newline-terminated: %q", lines[len(lines)-1])
	}
}

// TestShutdownVersusStartingQuery: a request that passed the handler's
// first draining check and is still sending its body when Shutdown runs
// must not start a query behind Shutdown's back. Shutdown does not wait for
// it (nothing is in flight yet), so it must be refused with 503.
func TestShutdownVersusStartingQuery(t *testing.T) {
	srv, _, _ := newTestServer(t, testStore(t, 100))

	pr, pw := io.Pipe()
	rec := httptest.NewRecorder()
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", pr))
	}()
	// A pipe write returns once the reader has consumed it: the handler is
	// now inside the body decoder, past its first draining check.
	if _, err := pw.Write([]byte(`{"sql":`)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with nothing admitted returned %v", err)
	}

	if _, err := pw.Write([]byte(`"SELECT x FROM d"}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	<-handled
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query started after Shutdown returned: status %d, body %s", rec.Code, rec.Body.String())
	}
}
