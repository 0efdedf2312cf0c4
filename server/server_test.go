package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	paradise "paradise"
)

// testStore builds a deterministic integrated database d of n rows.
func testStore(t testing.TB, n int) *paradise.Store {
	t.Helper()
	store := paradise.NewStore()
	tab := store.Create(paradise.NewRelation("d",
		paradise.SensitiveCol("user", paradise.TypeString),
		paradise.Col("x", paradise.TypeFloat),
		paradise.Col("y", paradise.TypeFloat),
		paradise.Col("z", paradise.TypeFloat),
		paradise.Col("t", paradise.TypeInt),
	))
	users := []string{"alice", "bob", "carol"}
	rows := make(paradise.Rows, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, paradise.Row{
			paradise.String(users[i%len(users)]),
			paradise.Float(float64(i % 8)),
			paradise.Float(float64(i % 6)),
			paradise.Float(0.5 + float64(i%30)/10),
			paradise.Int(int64(i) * 50),
		})
	}
	if err := tab.Append(rows...); err != nil {
		t.Fatal(err)
	}
	return store
}

// newTestServer serves two tenants over one store: "default" under the
// paper's Figure 4 policy and "open" unrestricted.
func newTestServer(t testing.TB, store *paradise.Store) (*Server, *httptest.Server, *Client) {
	t.Helper()
	srv, err := New(Config{
		Store: store,
		Tenants: []TenantConfig{
			{Name: "default", Policy: paradise.Figure4Policy(), DefaultModule: "ActionFilter"},
			{Name: "open"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs, &Client{Base: hs.URL, HTTP: hs.Client()}
}

// sameAsProcess asserts a drained HTTP result matches a direct
// Session.Process outcome row for row (JSON-encoding both sides) and in
// the trailer's Figure 3 numbers.
func sameAsProcess(t *testing.T, res *QueryResult, want *paradise.Outcome) {
	t.Helper()
	if res.Err != nil {
		t.Fatalf("query failed: %+v", res.Err)
	}
	if len(res.Rows) != len(want.Result.Rows) {
		t.Fatalf("rows: got %d, want %d", len(res.Rows), len(want.Result.Rows))
	}
	for i := range res.Rows {
		got, err := json.Marshal(res.Rows[i])
		if err != nil {
			t.Fatal(err)
		}
		exp, err := json.Marshal(rowValues(want.Result.Rows[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, exp) {
			t.Fatalf("row %d: got %s, want %s", i, got, exp)
		}
	}
	if res.Stats == nil {
		t.Fatal("missing stats trailer")
	}
	if res.Stats.Rows != len(want.Result.Rows) ||
		res.Stats.RawBytes != want.Net.RawBytes ||
		res.Stats.EgressBytes != want.Net.EgressBytes {
		t.Fatalf("trailer rows/raw/egress = %d/%d/%d, want %d/%d/%d",
			res.Stats.Rows, res.Stats.RawBytes, res.Stats.EgressBytes,
			len(want.Result.Rows), want.Net.RawBytes, want.Net.EgressBytes)
	}
}

// TestQueryRoundtrip: one HTTP query equals direct in-process execution,
// schema line included.
func TestQueryRoundtrip(t *testing.T) {
	store := testStore(t, 2000)
	_, _, client := newTestServer(t, store)
	direct, err := paradise.Open(store,
		paradise.WithPolicy(paradise.Figure4Policy()),
		paradise.WithDefaultModule("ActionFilter"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const sql = "SELECT x, AVG(z) AS za FROM d GROUP BY x"
	want, err := direct.Process(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Query(ctx, QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	sameAsProcess(t, res, want)
	if len(res.Columns) != 2 || res.Columns[0].Name != "x" || res.Columns[1].Name != "za" {
		t.Fatalf("schema line = %+v", res.Columns)
	}
	// The trailer says how each stage's output crossed the stage boundary:
	// the scan and projection stages as column batches, the aggregation as
	// rows, with the engine's reason.
	stages := res.Stats.Stages
	if len(stages) != len(want.Net.Assignments) || len(stages) < 3 {
		t.Fatalf("trailer has %d stages, the outcome %d", len(stages), len(want.Net.Assignments))
	}
	for i, a := range want.Net.Assignments {
		if stages[i].Path != a.Path() {
			t.Fatalf("stage %d path = %q, want %q", i+1, stages[i].Path, a.Path())
		}
	}
	if first, last := stages[0].Path, stages[len(stages)-1].Path; first != "columnar" || last != "rows: breaker" {
		t.Fatalf("stage paths run from %q to %q, want columnar to rows: breaker", first, last)
	}
}

// TestErrorStatusMapping: the facade's typed errors surface as the
// documented status codes with structured JSON bodies.
func TestErrorStatusMapping(t *testing.T) {
	_, _, client := newTestServer(t, testStore(t, 100))
	ctx := context.Background()

	cases := []struct {
		name   string
		req    QueryRequest
		status int
		code   string
	}{
		{"policy violation", QueryRequest{SQL: "SELECT user FROM d"}, 403, "policy_violation"},
		{"parse error", QueryRequest{SQL: "SELEKT broken"}, 400, "parse_error"},
		{"unsupported shape", QueryRequest{SQL: "SELECT v FROM nosuchtable"}, 501, "unsupported"},
		{"usage error", QueryRequest{SQL: "SELECT x FROM d", Module: "NoSuchModule"}, 422, "usage"},
		{"unknown tenant", QueryRequest{SQL: "SELECT x FROM d", Tenant: "ghost"}, 404, "unknown_tenant"},
		{"missing sql", QueryRequest{}, 422, "usage"},
	}
	for _, tc := range cases {
		res, err := client.Query(ctx, tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Status != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, res.Status, tc.status)
		}
		if res.Err == nil || res.Err.Code != tc.code {
			t.Errorf("%s: error body %+v, want code %q", tc.name, res.Err, tc.code)
		}
	}

	// The violation body carries the offending rule and attributes.
	res, err := client.Query(ctx, QueryRequest{SQL: "SELECT user FROM d"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err.Rule == "" || len(res.Err.Attributes) == 0 {
		t.Fatalf("policy violation body lacks rule/attributes: %+v", res.Err)
	}
}

// TestTenantIsolation: the same SQL under different tenants goes through
// different policies — the Figure 4 tenant gets the mandated rewrite, the
// open tenant the raw answer — and the shared plan cache keeps them apart.
func TestTenantIsolation(t *testing.T) {
	store := testStore(t, 1200)
	srv, _, client := newTestServer(t, store)
	ctx := context.Background()

	const sql = "SELECT x, y, z FROM d WHERE x > y AND z < 2"
	restricted, err := client.Query(ctx, QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	open, err := client.Query(ctx, QueryRequest{SQL: sql, Tenant: "open"})
	if err != nil {
		t.Fatal(err)
	}
	if restricted.Err != nil || open.Err != nil {
		t.Fatalf("errors: %+v / %+v", restricted.Err, open.Err)
	}
	// Figure 4 rewrites z to its mandated aggregate: schemas differ.
	if fmt.Sprint(restricted.Columns) == fmt.Sprint(open.Columns) {
		t.Fatalf("tenants produced identical schemas %v — policy isolation broken", open.Columns)
	}
	// Both compiled fresh: two tenants, two cache entries, zero hits yet.
	cs := srv.PlanCache().Stats()
	if cs.Misses != 2 || cs.Hits != 0 {
		t.Fatalf("cache after distinct-tenant queries: %+v", cs)
	}
}

// TestConcurrentClientsEquivalence is the acceptance property of the
// serving layer: N concurrent clients firing a repeated-statement workload
// at one server over one shared store each get answers identical to direct
// Session.Process, and the repeated statements hit the plan cache.
func TestConcurrentClientsEquivalence(t *testing.T) {
	store := testStore(t, 3000)
	srv, _, client := newTestServer(t, store)
	direct, err := paradise.Open(store,
		paradise.WithPolicy(paradise.Figure4Policy()),
		paradise.WithDefaultModule("ActionFilter"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	queries := []string{
		"SELECT x, y, z FROM d WHERE x > y AND z < 2",
		"SELECT x, y FROM d",
		"SELECT x, AVG(z) AS za FROM d GROUP BY x",
	}
	want := make([]*paradise.Outcome, len(queries))
	for i, sql := range queries {
		if want[i], err = direct.Process(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}

	const clients, rounds = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(queries)
				res, err := client.Query(ctx, QueryRequest{SQL: queries[i]})
				if err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", c, r, err)
					return
				}
				if res.Err != nil {
					errs <- fmt.Errorf("client %d round %d: %+v", c, r, res.Err)
					return
				}
				if len(res.Rows) != len(want[i].Result.Rows) {
					errs <- fmt.Errorf("client %d round %d: %d rows, want %d",
						c, r, len(res.Rows), len(want[i].Result.Rows))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Full-fidelity check once, serially, per query shape.
	for i, sql := range queries {
		res, err := client.Query(ctx, QueryRequest{SQL: sql})
		if err != nil {
			t.Fatal(err)
		}
		sameAsProcess(t, res, want[i])
	}

	cs := srv.PlanCache().Stats()
	if cs.Hits == 0 {
		t.Fatalf("repeated-statement workload never hit the plan cache: %+v", cs)
	}
	if cs.Misses > uint64(len(queries)) {
		t.Fatalf("more misses (%d) than distinct statements (%d): %+v", cs.Misses, len(queries), cs)
	}
	st := srv.Stats()
	if st.QueriesTotal != clients*rounds+int64(len(queries)) {
		t.Fatalf("queries_total = %d, want %d", st.QueriesTotal, clients*rounds+len(queries))
	}
	if st.InFlight != 0 {
		t.Fatalf("in_flight = %d after the workload drained", st.InFlight)
	}
}

// TestStatsEndpoint: the observability surface reports cache and traffic
// counters over HTTP.
func TestStatsEndpoint(t *testing.T) {
	_, _, client := newTestServer(t, testStore(t, 500))
	ctx := context.Background()
	var columnar, rows int64
	for i := 0; i < 2; i++ {
		res, err := client.Query(ctx, QueryRequest{SQL: "SELECT x, y FROM d"})
		if err != nil {
			t.Fatal(err)
		}
		for _, sg := range res.Stats.Stages {
			if sg.Path == "columnar" {
				columnar++
			} else {
				rows++
			}
		}
	}
	st, err := client.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.StagesColumnar != columnar || st.StagesRows != rows || columnar == 0 {
		t.Fatalf("stage boundaries: stats say %d columnar / %d rows, the trailers %d / %d",
			st.StagesColumnar, st.StagesRows, columnar, rows)
	}
	if st.QueriesTotal != 2 || st.Tenants != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PlanCache.Hits != 1 || st.PlanCache.Misses != 1 {
		t.Fatalf("plan cache stats = %+v", st.PlanCache)
	}
	if st.RowsStreamed == 0 {
		t.Fatalf("rows_streamed = 0 after streaming queries")
	}
}

// TestRequestDeadline: a request-level timeout cancels execution and the
// stream ends with a well-formed deadline error line.
func TestRequestDeadline(t *testing.T) {
	srv, err := New(Config{
		Store:            testStore(t, 200000),
		Tenants:          []TenantConfig{{Name: "default"}},
		MaxQueryDuration: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client := &Client{Base: hs.URL, HTTP: hs.Client()}

	res, err := client.Query(context.Background(), QueryRequest{SQL: "SELECT * FROM d"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated && res.Err == nil {
		t.Fatalf("1ms deadline over 200k rows did not cut the query: %d rows, stats %+v",
			len(res.Rows), res.Stats)
	}
	if res.Err == nil || res.Err.Code != "deadline_exceeded" {
		t.Fatalf("error line = %+v, want deadline_exceeded", res.Err)
	}
}
