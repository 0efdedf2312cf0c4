package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client is a minimal consumer of the serving API, used by the tests. It
// decodes numbers with json.Number, so int64 values round-trip without
// float truncation.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8780".
	Base string
	// HTTP is the transport; nil uses http.DefaultClient.
	HTTP *http.Client
}

// QueryResult is a fully drained query response.
type QueryResult struct {
	// Status is the HTTP status code.
	Status int
	// Columns is the schema line (nil when the request failed before
	// streaming).
	Columns []ColumnInfo
	// Rows holds the decoded row values, one slice per row line.
	Rows [][]any
	// Stats is the trailer; nil when the stream ended in an error.
	Stats *Message
	// Err is the structured error object, from the error body of a non-2xx
	// response or from a final mid-stream error line; nil on full success.
	Err *Message
	// Truncated reports a 2xx stream that ended with an error line instead
	// of the stats trailer.
	Truncated bool
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Query posts one statement and drains the NDJSON stream.
func (c *Client) Query(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(c.Base, "/")+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	res := &QueryResult{Status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		var msg Message
		if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
			return nil, fmt.Errorf("server: status %d with unreadable body: %w", resp.StatusCode, err)
		}
		res.Err = &msg
		return res, nil
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var msg Message
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.UseNumber()
		if err := dec.Decode(&msg); err != nil {
			return nil, fmt.Errorf("server: malformed NDJSON line %q: %w", line, err)
		}
		switch msg.Type {
		case "schema":
			res.Columns = msg.Columns
		case "row":
			res.Rows = append(res.Rows, msg.Values)
		case "stats":
			m := msg
			res.Stats = &m
		case "error":
			m := msg
			res.Err = &m
			res.Truncated = true
		default:
			return nil, fmt.Errorf("server: unknown NDJSON line type %q", msg.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if res.Stats == nil && res.Err == nil {
		return nil, fmt.Errorf("server: stream ended without stats trailer or error line")
	}
	return res, nil
}

// ServerStats fetches GET /v1/stats.
func (c *Client) ServerStats(ctx context.Context) (*StatsSnapshot, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(c.Base, "/")+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("server: stats status %d: %s", resp.StatusCode, b)
	}
	var st StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}
