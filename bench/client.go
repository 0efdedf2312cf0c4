package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// httpClient is the harness's own consumer of POST /v1/query. It does not
// use server.Client, which json.Unmarshals every row on the threads the
// server needs: a timed request reads the body into one reused buffer,
// counts the lines and parses only the last one. The buffer grows to the
// largest response seen (about 1.3 MB for an 11k-row export) and is the
// only per-client memory that scales with the result.
type httpClient struct {
	hc   *http.Client
	url  string
	body bytes.Buffer
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{
		url: base + "/v1/query",
		// One keep-alive connection per client: each httpClient is used by
		// one goroutine, so its transport never needs a second one.
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// lastLine is what the harness reads from the final line of a response:
// the stats trailer of a complete stream or the error object otherwise.
type lastLine struct {
	Type        string `json:"type"`
	Rows        int    `json:"rows"`
	RawBytes    int64  `json:"raw_bytes"`
	EgressBytes int64  `json:"egress_bytes"`
	Code        string `json:"code"`
	Message     string `json:"message"`
}

// reply summarizes one response without decoding its rows.
type reply struct {
	status int
	rows   int // row lines counted in the body
	bytes  int
	last   lastLine
}

// do posts one statement and reads the whole response. The returned reply
// is only about counts; c.body holds the raw bytes until the next call.
func (c *httpClient) do(tenant, sql string) (reply, error) {
	reqBody, err := json.Marshal(struct {
		Tenant string `json:"tenant"`
		SQL    string `json:"sql"`
	}{tenant, sql})
	if err != nil {
		return reply{}, err
	}
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(reqBody))
	if err != nil {
		return reply{}, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	rep, err := summarize(c.body.Bytes())
	rep.status = resp.StatusCode
	return rep, err
}

// summarize counts the row lines of an NDJSON body (every line but the
// schema line and the last) and parses the last line.
func summarize(body []byte) (reply, error) {
	rep := reply{bytes: len(body)}
	trimmed := bytes.TrimRight(body, "\n")
	lines := bytes.Count(trimmed, []byte{'\n'}) + 1
	last := trimmed[bytes.LastIndexByte(trimmed, '\n')+1:]
	if err := json.Unmarshal(last, &rep.last); err != nil {
		return rep, fmt.Errorf("last line %q: %w", last, err)
	}
	if lines >= 2 {
		rep.rows = lines - 2
	}
	return rep, nil
}

// clientCostPerKRow replays the response reader on a recorded body: what
// the harness itself spends per thousand rows received, in microseconds.
func clientCostPerKRow(body []byte, rows int) float64 {
	const replays = 20
	var buf bytes.Buffer
	start := time.Now()
	for i := 0; i < replays; i++ {
		buf.Reset()
		buf.ReadFrom(bytes.NewReader(body)) // a bytes.Reader cannot fail
		if _, err := summarize(buf.Bytes()); err != nil {
			return 0
		}
	}
	return us(time.Since(start)) / replays / float64(rows) * 1000
}

// decodeBody fully decodes an NDJSON response into an answer, for the
// verification pass: numbers become ints or floats by the schema line's
// column types, so they compare exactly with what Session.Query returns.
func decodeBody(body []byte) (*answer, error) {
	a := &answer{}
	var types []string
	for _, line := range bytes.Split(bytes.TrimRight(body, "\n"), []byte{'\n'}) {
		var msg struct {
			Type    string `json:"type"`
			Columns []struct {
				Name string `json:"name"`
				Type string `json:"type"`
			} `json:"columns"`
			Values  []any  `json:"values"`
			Message string `json:"message"`
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.UseNumber()
		if err := dec.Decode(&msg); err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		switch msg.Type {
		case "schema":
			for _, c := range msg.Columns {
				a.cols = append(a.cols, c.Name)
				types = append(types, c.Type)
			}
		case "row":
			if len(msg.Values) != len(types) {
				return nil, fmt.Errorf("row of %d values under %d columns", len(msg.Values), len(types))
			}
			cells := make([]cell, len(msg.Values))
			for i, v := range msg.Values {
				cells[i] = jsonCell(v, types[i])
			}
			a.rows = append(a.rows, cells)
		case "stats":
		default:
			return nil, fmt.Errorf("%s line in body: %s", msg.Type, msg.Message)
		}
	}
	return a, nil
}

func jsonCell(v any, colType string) cell {
	switch x := v.(type) {
	case json.Number:
		if strings.EqualFold(colType, "bigint") {
			if i, err := x.Int64(); err == nil {
				return intCell(i)
			}
		}
		f, _ := x.Float64() // the lexer accepted it as a number
		return floatCell(f)
	case string:
		return strCell(x)
	case bool:
		if x {
			return intCell(1)
		}
		return intCell(0)
	}
	return cell{kind: 'n'}
}
