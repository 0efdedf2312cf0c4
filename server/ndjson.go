package server

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	paradise "paradise"
)

// This file is the row-line encoder of the NDJSON stream and the buffer the
// lines leave through. A row line is
//
//	{"type":"row","values":[0.5,"alice",null]}
//
// (`{"type":"row"}` for a zero-width row) and its bytes are exactly what
// encoding/json writes for Message{Type: "row", Values: ...} with the cells
// mapped to JSON-native values: the same float formatting, the same string
// escaping (HTML-safe, U+2028/U+2029, invalid UTF-8 as U+FFFD). The
// differential and fuzz tests in wire_test.go hold it to that. Unlike
// encoding/json it appends to a caller-owned buffer, boxes nothing and
// reflects over nothing.
//
// There are two entry points over one set of per-cell appenders:
// appendBatchRow encodes a physical row of a column batch straight from the
// typed vectors, appendRowLine a materialized row. The first must never
// pivot (scripts/vecguard.sh checks this file).

const (
	rowLineOpen  = `{"type":"row","values":[`
	rowLineClose = "]}\n"
	rowLineEmpty = "{\"type\":\"row\"}\n"
)

// appendBatchRow appends the row line of physical row i of a batch's
// vectors.
func appendBatchRow(dst []byte, vecs []paradise.Vector, i int) []byte {
	if len(vecs) == 0 {
		return append(dst, rowLineEmpty...)
	}
	dst = append(dst, rowLineOpen...)
	for c := range vecs {
		if c > 0 {
			dst = append(dst, ',')
		}
		dst = appendCell(dst, &vecs[c], i)
	}
	return append(dst, rowLineClose...)
}

// appendRowLine appends the row line of a materialized row.
func appendRowLine(dst []byte, r paradise.Row) []byte {
	if len(r) == 0 {
		return append(dst, rowLineEmpty...)
	}
	dst = append(dst, rowLineOpen...)
	for c := range r {
		if c > 0 {
			dst = append(dst, ',')
		}
		dst = appendValue(dst, r[c])
	}
	return append(dst, rowLineClose...)
}

// appendCell appends element i of a vector. A boxed vector (a column that
// received values of several types) goes through the per-Value appender.
func appendCell(dst []byte, v *paradise.Vector, i int) []byte {
	if v.Box != nil {
		return appendValue(dst, v.Box[i])
	}
	if v.Nulls != nil && v.Nulls[i] {
		return append(dst, "null"...)
	}
	switch v.Typ {
	case paradise.TypeBool:
		return strconv.AppendBool(dst, v.Bools[i])
	case paradise.TypeInt:
		return strconv.AppendInt(dst, v.Ints[i], 10)
	case paradise.TypeFloat:
		return appendFloat(dst, v.Floats[i])
	case paradise.TypeString:
		return appendString(dst, v.Strs[i])
	case paradise.TypeTime:
		return appendTime(dst, v.Times[i])
	default:
		return append(dst, "null"...)
	}
}

// appendValue appends one boxed cell.
func appendValue(dst []byte, v paradise.Value) []byte {
	switch v.Type() {
	case paradise.TypeBool:
		return strconv.AppendBool(dst, v.AsBool())
	case paradise.TypeInt:
		return strconv.AppendInt(dst, v.AsInt(), 10)
	case paradise.TypeFloat:
		return appendFloat(dst, v.AsFloat())
	case paradise.TypeString:
		return appendString(dst, v.AsString())
	case paradise.TypeTime:
		return appendTime(dst, v.AsTime())
	default: // NULL
		return append(dst, "null"...)
	}
}

// appendFloat formats a float the way encoding/json does (the ES6
// number-to-string rules: 'f' format, 'e' below 1e-6 and from 1e21, exponent
// not padded). JSON has no spelling for the non-finite values; they travel
// as the strings "NaN", "+Inf", "-Inf".
func appendFloat(dst []byte, f float64) []byte {
	switch {
	case f != f:
		return append(dst, `"NaN"`...)
	case f > math.MaxFloat64:
		return append(dst, `"+Inf"`...)
	case f < -math.MaxFloat64:
		return append(dst, `"-Inf"`...)
	}
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
		// e-09 becomes e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
		return dst
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64)
}

// appendTime formats a timestamp as a quoted RFC 3339 string. The layout
// produces digits and "-:.TZ+" only, nothing a JSON string must escape.
func appendTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// jsonPlain marks the ASCII bytes encoding/json copies into a string
// unescaped when HTML escaping is on (the json.Encoder default): everything
// from space up except the quote, the backslash and <, >, &.
var jsonPlain = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// appendString appends s as a JSON string with encoding/json's escaping.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonPlain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default: // other control bytes, and <, >, &
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

const (
	// flushBytes is the size at which pending lines are written out and
	// flushed: large enough that the write and the chunk framing disappear
	// in the stream, small enough to sit in a pooled buffer per response.
	flushBytes = 32 << 10
	// flushInterval is how stale pending lines may be when the cursor is
	// about to be pulled again: a selective scan that trickles a few rows
	// per batch still shows progress, a fast one flushes by size only.
	flushInterval = 20 * time.Millisecond
)

// lineBufs recycles response buffers. A buffer holds flushBytes plus the
// line that crossed the mark; one that had to grow far past that (a huge
// string cell) is dropped instead of pinned in the pool.
var lineBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, flushBytes+4096)
	return &b
}}

// lineWriter is the body of one NDJSON response: lines accumulate in a
// pooled buffer and leave in writes that always end on a line boundary, so
// whatever reaches the client — also under a failure — is a sequence of
// whole lines. It implements io.Writer for the encoding/json lines (schema,
// trailer, error), which append whole lines too.
type lineWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher // nil when w cannot flush
	bufp    *[]byte
	buf     []byte
	started bool      // status line and headers are out
	flushed time.Time // when pending lines last went out (first: the schema line)
	err     error     // first failed write: the client is gone

	bytes   int64 // body bytes written
	flushes int64
}

func newLineWriter(w http.ResponseWriter) *lineWriter {
	lw := &lineWriter{w: w, bufp: lineBufs.Get().(*[]byte)}
	lw.flusher, _ = w.(http.Flusher)
	lw.buf = (*lw.bufp)[:0]
	return lw
}

// release returns the buffer to the pool. The writer must not be used
// afterwards.
func (lw *lineWriter) release() {
	if cap(lw.buf) <= 2*flushBytes {
		*lw.bufp = lw.buf[:0]
		lineBufs.Put(lw.bufp)
	}
	lw.buf, lw.bufp = nil, nil
}

// start sends the 200 header of a streamed response.
func (lw *lineWriter) start() {
	lw.w.Header().Set("Content-Type", "application/x-ndjson")
	lw.w.WriteHeader(http.StatusOK)
	lw.started = true
}

// Write appends whole lines produced by a json.Encoder.
func (lw *lineWriter) Write(p []byte) (int, error) {
	lw.buf = append(lw.buf, p...)
	return len(p), nil
}

// batch appends the row lines of a batch's live rows, writing out whenever
// the buffer passes flushBytes, and returns how many it appended.
func (lw *lineWriter) batch(b *paradise.Batch) int {
	n := b.Len()
	for k := 0; k < n && lw.err == nil; k++ {
		i := k
		if b.Sel != nil {
			i = b.Sel[k]
		}
		lw.buf = appendBatchRow(lw.buf, b.Vecs, i)
		if len(lw.buf) >= flushBytes {
			lw.flush()
		}
	}
	return n
}

// row appends one row line, writing out when the buffer passes flushBytes.
func (lw *lineWriter) row(r paradise.Row) {
	lw.buf = appendRowLine(lw.buf, r)
	if len(lw.buf) >= flushBytes {
		lw.flush()
	}
}

// write hands the pending lines to the response without forcing them onto
// the wire: right for the last lines of a response, which net/http sends
// with the end of the body when the handler returns.
func (lw *lineWriter) write() {
	if lw.err != nil || len(lw.buf) == 0 {
		return
	}
	n, err := lw.w.Write(lw.buf)
	lw.bytes += int64(n)
	lw.err = err
	lw.buf = lw.buf[:0]
}

// flush writes the pending lines and pushes them to the client.
func (lw *lineWriter) flush() {
	lw.write()
	if lw.err == nil && lw.flusher != nil {
		lw.flusher.Flush()
		lw.flushes++
	}
	lw.flushed = time.Now()
}

// flushIfStale flushes pending lines older than flushInterval. Callers
// invoke it once per pulled batch, before a pull that may block.
func (lw *lineWriter) flushIfStale() {
	if len(lw.buf) > 0 && time.Since(lw.flushed) >= flushInterval {
		lw.flush()
	}
}

// dropPartialLine discards a line the encoder was in the middle of when it
// panicked. Escaping keeps raw newlines out of every line, so the last one
// in the buffer ends the last whole line.
func (lw *lineWriter) dropPartialLine() {
	end := len(lw.buf)
	for end > 0 && lw.buf[end-1] != '\n' {
		end--
	}
	lw.buf = lw.buf[:end]
}
