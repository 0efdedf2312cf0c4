package server

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	paradise "paradise"
	"paradise/internal/schema"
)

// rowValues and encodeValue are the oracle of the row-line encoder
// (ndjson.go): the cells of a row as JSON-native values, which
// encoding/json then renders. They were the serving path until the
// append-style encoder replaced them.
func rowValues(r paradise.Row) []any {
	out := make([]any, len(r))
	for i, v := range r {
		out[i] = encodeValue(v)
	}
	return out
}

// encodeValue maps one typed cell to its JSON representation.
func encodeValue(v paradise.Value) any {
	switch v.Type() {
	case paradise.TypeBool:
		return v.AsBool()
	case paradise.TypeInt:
		return v.AsInt()
	case paradise.TypeFloat:
		f := v.AsFloat()
		switch {
		case math.IsNaN(f):
			return "NaN"
		case math.IsInf(f, 1):
			return "+Inf"
		case math.IsInf(f, -1):
			return "-Inf"
		}
		return f
	case paradise.TypeString:
		return v.AsString()
	case paradise.TypeTime:
		return v.AsTime().Format(time.RFC3339Nano)
	default: // NULL
		return nil
	}
}

// oracleLine is the row line encoding/json writes.
func oracleLine(t testing.TB, r paradise.Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&Message{Type: "row", Values: rowValues(r)}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// batchLines encodes the live rows of a batch through the columnar entry
// point.
func batchLines(b *paradise.Batch) []byte {
	var out []byte
	for k := 0; k < b.Len(); k++ {
		i := k
		if b.Sel != nil {
			i = b.Sel[k]
		}
		out = appendBatchRow(out, b.Vecs, i)
	}
	return out
}

// wireRel declares one column per value type, plus a TypeInt column the
// corpus feeds other types so that its vector degrades to boxed storage.
var wireRel = paradise.NewRelation("w",
	paradise.Col("b", paradise.TypeBool),
	paradise.Col("i", paradise.TypeInt),
	paradise.Col("f", paradise.TypeFloat),
	paradise.Col("s", paradise.TypeString),
	paradise.Col("t", paradise.TypeTime),
	paradise.Col("mixed", paradise.TypeInt),
)

// wireCorpus is every cell shape the encoder has a rule for.
func wireCorpus() paradise.Rows {
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-6, 1e-7, 9.999999e-7, 1.5e-9, 1e-10, 5e-324,
		1e20, 1e21, 1.2345e21, 1e22, 1e100, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		123456789.125, 100, 1e6, math.NaN(), math.Inf(1), math.Inf(-1), 66.18, float64(1 << 53)}
	ints := []int64{0, 1, -1, 42, math.MinInt64, math.MaxInt64, 1 << 53, 1e15}
	strs := []string{"", "alice", "a b", `quote " and \ backslash`, "tab\tnl\ncr\rbs\bff\f", "\x00\x01\x1f\x7f",
		"<script>&amp;</script>", "line\u2028sep\u2029para", "\xff\xfe invalid", "trunc \xe2\x82", "ok \xe2\x82\xac euro",
		"日本語", "emoji \U0001F600", "\ufffd literal replacement", "mixed <\xc3> \u2028 \x02 end"}
	berlin := time.FixedZone("CET", 3600)
	times := []time.Time{
		time.Unix(0, 0).UTC(),
		time.Date(2016, 3, 15, 12, 30, 45, 0, time.UTC),
		time.Date(2016, 3, 15, 12, 30, 45, 123456789, time.UTC),
		time.Date(2016, 3, 15, 12, 30, 45, 120000000, berlin),
		time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.FixedZone("W", -7*3600-1800)),
		time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC),
		{},
	}
	mixed := []paradise.Value{paradise.Int(7), paradise.Float(2.5), paradise.String("seven<"), paradise.Bool(true),
		{}, paradise.Time(times[3]), paradise.Float(math.NaN())}

	n := len(floats)
	rows := make(paradise.Rows, 0, n+1)
	for k := 0; k < n; k++ {
		rows = append(rows, paradise.Row{
			paradise.Bool(k%2 == 0),
			paradise.Int(ints[k%len(ints)]),
			paradise.Float(floats[k]),
			paradise.String(strs[k%len(strs)]),
			paradise.Time(times[k%len(times)]),
			mixed[k%len(mixed)],
		})
	}
	// NULL in every column, typed and boxed.
	rows = append(rows, make(paradise.Row, len(wireRel.Columns)))
	for c, r := range []int{3, 5, 7, 9, 11} {
		rows[r][c] = paradise.Null()
	}
	return rows
}

// TestRowLineMatchesEncodingJSON: both entry points of the append-style
// encoder write, byte for byte, the line encoding/json wrote before them.
func TestRowLineMatchesEncodingJSON(t *testing.T) {
	rows := wireCorpus()
	var want []byte
	for _, r := range rows {
		line := oracleLine(t, r)
		want = append(want, line...)
		if got := appendRowLine(nil, r); !bytes.Equal(got, line) {
			t.Errorf("row entry point:\n got %s want %s", got, line)
		}
	}

	batch := schema.BatchFromRows(wireRel, rows)
	if v := batch.Vecs[5]; v.Box == nil {
		t.Fatal("the mixed column did not degrade to a boxed vector")
	}
	if v := batch.Vecs[2]; v.Box != nil || v.Nulls == nil {
		t.Fatalf("the float column should be typed with a NULL mask: boxed=%v nulls=%v", v.Box != nil, v.Nulls != nil)
	}
	if got := batchLines(batch); !bytes.Equal(got, want) {
		t.Errorf("batch entry point differs from the oracle:\n got %s\nwant %s", got, want)
	}

	t.Run("sel", func(t *testing.T) {
		refined := *batch
		var want []byte
		for i := len(rows) - 1; i >= 0; i -= 3 {
			refined.Sel = append([]int{i}, refined.Sel...)
		}
		for _, i := range refined.Sel {
			want = append(want, oracleLine(t, rows[i])...)
		}
		if got := batchLines(&refined); !bytes.Equal(got, want) {
			t.Errorf("Sel-refined batch:\n got %s\nwant %s", got, want)
		}
	})

	t.Run("zero width", func(t *testing.T) {
		const line = "{\"type\":\"row\"}\n"
		if got := oracleLine(t, paradise.Row{}); string(got) != line {
			t.Fatalf("oracle writes %q for a zero-width row", got)
		}
		if got := appendRowLine(nil, paradise.Row{}); string(got) != line {
			t.Errorf("row entry point: %q", got)
		}
		empty := &paradise.Batch{Rel: paradise.NewRelation("e"), N: 2}
		if got := batchLines(empty); string(got) != line+line {
			t.Errorf("batch entry point: %q", got)
		}
	})
}

// FuzzRowLine: for arbitrary cells, both entry points equal encoding/json.
// Seeds live in testdata/fuzz/FuzzRowLine; scripts/check.sh fuzzes for 10 s.
func FuzzRowLine(f *testing.F) {
	f.Add("alice", 0.5, int64(42), int64(1458045045123456789))
	f.Fuzz(func(t *testing.T, s string, fl float64, i, nanos int64) {
		row := paradise.Row{
			paradise.String(s), paradise.Float(fl), paradise.Int(i),
			paradise.Time(time.Unix(0, nanos).In(time.FixedZone("z", int(i%50400)))),
			paradise.Bool(i&1 == 0), {},
		}
		want := oracleLine(t, row)
		if got := appendRowLine(nil, row); !bytes.Equal(got, want) {
			t.Fatalf("row entry point:\n got %q\nwant %q", got, want)
		}
		rel := paradise.NewRelation("f",
			paradise.Col("s", paradise.TypeString), paradise.Col("f", paradise.TypeFloat),
			paradise.Col("i", paradise.TypeInt), paradise.Col("t", paradise.TypeTime),
			paradise.Col("b", paradise.TypeBool), paradise.Col("n", paradise.TypeInt))
		if got := batchLines(schema.BatchFromRows(rel, paradise.Rows{row})); !bytes.Equal(got, want) {
			t.Fatalf("batch entry point:\n got %q\nwant %q", got, want)
		}
	})
}
