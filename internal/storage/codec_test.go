package storage

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"testing"
	"time"

	"paradise/internal/schema"
)

// codecVec builds a vector of the declared type from the given values; a
// value of another type boxes it, a NULL gives it a mask.
func codecVec(typ schema.Type, vals ...schema.Value) schema.ColVec {
	v := schema.NewColVec(typ)
	for _, val := range vals {
		v.Append(val)
	}
	return v
}

// FuzzDecodeColVec feeds the column-region decoder arbitrary bytes under an
// arbitrary declared type and row count. It must return an error — which
// diskSegData.Load reports as errSegCorrupt — or a vector of exactly n
// elements, never panic, and whatever it accepts must re-encode to the very
// bytes it was given: no two byte strings decode to one vector, so a region
// that passes its CRC means one thing.
func FuzzDecodeColVec(f *testing.F) {
	ts := time.Unix(1458045045, 123456789).UTC()
	for _, v := range []schema.ColVec{
		codecVec(schema.TypeInt, schema.Int(1), schema.Int(-1<<63), schema.Int(1<<53+1)),
		codecVec(schema.TypeFloat, schema.Float(math.NaN()), schema.Float(math.Copysign(0, -1)), schema.Float(math.Inf(1))),
		codecVec(schema.TypeString, schema.String(""), schema.String("ok"), schema.String("a\x00b"), schema.String("日本語")),
		codecVec(schema.TypeString, schema.String("low_battery"), schema.Null(), schema.String("ok")),
		codecVec(schema.TypeBool, schema.Bool(true), schema.Null(), schema.Bool(false)),
		codecVec(schema.TypeTime, schema.Time(ts), schema.Time(time.Unix(0, math.MinInt64).UTC())),
		codecVec(schema.TypeInt, schema.Int(7), schema.String("boxed"), schema.Null(), schema.Float(2.5), schema.Bool(true), schema.Time(ts)),
		codecVec(schema.TypeFloat),
	} {
		n := v.Len()
		f.Add(encodeColVec(nil, &v, n), uint8(v.Typ), int32(n))
	}
	f.Add([]byte{colDense, 0x80, 0x00}, uint8(schema.TypeString), int32(1)) // overlong uvarint
	f.Add([]byte{colNulls, 2, 0}, uint8(schema.TypeBool), int32(1))         // mask byte not 0/1
	f.Add([]byte{colDense}, uint8(schema.TypeInt), int32(1<<30))            // count far beyond the bytes
	f.Add([]byte{colBoxed, 9}, uint8(schema.TypeInt), int32(1))             // unknown boxed tag

	f.Fuzz(func(t *testing.T, data []byte, typ uint8, n int32) {
		v, err := decodeColVec(data, schema.Type(typ), int(n))
		if err != nil {
			return
		}
		if v.Len() != int(n) {
			t.Fatalf("decoded %d elements, want %d", v.Len(), n)
		}
		if v.Nulls != nil && len(v.Nulls) != int(n) {
			t.Fatalf("decoded a mask of %d, want %d", len(v.Nulls), n)
		}
		if enc := encodeColVec(nil, &v, int(n)); !bytes.Equal(enc, data) {
			t.Fatalf("re-encoded to other bytes:\n in: %x\nout: %x", data, enc)
		}
	})
}

// TestCorruptRegionIsSegCorrupt pins the wrapping the fuzz target relies on:
// a region the decoder rejects reaches the scan as errSegCorrupt. The region
// is rewritten together with its CRC, so only decodeColVec can object.
func TestCorruptRegionIsSegCorrupt(t *testing.T) {
	b, err := NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data, err := b.Seal("r", 0, &SealedSegment{
		Rows: 2,
		Rel:  schema.NewRelation("r", schema.Col("s", schema.TypeString)),
		Cols: []schema.ColVec{codecVec(schema.TypeString, schema.String("v"), schema.String("w"))},
		Zone: make([]ZoneEntry, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	seg := data.(*diskSegData)
	if _, err := seg.Load(nil, false); err != nil {
		t.Fatalf("intact segment: %v", err)
	}
	raw, err := os.ReadFile(seg.path)
	if err != nil {
		t.Fatal(err)
	}
	col := &seg.footer.Cols[0]
	raw[col.Off+1] = 0x7f // the first string's length now overruns the region
	col.Crc = crc32.Checksum(raw[col.Off:col.Off+col.Len], crcTable)
	if err := os.WriteFile(seg.path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Load(nil, false); !errors.Is(err, errSegCorrupt) {
		t.Fatalf("Load = %v, want errSegCorrupt", err)
	}
}

// TestDecodeStringColumnAllocationBudget: a string column decodes into one
// backing string the values are sliced out of — the values slice, the backing
// string, nothing per row. At the parent commit this was 4 097 allocations.
func TestDecodeStringColumnAllocationBudget(t *testing.T) {
	const n = 4096
	v := schema.NewColVec(schema.TypeString)
	for i := 0; i < n; i++ {
		v.Append(schema.String(fmt.Sprintf("status-%d", i%7)))
	}
	region := encodeColVec(nil, &v, n)
	var got schema.ColVec
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if got, err = decodeColVec(region, schema.TypeString, n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("decoding a %d-row string column took %.0f allocations, budget 3", n, allocs)
	}
	for i := 0; i < n; i++ {
		if got.Strs[i] != v.Strs[i] {
			t.Fatalf("row %d: %q, want %q", i, got.Strs[i], v.Strs[i])
		}
	}
}
