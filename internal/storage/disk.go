package storage

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"math"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"paradise/internal/schema"
)

// DiskBackend is the append-only on-disk segment store: one file per
// sealed segment, written once and never modified. The layout keeps the
// hot path lazy and the recovery path footer-only:
//
//	<dir>/<table>/seg-000000.seg
//	┌──────────┬──────────────┬─────────────┬───────────────────────────┐
//	│ magic 8B │ col regions… │ JSON footer │ footerLen u32 · crc32 u32 │
//	│          │   (binary)   │             │ · magic 8B                │
//	└──────────┴──────────────┴─────────────┴───────────────────────────┘
//
// The footer carries everything but the rows: schema (names and types),
// zone maps, seal-time histograms, KMV sketches, and per-column region
// offsets with CRCs. Recovery therefore reads only trailers and footers —
// statistics and pruning state come back exactly without decoding one
// column — and scans decode individual columns on demand through a
// ReaderAt, so only the columns a query touches are ever read.
//
// Durability: segments are written to a temp file, fsynced, renamed into
// place, and the directory fsynced. RecoverAll admits only the contiguous
// valid prefix seg-0..seg-k; a torn or missing file truncates recovery
// there and deletes the remainder, which is exactly the
// last-sealed-segment semantics Append promises.
type DiskBackend struct {
	dir string
}

// NewDiskBackend opens (creating if needed) a segment directory.
func NewDiskBackend(dir string) (*DiskBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open segment dir: %w", err)
	}
	return &DiskBackend{dir: dir}, nil
}

const segMagic = "PDISESG1"

var errSegCorrupt = errors.New("storage: corrupt segment file")

// diskFooter is the JSON footer of one segment file. Floats travel as IEEE
// bit patterns (JSON cannot carry NaN/Inf) and zone-map strings as []byte
// (JSON mangles invalid UTF-8, and pruning bounds must round-trip exactly).
type diskFooter struct {
	Table string     `json:"table"`
	Rows  int        `json:"rows"`
	Wire  int        `json:"wire"`
	Cols  []diskCol  `json:"cols"`
	Zone  []diskZone `json:"zone"`
}

type diskCol struct {
	Name string `json:"name"`
	Type int    `json:"type"`
	// Off/Len locate the column's binary region; Crc is its CRC32
	// (Castagnoli), verified at decode time.
	Off int64  `json:"off"`
	Len int64  `json:"len"`
	Crc uint32 `json:"crc"`
	// Hist is the seal-time equi-width histogram (bit-pattern bounds).
	Hist *diskHist `json:"hist,omitempty"`
	// Sketch is the column's KMV NDV sketch.
	Sketch []uint64 `json:"sketch,omitempty"`
}

type diskHist struct {
	Min    uint64  `json:"min"`
	Max    uint64  `json:"max"`
	Counts []int64 `json:"counts"`
}

type diskZone struct {
	Rows, Nulls, NaNs                        int64
	HasNum                                   bool
	NumMin, NumMax                           uint64
	HasStr                                   bool
	StrMin, StrMax                           []byte
	Ints, Floats, Strs, Bools, Times, Others int64
	Bytes                                    int64
}

func zoneToDisk(z ZoneEntry) diskZone {
	return diskZone{
		Rows: z.Rows, Nulls: z.Nulls, NaNs: z.NaNs,
		HasNum: z.HasNum, NumMin: math.Float64bits(z.NumMin), NumMax: math.Float64bits(z.NumMax),
		HasStr: z.HasStr, StrMin: []byte(z.StrMin), StrMax: []byte(z.StrMax),
		Ints: z.Ints, Floats: z.Floats, Strs: z.Strs, Bools: z.Bools, Times: z.Times, Others: z.Others,
		Bytes: z.Bytes,
	}
}

func zoneFromDisk(d diskZone) ZoneEntry {
	return ZoneEntry{
		Rows: d.Rows, Nulls: d.Nulls, NaNs: d.NaNs,
		HasNum: d.HasNum, NumMin: math.Float64frombits(d.NumMin), NumMax: math.Float64frombits(d.NumMax),
		HasStr: d.HasStr, StrMin: string(d.StrMin), StrMax: string(d.StrMax),
		Ints: d.Ints, Floats: d.Floats, Strs: d.Strs, Bools: d.Bools, Times: d.Times, Others: d.Others,
		Bytes: d.Bytes,
	}
}

func histToDisk(h *Histogram) *diskHist {
	if h == nil {
		return nil
	}
	return &diskHist{
		Min:    math.Float64bits(h.Min),
		Max:    math.Float64bits(h.Max),
		Counts: append([]int64(nil), h.Counts...),
	}
}

func histFromDisk(d *diskHist) *Histogram {
	if d == nil {
		return nil
	}
	return &Histogram{
		Min:    math.Float64frombits(d.Min),
		Max:    math.Float64frombits(d.Max),
		Counts: append([]int64(nil), d.Counts...),
	}
}

// tableDir maps a table name to its directory, escaping anything the
// filesystem would choke on. Case-insensitive like the store's catalog.
func (b *DiskBackend) tableDir(table string) string {
	return filepath.Join(b.dir, url.PathEscape(strings.ToLower(table)))
}

func segFileName(seq int) string { return fmt.Sprintf("seg-%06d.seg", seq) }

// Seal writes one segment file durably and returns its lazy handle.
func (b *DiskBackend) Seal(table string, seq int, seg *SealedSegment) (SegmentData, error) {
	dir := b.tableDir(table)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	footer := diskFooter{
		Table: seg.Rel.Name,
		Rows:  seg.Rows,
		Wire:  seg.Wire,
		Cols:  make([]diskCol, len(seg.Cols)),
		Zone:  make([]diskZone, len(seg.Zone)),
	}
	for i, z := range seg.Zone {
		footer.Zone[i] = zoneToDisk(z)
	}

	var buf []byte
	buf = append(buf, segMagic...)
	for i := range seg.Cols {
		region := encodeColVec(nil, &seg.Cols[i], seg.Rows)
		dc := &footer.Cols[i]
		dc.Name = seg.Rel.Columns[i].Name
		dc.Type = int(seg.Rel.Columns[i].Type)
		dc.Off = int64(len(buf))
		dc.Len = int64(len(region))
		dc.Crc = crc32.Checksum(region, crcTable)
		if i < len(seg.Hists) {
			dc.Hist = histToDisk(seg.Hists[i])
		}
		if i < len(seg.Sketches) {
			dc.Sketch = seg.Sketches[i]
		}
		buf = append(buf, region...)
	}
	fj, err := json.Marshal(&footer)
	if err != nil {
		return nil, err
	}
	buf = append(buf, fj...)
	var trailer [16]byte
	binary.LittleEndian.PutUint32(trailer[0:], uint32(len(fj)))
	binary.LittleEndian.PutUint32(trailer[4:], crc32.Checksum(fj, crcTable))
	copy(trailer[8:], segMagic)
	buf = append(buf, trailer[:]...)

	path := filepath.Join(dir, segFileName(seq))
	if err := writeDurably(path, buf); err != nil {
		return nil, err
	}
	return &diskSegData{path: path, footer: &footer}, nil
}

// writeDurably writes a file via tmp + fsync + rename + dir fsync, so a
// crash leaves either no file or a complete one at the final name.
func writeDurably(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Drop removes every sealed segment of the table.
func (b *DiskBackend) Drop(table string) error {
	return os.RemoveAll(b.tableDir(table))
}

// RecoverAll scans the directory for previously sealed tables and returns
// each one's valid contiguous segment prefix, discarding (and deleting)
// anything after the first missing or invalid file — the clean-truncation
// guarantee after a mid-write crash.
func (b *DiskBackend) RecoverAll() ([]*RecoveredTable, error) {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []*RecoveredTable
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rt, err := b.recoverTable(filepath.Join(b.dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if rt != nil {
			out = append(out, rt)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rel.Name < out[j].Rel.Name })
	return out, nil
}

func (b *DiskBackend) recoverTable(dir string) (*RecoveredTable, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make(map[string]bool, len(entries))
	for _, e := range entries {
		n := e.Name()
		if strings.HasSuffix(n, ".tmp") {
			// A torn write that never reached rename: always garbage.
			os.Remove(filepath.Join(dir, n))
			continue
		}
		names[n] = true
	}
	var rt *RecoveredTable
	seq := 0
	for ; names[segFileName(seq)]; seq++ {
		path := filepath.Join(dir, segFileName(seq))
		footer, err := readFooter(path)
		if err != nil {
			if errors.Is(err, errSegCorrupt) {
				break // truncate recovery at the first torn segment
			}
			return nil, err
		}
		rel := relFromFooter(footer)
		if rt == nil {
			rt = &RecoveredTable{Rel: rel}
		} else if !sameRel(rt.Rel, rel) {
			break // schema drift across segments: trust the earlier prefix
		}
		seg := &RecoveredSegment{
			Rows:     footer.Rows,
			Wire:     footer.Wire,
			Zone:     make([]ZoneEntry, len(footer.Zone)),
			Hists:    make([]*Histogram, len(footer.Cols)),
			Sketches: make([][]uint64, len(footer.Cols)),
			Data:     &diskSegData{path: path, footer: footer},
		}
		for i, z := range footer.Zone {
			seg.Zone[i] = zoneFromDisk(z)
		}
		for i := range footer.Cols {
			seg.Hists[i] = histFromDisk(footer.Cols[i].Hist)
			seg.Sketches[i] = footer.Cols[i].Sketch
		}
		rt.Segments = append(rt.Segments, seg)
	}
	// Everything at or after the truncation point is unreachable: delete it
	// so a later seal at that seq can never be shadowed by stale data.
	for n := range names {
		if !strings.HasPrefix(n, "seg-") || !strings.HasSuffix(n, ".seg") {
			continue
		}
		var k int
		if _, err := fmt.Sscanf(n, "seg-%06d.seg", &k); err == nil && k >= seq {
			os.Remove(filepath.Join(dir, n))
		}
	}
	if rt == nil {
		os.Remove(dir) // best-effort: an empty table dir carries no state
		return nil, nil
	}
	return rt, nil
}

func relFromFooter(f *diskFooter) *schema.Relation {
	rel := &schema.Relation{Name: f.Table, Columns: make([]schema.Column, len(f.Cols))}
	for i, c := range f.Cols {
		rel.Columns[i] = schema.Column{Name: c.Name, Type: schema.Type(c.Type)}
	}
	return rel
}

func sameRel(a, b *schema.Relation) bool {
	if !strings.EqualFold(a.Name, b.Name) || len(a.Columns) != len(b.Columns) {
		return false
	}
	for i := range a.Columns {
		if !strings.EqualFold(a.Columns[i].Name, b.Columns[i].Name) || a.Columns[i].Type != b.Columns[i].Type {
			return false
		}
	}
	return true
}

// readFooter validates a segment file's framing (magics, trailer, footer
// CRC, region bounds) and parses the footer. Structural damage returns
// errSegCorrupt; I/O failure returns the underlying error.
func readFooter(path string) (*diskFooter, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(len(segMagic))+16 {
		return nil, fmt.Errorf("%w: %s: too short", errSegCorrupt, path)
	}
	var head [8]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return nil, err
	}
	if string(head[:]) != segMagic {
		return nil, fmt.Errorf("%w: %s: bad header magic", errSegCorrupt, path)
	}
	var trailer [16]byte
	if _, err := f.ReadAt(trailer[:], size-16); err != nil {
		return nil, err
	}
	if string(trailer[8:]) != segMagic {
		return nil, fmt.Errorf("%w: %s: bad trailer magic", errSegCorrupt, path)
	}
	flen := int64(binary.LittleEndian.Uint32(trailer[0:]))
	fcrc := binary.LittleEndian.Uint32(trailer[4:])
	if flen <= 0 || flen > size-16-int64(len(segMagic)) {
		return nil, fmt.Errorf("%w: %s: bad footer length", errSegCorrupt, path)
	}
	fj := make([]byte, flen)
	if _, err := f.ReadAt(fj, size-16-flen); err != nil {
		return nil, err
	}
	if crc32.Checksum(fj, crcTable) != fcrc {
		return nil, fmt.Errorf("%w: %s: footer checksum mismatch", errSegCorrupt, path)
	}
	var footer diskFooter
	if err := json.Unmarshal(fj, &footer); err != nil {
		return nil, fmt.Errorf("%w: %s: footer: %v", errSegCorrupt, path, err)
	}
	if footer.Rows < 0 || len(footer.Zone) != len(footer.Cols) {
		return nil, fmt.Errorf("%w: %s: inconsistent footer", errSegCorrupt, path)
	}
	for _, c := range footer.Cols {
		if c.Off < int64(len(segMagic)) || c.Len < 0 || c.Off+c.Len > size-16-flen {
			return nil, fmt.Errorf("%w: %s: column region out of bounds", errSegCorrupt, path)
		}
	}
	return &footer, nil
}

// diskSegData lazily decodes one on-disk segment. Load opens the file per
// call (concurrent Loads never share state), reads only the requested
// column regions — every region, with check — and verifies each against
// its footer CRC.
type diskSegData struct {
	path   string
	footer *diskFooter
}

func (d *diskSegData) Load(cols []int, check bool) ([]schema.ColVec, error) {
	if cols == nil {
		cols = make([]int, len(d.footer.Cols))
		for i := range cols {
			cols[i] = i
		}
	}
	for _, c := range cols {
		if c < 0 || c >= len(d.footer.Cols) {
			return nil, fmt.Errorf("%w: %s: column %d out of range", errSegCorrupt, d.path, c)
		}
	}
	f, err := os.Open(d.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make([]schema.ColVec, len(cols))
	if !check {
		for k, c := range cols {
			if out[k], err = d.decode(f, c); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	// Every region in schema order, so a damaged segment fails on the same
	// column a full-width Load would; the unselected ones are checksummed
	// through one scratch buffer and never decoded.
	want := make([][]int, len(d.footer.Cols)) // column -> its positions in out
	for k, c := range cols {
		want[c] = append(want[c], k)
	}
	var scratch []byte
	for c, ks := range want {
		if len(ks) == 0 {
			if scratch, err = d.region(f, c, scratch); err != nil {
				return nil, err
			}
			continue
		}
		v, err := d.decode(f, c)
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			out[k] = v
		}
	}
	return out, nil
}

// region reads column c's region into buf (reallocated when too small) and
// verifies it against the footer CRC.
func (d *diskSegData) region(f *os.File, c int, buf []byte) ([]byte, error) {
	meta := d.footer.Cols[c]
	if int64(cap(buf)) < meta.Len {
		buf = make([]byte, meta.Len)
	}
	buf = buf[:meta.Len]
	if _, err := f.ReadAt(buf, meta.Off); err != nil {
		return nil, err
	}
	if crc32.Checksum(buf, crcTable) != meta.Crc {
		return nil, fmt.Errorf("%w: %s: column %q checksum mismatch", errSegCorrupt, d.path, meta.Name)
	}
	return buf, nil
}

// decode reads, verifies and decodes column c into a fresh region buffer.
func (d *diskSegData) decode(f *os.File, c int) (schema.ColVec, error) {
	meta := d.footer.Cols[c]
	region, err := d.region(f, c, nil)
	if err != nil {
		return schema.ColVec{}, err
	}
	v, err := decodeColVec(region, schema.Type(meta.Type), d.footer.Rows)
	if err != nil {
		return schema.ColVec{}, fmt.Errorf("%w: %s: column %q: %v", errSegCorrupt, d.path, meta.Name, err)
	}
	return v, nil
}

// Column region encoding: one layout byte, then the payload.
//
//	layout 0: typed dense    — payload only
//	layout 1: typed + nulls  — n null bytes, then payload
//	layout 2: boxed          — n tagged values
//
// Payloads are fixed-width little-endian for ints/floats/bools/times
// (times as UnixNano; the wall clock is what group keys and comparisons
// use, so dropping the monotonic reading is lossless here) and
// uvarint-length-prefixed bytes for strings. Floats round-trip by bit
// pattern, NaNs included.
const (
	colDense byte = 0
	colNulls byte = 1
	colBoxed byte = 2
)

func encodeColVec(dst []byte, v *schema.ColVec, n int) []byte {
	if v.Boxed() {
		dst = append(dst, colBoxed)
		for i := 0; i < n; i++ {
			dst = encodeValue(dst, v.Box[i])
		}
		return dst
	}
	if v.Nulls != nil {
		dst = append(dst, colNulls)
		for i := 0; i < n; i++ {
			if v.Nulls[i] {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	} else {
		dst = append(dst, colDense)
	}
	switch v.Typ {
	case schema.TypeBool:
		for i := 0; i < n; i++ {
			if v.Bools[i] {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	case schema.TypeInt:
		for i := 0; i < n; i++ {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Ints[i]))
		}
	case schema.TypeFloat:
		for i := 0; i < n; i++ {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Floats[i]))
		}
	case schema.TypeString:
		for i := 0; i < n; i++ {
			dst = binary.AppendUvarint(dst, uint64(len(v.Strs[i])))
			dst = append(dst, v.Strs[i]...)
		}
	case schema.TypeTime:
		for i := 0; i < n; i++ {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Times[i].UnixNano()))
		}
	}
	return dst
}

// decodeColVec is the inverse of encodeColVec over exactly one region: it
// returns a vector of n elements or an error, never panics whatever the
// bytes, and accepts only what the encoder writes — mask and bool bytes are
// 0 or 1, string lengths minimal uvarints, nothing trails the last element —
// so a region that decodes re-encodes to the same bytes (FuzzDecodeColVec).
// Every count is checked against the bytes present before anything of that
// size is allocated.
func decodeColVec(src []byte, typ schema.Type, n int) (schema.ColVec, error) {
	if len(src) < 1 {
		return schema.ColVec{}, errors.New("empty region")
	}
	if n < 0 {
		return schema.ColVec{}, fmt.Errorf("negative row count %d", n)
	}
	layout := src[0]
	src = src[1:]
	v := schema.NewColVec(typ)
	if layout == colBoxed {
		if n > len(src) { // a boxed value is at least its tag byte
			return schema.ColVec{}, errors.New("truncated boxed payload")
		}
		box := make([]schema.Value, n)
		for i := 0; i < n; i++ {
			var err error
			box[i], src, err = decodeValue(src)
			if err != nil {
				return schema.ColVec{}, err
			}
		}
		if len(src) != 0 {
			return schema.ColVec{}, errors.New("trailing bytes")
		}
		v.Box = box
		return v, nil
	}
	var nulls []bool
	if layout == colNulls {
		if len(src) < n {
			return schema.ColVec{}, errors.New("truncated null mask")
		}
		var err error
		if nulls, err = decodeBools(src[:n]); err != nil {
			return schema.ColVec{}, err
		}
		src = src[n:]
	} else if layout != colDense {
		return schema.ColVec{}, fmt.Errorf("unknown layout %d", layout)
	}
	v.Nulls = nulls
	width := 8 // bytes per element; 0: variable (strings, at least one each)
	switch typ {
	case schema.TypeBool:
		width = 1
	case schema.TypeString:
		width = 0
	case schema.TypeInt, schema.TypeFloat, schema.TypeTime:
	default:
		return schema.ColVec{}, fmt.Errorf("undecodable declared type %v", typ)
	}
	// n <= len(src) also keeps width*n from overflowing.
	if n > len(src) || (width > 0 && width*n != len(src)) {
		return schema.ColVec{}, fmt.Errorf("%d payload bytes do not hold %d rows of %v", len(src), n, typ)
	}
	switch typ {
	case schema.TypeBool:
		var err error
		if v.Bools, err = decodeBools(src); err != nil {
			return schema.ColVec{}, err
		}
	case schema.TypeInt:
		v.Ints = make([]int64, n)
		for i := range v.Ints {
			v.Ints[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case schema.TypeFloat:
		v.Floats = make([]float64, n)
		for i := range v.Floats {
			v.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case schema.TypeString:
		// One backing string for the whole region, the values sliced out of
		// it: two allocations a column instead of one a row.
		whole := string(src)
		v.Strs = make([]string, n)
		off := 0
		for i := range v.Strs {
			l, k := binary.Uvarint(src[off:])
			if k <= 0 || uint64(len(src)-off-k) < l || (k > 1 && src[off+k-1] == 0) {
				return schema.ColVec{}, errors.New("truncated string payload")
			}
			off += k
			v.Strs[i] = whole[off : off+int(l)]
			off += int(l)
		}
		if off != len(src) {
			return schema.ColVec{}, errors.New("trailing bytes")
		}
	case schema.TypeTime:
		v.Times = make([]time.Time, n)
		for i := range v.Times {
			ns := int64(binary.LittleEndian.Uint64(src[8*i:]))
			v.Times[i] = time.Unix(0, ns).UTC()
		}
	}
	return v, nil
}

// decodeBools decodes a mask or bool payload, one 0/1 byte per element.
func decodeBools(src []byte) ([]bool, error) {
	out := make([]bool, len(src))
	for i, b := range src {
		if b > 1 {
			return nil, fmt.Errorf("byte %d is not a boolean", b)
		}
		out[i] = b == 1
	}
	return out, nil
}

// Boxed values are tagged: one type byte, then the value's payload in the
// same encodings as typed columns. Tag 0 is NULL.
func encodeValue(dst []byte, val schema.Value) []byte {
	t := val.Type()
	dst = append(dst, byte(t))
	switch t {
	case schema.TypeNull:
	case schema.TypeBool:
		if val.AsBool() {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case schema.TypeInt:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(val.AsInt()))
	case schema.TypeFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(val.AsFloat()))
	case schema.TypeString:
		dst = binary.AppendUvarint(dst, uint64(len(val.AsString())))
		dst = append(dst, val.AsString()...)
	case schema.TypeTime:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(val.AsTime().UnixNano()))
	}
	return dst
}

func decodeValue(src []byte) (schema.Value, []byte, error) {
	if len(src) < 1 {
		return schema.Value{}, nil, errors.New("truncated boxed value")
	}
	t := schema.Type(src[0])
	src = src[1:]
	switch t {
	case schema.TypeNull:
		return schema.Value{}, src, nil
	case schema.TypeBool:
		if len(src) < 1 {
			return schema.Value{}, nil, errors.New("truncated boxed bool")
		}
		if src[0] > 1 {
			return schema.Value{}, nil, fmt.Errorf("boxed byte %d is not a boolean", src[0])
		}
		return schema.Bool(src[0] == 1), src[1:], nil
	case schema.TypeInt:
		if len(src) < 8 {
			return schema.Value{}, nil, errors.New("truncated boxed int")
		}
		return schema.Int(int64(binary.LittleEndian.Uint64(src))), src[8:], nil
	case schema.TypeFloat:
		if len(src) < 8 {
			return schema.Value{}, nil, errors.New("truncated boxed float")
		}
		return schema.Float(math.Float64frombits(binary.LittleEndian.Uint64(src))), src[8:], nil
	case schema.TypeString:
		l, k := binary.Uvarint(src)
		if k <= 0 || uint64(len(src)-k) < l || (k > 1 && src[k-1] == 0) {
			return schema.Value{}, nil, errors.New("truncated boxed string")
		}
		return schema.String(string(src[k : k+int(l)])), src[k+int(l):], nil
	case schema.TypeTime:
		if len(src) < 8 {
			return schema.Value{}, nil, errors.New("truncated boxed time")
		}
		ns := int64(binary.LittleEndian.Uint64(src))
		return schema.Time(time.Unix(0, ns).UTC()), src[8:], nil
	}
	return schema.Value{}, nil, fmt.Errorf("unknown boxed tag %d", t)
}
