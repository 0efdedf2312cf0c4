package storage

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"paradise/internal/schema"
)

// mixedRelation covers every value type the zone maps summarize,
// including the hostile corners: NaN floats, invalid-UTF-8 strings,
// NULLs in every column.
func mixedRelation() *schema.Relation {
	return schema.NewRelation("mix",
		schema.Col("i", schema.TypeInt),
		schema.Col("f", schema.TypeFloat),
		schema.Col("s", schema.TypeString),
		schema.Col("b", schema.TypeBool),
		schema.Col("ts", schema.TypeTime),
	)
}

// mixedRows builds a deterministic n-row corpus over mixedRelation. Rows
// are loosely time-ordered in i (runs of ascending values with jitter), so
// zone maps are tight enough to prune but overlap enough to exercise the
// admission path too.
func mixedRows(n int, seed int64) schema.Rows {
	rng := rand.New(rand.NewSource(seed))
	epoch := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	strs := []string{"alpha", "beta", "gamma", "", "z\xff\xfe", "délta"}
	rows := make(schema.Rows, 0, n)
	for k := 0; k < n; k++ {
		var i, f, s, b, ts schema.Value
		switch {
		case rng.Intn(20) == 0:
			i = schema.Null()
		default:
			i = schema.Int(int64(k) + int64(rng.Intn(5)))
		}
		switch r := rng.Intn(20); {
		case r == 0:
			f = schema.Null()
		case r == 1:
			f = schema.Float(math.NaN())
		default:
			f = schema.Float(float64(k%97) + rng.Float64())
		}
		if rng.Intn(15) == 0 {
			s = schema.Null()
		} else {
			s = schema.String(strs[rng.Intn(len(strs))])
		}
		if rng.Intn(10) == 0 {
			b = schema.Null()
		} else {
			b = schema.Bool(rng.Intn(2) == 0)
		}
		if rng.Intn(25) == 0 {
			ts = schema.Null()
		} else {
			ts = schema.Time(epoch.Add(time.Duration(k) * time.Second))
		}
		rows = append(rows, schema.Row{i, f, s, b, ts})
	}
	return rows
}

// cellEqual compares two cells, treating NaN as equal to NaN (Identical
// follows SQL comparison, under which NaN != NaN).
func cellEqual(a, b schema.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	if a.Type() == schema.TypeFloat && b.Type() == schema.TypeFloat &&
		math.IsNaN(a.AsFloat()) && math.IsNaN(b.AsFloat()) {
		return true
	}
	return a.Identical(b)
}

func rowsIdentical(t *testing.T, label string, got, want schema.Rows) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d", label, len(got), len(want))
	}
	for r := range got {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("%s: row %d arity %d, want %d", label, r, len(got[r]), len(want[r]))
		}
		for c := range got[r] {
			if !cellEqual(got[r][c], want[r][c]) {
				t.Fatalf("%s: row %d col %d: got %s, want %s",
					label, r, c, got[r][c].Format(), want[r][c].Format())
			}
		}
	}
}

func drainBatches(t *testing.T, it schema.ColIterator) schema.Rows {
	t.Helper()
	defer it.Close()
	var out schema.Rows
	for {
		cb, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if cb == nil {
			return out
		}
		out = append(out, cb.Rows()...)
	}
}

// fillTable loads rows into a fresh table under the given config,
// appending in small irregular chunks so seals land mid-append too.
func fillTable(t *testing.T, cfg Config, rel *schema.Relation, rows schema.Rows) (*Store, *Table) {
	t.Helper()
	st, err := NewStoreWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := st.CreateTable(rel)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(rows); {
		n := 13
		if off+n > len(rows) {
			n = len(rows) - off
		}
		if err := tab.Append(rows[off : off+n]...); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	return st, tab
}

// TestSegmentedEquivalence is the tentpole soundness suite: the same
// corpus stored at segment sizes {1, 7, 256, one-segment}, in memory and on
// disk, yields identical rows in identical order on every scan surface — and
// identical table statistics.
func TestSegmentedEquivalence(t *testing.T) {
	const n = 600
	rel := mixedRelation()
	rows := mixedRows(n, 42)

	// Reference: monolithic (everything in the active tail).
	_, ref := fillTable(t, Config{SegmentRows: n + 1}, rel, rows)
	wantAll := drainBatches(t, ref.ScanColumns(context.Background(), schema.ColScan{}))
	rowsIdentical(t, "reference snapshot", wantAll, rows)

	preds := []schema.ColPred{
		{Op: schema.PredGe, Col: 0, RCol: -1, Lit: schema.Int(300)},
		{Op: schema.PredLt, Col: 0, RCol: -1, Lit: schema.Int(450)},
	}

	for _, segRows := range []int{1, 7, 256, n + 1} {
		for _, disk := range []bool{false, true} {
			cfg := Config{SegmentRows: segRows}
			if disk {
				b, err := NewDiskBackend(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				cfg.Backend = b
			}
			label := func(what string) string {
				back := "mem"
				if disk {
					back = "disk"
				}
				return what + " seg=" + itoa(segRows) + " " + back
			}
			_, tab := fillTable(t, cfg, rel, rows)

			rowsIdentical(t, label("ScanColumns full width"), drainBatches(t, tab.ScanColumns(context.Background(), schema.ColScan{})), wantAll)
			snap, err := tab.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			rowsIdentical(t, label("Snapshot"), snap, wantAll)

			got := drainBatches(t, tab.ScanColumns(context.Background(), schema.ColScan{Columns: []int{2, 0}}))
			want := make(schema.Rows, len(rows))
			for i, r := range rows {
				want[i] = schema.Row{r[2], r[0]}
			}
			rowsIdentical(t, label("ScanColumns"), got, want)

			// A predicate scan admits a subset of segments; every row
			// matching the predicate must still be present, in order.
			admitted := drainBatches(t, tab.ScanColumns(context.Background(),
				schema.ColScan{Predicate: preds}))
			assertMatchesPresent(t, label("pruned scan"), rows, preds, admitted)

			// Morsels claim segment-aligned chunks; the union of all
			// claims re-assembled by sequence is the full relation.
			ms := tab.ScanColMorsels(context.Background(), schema.ColScan{BatchSize: 32})
			bySeq := map[int]schema.Rows{}
			var seqs []int
			for {
				cm, err := ms.NextColMorsel()
				if err != nil {
					t.Fatal(err)
				}
				if cm.Batch == nil {
					break
				}
				bySeq[cm.Seq] = cm.Batch.Rows()
				seqs = append(seqs, cm.Seq)
			}
			ms.Close()
			var union schema.Rows
			for i := 0; i < len(seqs); i++ {
				union = append(union, bySeq[i]...)
			}
			rowsIdentical(t, label("morsels"), union, wantAll)

			// Statistics are layout-independent: same row counts, null
			// counts, min/max per column as the monolithic reference.
			sameColumnStats(t, label("stats"), tab.Stats(), ref.Stats())
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func sameColumnStats(t *testing.T, label string, got, want TableStats) {
	t.Helper()
	if got.Rows != want.Rows || got.Bytes != want.Bytes {
		t.Fatalf("%s: table rows/bytes %d/%d, want %d/%d",
			label, got.Rows, got.Bytes, want.Rows, want.Bytes)
	}
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: %d columns, want %d", label, len(got.Cols), len(want.Cols))
	}
	for i := range got.Cols {
		g, w := got.Cols[i], want.Cols[i]
		if g.Nulls != w.Nulls || g.Bytes != w.Bytes {
			t.Fatalf("%s: col %s: nulls/bytes %d/%d, want %d/%d",
				label, g.Name, g.Nulls, g.Bytes, w.Nulls, w.Bytes)
		}
		if g.NDV != w.NDV {
			t.Fatalf("%s: col %s: ndv %d, want %d", label, g.Name, g.NDV, w.NDV)
		}
		if g.HasRange != w.HasRange || (g.HasRange && (g.Min != w.Min || g.Max != w.Max)) {
			t.Fatalf("%s: col %s: range [%v,%v], want [%v,%v]",
				label, g.Name, g.Min, g.Max, w.Min, w.Max)
		}
	}
}

// predOutcome is the reference evaluation of one conjunct on one row.
type predOutcome int

const (
	outTrue predOutcome = iota
	outFalse
	outNull
	outError
)

// evalPredRef mirrors the kernel comparison semantics row-at-a-time:
// NULL operands yield NULL, incomparable operands (NaN, cross-type)
// yield an error, everything else a boolean.
func evalPredRef(row schema.Row, p schema.ColPred) predOutcome {
	v := row[p.Col]
	switch p.Op {
	case schema.PredIsNull:
		if v.IsNull() {
			return outTrue
		}
		return outFalse
	case schema.PredNotNull:
		if v.IsNull() {
			return outFalse
		}
		return outTrue
	}
	rhs := p.Lit
	if p.RCol >= 0 {
		rhs = row[p.RCol]
	}
	if v.IsNull() || rhs.IsNull() {
		return outNull
	}
	c, ok := v.Compare(rhs)
	if !ok {
		return outError
	}
	var res bool
	switch p.Op {
	case schema.PredEq:
		res = c == 0
	case schema.PredNe:
		res = c != 0
	case schema.PredLt:
		res = c < 0
	case schema.PredLe:
		res = c <= 0
	case schema.PredGt:
		res = c > 0
	case schema.PredGe:
		res = c >= 0
	}
	if res {
		return outTrue
	}
	return outFalse
}

// rowNeeded reports whether a pruned scan MUST return the row: it matches
// the whole conjunction, or its left-to-right evaluation errors (the
// unpruned scan would surface that error, so the segment cannot vanish).
func rowNeeded(row schema.Row, preds []schema.ColPred) bool {
	sawNull := false
	for _, p := range preds {
		switch evalPredRef(row, p) {
		case outError:
			return true
		case outFalse:
			return false
		case outNull:
			sawNull = true
		}
	}
	return !sawNull
}

// assertMatchesPresent checks the pruning soundness invariant: every row
// the predicate needs appears in the admitted output, in corpus order.
func assertMatchesPresent(t *testing.T, label string, corpus schema.Rows, preds []schema.ColPred, admitted schema.Rows) {
	t.Helper()
	next := 0
	for ri, row := range corpus {
		if !rowNeeded(row, preds) {
			continue
		}
		found := false
		for ; next < len(admitted); next++ {
			hit := true
			for c := range row {
				if !cellEqual(admitted[next][c], row[c]) {
					hit = false
					break
				}
			}
			if hit {
				found = true
				next++
				break
			}
		}
		if !found {
			t.Fatalf("%s: corpus row %d matches the predicate but a pruned segment dropped it", label, ri)
		}
	}
}

// TestZonePruneFuzz hammers the soundness rule with random data and random
// predicates: across every trial, no segment that was skipped may have
// contained a row the predicate needed. It also checks the test has teeth:
// pruning must actually fire across the run.
func TestZonePruneFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	rel := mixedRelation()
	skippedTotal := int64(0)
	for trial := 0; trial < 60; trial++ {
		n := 50 + rng.Intn(400)
		rows := mixedRows(n, rng.Int63())
		_, tab := fillTable(t, Config{SegmentRows: 16}, rel, rows)

		preds := randomPreds(rng)
		admitted := drainBatches(t, tab.ScanColumns(context.Background(),
			schema.ColScan{Predicate: preds}))
		assertMatchesPresent(t, "fuzz", rows, preds, admitted)
		skippedTotal += tab.segsSkipped.Load()
	}
	if skippedTotal == 0 {
		t.Fatal("fuzz never skipped a segment: the pruning path was not exercised")
	}
}

// randomPreds draws one or two conjuncts over the mixed relation, biased
// toward selective ranges on the quasi-ordered columns so pruning fires.
func randomPreds(rng *rand.Rand) []schema.ColPred {
	one := func() schema.ColPred {
		ops := []schema.PredOp{schema.PredEq, schema.PredNe, schema.PredLt,
			schema.PredLe, schema.PredGt, schema.PredGe}
		op := ops[rng.Intn(len(ops))]
		switch rng.Intn(6) {
		case 0: // int range
			return schema.ColPred{Op: op, Col: 0, RCol: -1, Lit: schema.Int(int64(rng.Intn(500)))}
		case 1: // float range (sometimes a NaN literal)
			lit := schema.Float(float64(rng.Intn(100)))
			if rng.Intn(12) == 0 {
				lit = schema.Float(math.NaN())
			}
			return schema.ColPred{Op: op, Col: 1, RCol: -1, Lit: lit}
		case 2: // string
			strs := []string{"alpha", "beta", "m", "z\xff", ""}
			return schema.ColPred{Op: op, Col: 2, RCol: -1, Lit: schema.String(strs[rng.Intn(len(strs))])}
		case 3: // cross-type: int column vs string literal (always errors)
			return schema.ColPred{Op: op, Col: 0, RCol: -1, Lit: schema.String("oops")}
		case 4: // column vs column (int vs float)
			return schema.ColPred{Op: op, Col: 0, RCol: 1}
		default: // null tests
			nops := []schema.PredOp{schema.PredIsNull, schema.PredNotNull}
			return schema.ColPred{Op: nops[rng.Intn(2)], Col: rng.Intn(5), RCol: -1}
		}
	}
	preds := []schema.ColPred{one()}
	if rng.Intn(2) == 0 {
		preds = append(preds, one())
	}
	return preds
}
