package paradise_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	paradise "paradise"
	"paradise/internal/engine"
)

// genEpochMs mirrors cmd/gensensors: timestamps anchor at
// 2016-01-01T00:00:00Z and ascend by the reporting interval.
var genEpochMs = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC).UnixMilli()

// writeReadings generates the cmd/gensensors corpus shape — readings
// (sensor_id, t, temperature, humidity, battery, status), t in Unix
// milliseconds, strict time order — into a disk-backed store at dir, and
// returns the row count. Small segments make the pruning ratio visible at
// bench scale.
func writeReadings(tb testing.TB, dir string, sensors, ticks, segRows int) int {
	tb.Helper()
	store, err := paradise.NewStoreWith(paradise.StoreConfig{Dir: dir, SegmentRows: segRows})
	if err != nil {
		tb.Fatal(err)
	}
	tab, err := store.CreateTable(paradise.NewRelation("readings",
		paradise.SensitiveCol("sensor_id", paradise.TypeInt),
		paradise.Col("t", paradise.TypeInt),
		paradise.Col("temperature", paradise.TypeFloat),
		paradise.Col("humidity", paradise.TypeFloat),
		paradise.Col("battery", paradise.TypeFloat),
		paradise.Col("status", paradise.TypeString),
	))
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2016))
	statuses := []string{"ok", "ok", "ok", "ok", "degraded", "calibrating"}
	round2 := func(f float64) float64 { return math.Round(f*100) / 100 }
	total := 0
	var rows paradise.Rows
	for tick := 0; tick < ticks; tick++ {
		at := genEpochMs + int64(tick)*30_000
		drain := float64(tick) / float64(ticks)
		for s := 0; s < sensors; s++ {
			rows = append(rows, paradise.Row{
				paradise.Int(int64(s)),
				paradise.Int(at),
				paradise.Float(round2(20 + 2*rng.NormFloat64())),
				paradise.Float(round2(50 + 5*rng.NormFloat64())),
				paradise.Float(round2(100 - 60*drain)),
				paradise.String(statuses[rng.Intn(len(statuses))]),
			})
		}
		if len(rows) >= 4096 {
			if err := tab.Append(rows...); err != nil {
				tb.Fatal(err)
			}
			total += len(rows)
			rows = rows[:0]
		}
	}
	if err := tab.Append(rows...); err != nil {
		tb.Fatal(err)
	}
	total += len(rows)
	if err := store.Flush(); err != nil {
		tb.Fatal(err)
	}
	return total
}

// BenchmarkGensensorsPruning times a selective time-range scan over a
// disk-persisted gensensors-style corpus, where zone-map pruning skips
// every sealed segment before the range. The answer is checked against the
// count of generated rows in the range (20 ticks × 100 sensors) before
// timing; the logged skip rate is the fraction of sealed segments the zone
// maps discarded.
func BenchmarkGensensorsPruning(b *testing.B) {
	const (
		sensors = 100
		ticks   = 480 // 4h of 30s readings → 48000 rows
		segRows = 1024
		recent  = 20 // ticks in the queried range
	)
	dir := b.TempDir()
	writeReadings(b, dir, sensors, ticks, segRows)

	// The last 10 minutes of a 4-hour history: ~0.8% of rows.
	lo := genEpochMs + int64(ticks-recent)*30_000
	query := "SELECT COUNT(*) AS n FROM readings WHERE t >= " + itoa64(lo)

	st, err := paradise.NewStoreWith(paradise.StoreConfig{Dir: dir, SegmentRows: segRows})
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(st)
	got, err := eng.Query(context.Background(), query)
	if err != nil {
		b.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0][0].AsInt() != recent*sensors {
		b.Fatalf("pruned scan counted %v, want %d", got.Rows, recent*sensors)
	}
	if ss := st.StorageStats(); ss.SegmentsSkipped == 0 {
		b.Fatalf("pruning never fired: %+v", ss)
	} else {
		b.Logf("segments: %d total, %d skipped, %d scanned per query",
			ss.Segments, ss.SegmentsSkipped, ss.SegmentsScanned)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Query(context.Background(), query)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatal("bad result")
		}
	}
}

func itoa64(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
