package paradise_test

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	paradise "paradise"
)

// viewCorpus writes a 3,000-row readings table in 64-row segments (46
// sealed, the last one flushed: 47 segment files) and reopens it, so every
// scan reads from disk.
func viewCorpus(t *testing.T) (store *paradise.Store, dir string, rows int) {
	t.Helper()
	dir = t.TempDir()
	rows = writeReadings(t, dir, 30, 100, 64)
	store, err := paradise.NewStoreWith(paradise.StoreConfig{Dir: dir, SegmentRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	if segs := store.StorageStats().Segments; segs < 40 {
		t.Fatalf("corpus has %d segments, want at least 40", segs)
	}
	return store, dir, rows
}

// flipSensorID flips one payload byte of the sensor_id region of the
// seq-th segment file. sensor_id is the first column, so its region starts
// right after the 8-byte file magic; its first byte is the layout byte, and
// the ints follow. The footer's CRC still passes, so only a read of the
// region can notice.
func flipSensorID(t *testing.T, dir string, seq int) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "readings", "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	if seq >= len(files) {
		t.Fatalf("segment %d of %d", seq, len(files))
	}
	data, err := os.ReadFile(files[seq])
	if err != nil {
		t.Fatal(err)
	}
	data[8+1+3] ^= 0xff
	if err := os.WriteFile(files[seq], data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// queryErr runs sql to the end through a cursor and returns the first
// error from the pull, Close or Stats, in that order.
func queryErr(t *testing.T, store *paradise.Store, sql string) error {
	t.Helper()
	sess, err := paradise.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sess.Query(context.Background(), sql)
	if err != nil {
		return err
	}
	for cur.Next() {
	}
	if err := cur.Err(); err != nil {
		cur.Close()
		return err
	}
	if err := cur.Close(); err != nil {
		return err
	}
	_, err = cur.Stats()
	return err
}

// TestSensorScanDecodesOnlyWhatTheConsumerReads: the sensor stage of
// SELECT sensor_id FROM readings LIMIT 5 is SELECT * over the table, and
// the stage above stops after five rows. Only the first segment is
// decoded; the rest of the table is checksummed, not decoded, and that is
// no open. Stage 1 still accounts the whole table's rows and wire bytes,
// which is what the sensor ships.
func TestSensorScanDecodesOnlyWhatTheConsumerReads(t *testing.T) {
	store, _, n := viewCorpus(t)
	sess, err := paradise.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	_, wire, err := store.RelationStats("readings")
	if err != nil {
		t.Fatal(err)
	}
	before := store.StorageStats().SegmentsOpened
	cur, err := sess.Query(context.Background(), "SELECT sensor_id FROM readings LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drainCursor(t, cur)); got != 5 {
		t.Fatalf("%d rows, want 5", got)
	}
	stats, err := cur.Stats()
	if err != nil {
		t.Fatal(err)
	}
	opened := store.StorageStats().SegmentsOpened - before
	if opened > 1 {
		t.Fatalf("decoded %d segments for five rows of one column, want at most 1", opened)
	}
	s1 := stats.Assignments[0]
	if s1.OutRows != n || s1.OutBytes != wire {
		t.Fatalf("stage 1 ships %d rows / %d bytes, want the whole table: %d / %d", s1.OutRows, s1.OutBytes, n, wire)
	}
	if stats.RawBytes != wire {
		t.Fatalf("raw bytes %d, want %d", stats.RawBytes, wire)
	}
}

// TestSensorScanRotInUnreadColumnFails: a flipped byte in a column no stage
// reads still fails the query with the checksum error, attributed to the
// sensor stage that ships it — at one and at four workers.
func TestSensorScanRotInUnreadColumnFails(t *testing.T) {
	store, dir, _ := viewCorpus(t)
	flipSensorID(t, dir, 3)
	for _, sql := range []string{
		"SELECT temperature FROM readings",
		"SELECT status, AVG(temperature) AS a FROM readings GROUP BY status",
	} {
		for _, workers := range []int{1, 4} {
			sess, err := paradise.Open(store, paradise.WithParallelism(workers))
			if err != nil {
				t.Fatal(err)
			}
			cur, err := sess.Query(context.Background(), sql)
			if err == nil {
				for cur.Next() {
				}
				err = cur.Err()
				if cerr := cur.Close(); err == nil {
					err = cerr
				}
			}
			if err == nil {
				t.Fatalf("%q at %d workers: rotted sensor_id went unnoticed", sql, workers)
			}
			for _, want := range []string{"fragment: stage 1 (sensor scan)", `column "sensor_id" checksum mismatch`} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("%q at %d workers: error %q lacks %q", sql, workers, err, want)
				}
			}
		}
	}
}

// TestSensorScanRotBehindLimitSurfacesOnClose: a flipped byte in a segment
// the LIMIT never reaches surfaces from Close and Stats, because the
// sensor ships that segment whatever the consumer reads.
func TestSensorScanRotBehindLimitSurfacesOnClose(t *testing.T) {
	store, dir, _ := viewCorpus(t)
	flipSensorID(t, dir, 20)
	sess, err := paradise.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sess.Query(context.Background(), "SELECT sensor_id FROM readings LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for cur.Next() {
		rows++
	}
	if rows != 5 {
		t.Fatalf("pulled %d rows, want the five rows before the rot", rows)
	}
	// The end of the stream closes the chain, so the error may already be
	// the cursor's; Close reports it in any case.
	const want = `column "sensor_id" checksum mismatch`
	if err := cur.Close(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Close = %v (pull error %v), want %q", err, cur.Err(), want)
	}
	if _, err := cur.Stats(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Stats = %v, want %q", err, want)
	}
	if err := queryErr(t, store, "SELECT temperature FROM readings LIMIT 3"); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("a LIMIT over another column = %v, want %q", err, want)
	}
}
