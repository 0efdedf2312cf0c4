package storage

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"paradise/internal/schema"
)

// diskStore builds a disk-backed store over dir with small segments and
// loads the mixed corpus, flushing the final partial tail so every row is
// durable.
func diskStore(t *testing.T, dir string, rows schema.Rows) *Store {
	t.Helper()
	b, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStoreWith(Config{SegmentRows: 64, Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := st.CreateTable(mixedRelation())
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(rows...); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return st
}

// reopen recovers a store from the same directory, as a restart would.
func reopen(t *testing.T, dir string) *Store {
	t.Helper()
	b, err := NewDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStoreWith(Config{SegmentRows: 64, Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".seg" {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// TestDiskRoundTrip: a flushed disk store reopens with identical rows
// (order included), identical statistics, and working scans — without the
// original process's in-memory state.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rows := mixedRows(500, 7)
	orig := diskStore(t, dir, rows)
	origTab, err := orig.Table("mix")
	if err != nil {
		t.Fatal(err)
	}

	re := reopen(t, dir)
	tab, err := re.Table("mix")
	if err != nil {
		t.Fatal(err)
	}
	rowsIdentical(t, "recovered scan", drainBatches(t, tab.ScanColumns(context.Background(), schema.ColScan{})), rows)
	sameColumnStats(t, "recovered stats", tab.Stats(), origTab.Stats())

	// Appends continue after recovery and the next seal does not collide
	// with recovered segment files.
	extra := mixedRows(100, 8)
	if err := tab.Append(extra...); err != nil {
		t.Fatal(err)
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	re2 := reopen(t, dir)
	tab2, err := re2.Table("mix")
	if err != nil {
		t.Fatal(err)
	}
	rowsIdentical(t, "append after recovery",
		drainBatches(t, tab2.ScanColumns(context.Background(), schema.ColScan{})), append(append(schema.Rows{}, rows...), extra...))
}

// corruptions maps a name to a mutation of the on-disk segment files.
var corruptions = map[string]func(t *testing.T, files []string){
	// A torn write: the last segment file lost its trailer half.
	"torn tail": func(t *testing.T, files []string) {
		last := files[len(files)-1]
		fi, err := os.Stat(last)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(last, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
	},
	// Trailing garbage after a valid image: the trailer no longer sits at
	// the end of the file.
	"trailing garbage": func(t *testing.T, files []string) {
		f, err := os.OpenFile(files[len(files)-1], os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("junkjunkjunk")); err != nil {
			t.Fatal(err)
		}
		f.Close()
	},
	// A missing segment in the middle: recovery keeps only the contiguous
	// prefix before the hole.
	"missing middle": func(t *testing.T, files []string) {
		if err := os.Remove(files[1]); err != nil {
			t.Fatal(err)
		}
	},
	// An abandoned temp file from a crashed seal: cleaned up, harmless.
	"stale tmp": func(t *testing.T, files []string) {
		dir := filepath.Dir(files[0])
		if err := os.WriteFile(filepath.Join(dir, "seg-000099.seg.tmp"), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	},
}

// TestDiskBitRotSurfacesOnScan: a flipped byte inside a column region is
// invisible to footer-only recovery (the footer checksum still passes) but
// must surface as a checksum error the moment the region is decoded —
// never as silently wrong data, and never as silently missing rows from
// the materialized Relation.
func TestDiskBitRotSurfacesOnScan(t *testing.T) {
	dir := t.TempDir()
	rows := mixedRows(300, 11)
	diskStore(t, dir, rows)
	files := segFiles(t, dir)
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(segMagic)+3] ^= 0xff
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	re := reopen(t, dir)
	tab, err := re.Table("mix")
	if err != nil {
		t.Fatal(err)
	}
	if _, rows, err := re.Relation("mix"); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("Relation over a rotted segment: %d rows, err %v; want a checksum error", len(rows), err)
	}
	it := tab.ScanColumns(context.Background(), schema.ColScan{})
	defer it.Close()
	for {
		b, err := it.NextBatch()
		if err != nil {
			if !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("want a checksum error, got %v", err)
			}
			return
		}
		if b == nil {
			t.Fatal("bit rot went undetected: scan completed cleanly")
		}
	}
}

// TestDiskCrashRecovery: every corruption of the segment directory
// recovers to a clean prefix — the table serves exactly the rows of the
// segments before the first damaged one, the damaged files (and everything
// after them) are deleted, and ingest resumes cleanly.
func TestDiskCrashRecovery(t *testing.T) {
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			rows := mixedRows(300, 11) // 300 rows / 64-row segments = 4 sealed + tail flushed
			diskStore(t, dir, rows)
			files := segFiles(t, dir)
			if len(files) < 3 {
				t.Fatalf("want >= 3 segment files, got %d", len(files))
			}
			corrupt(t, files)

			re := reopen(t, dir)
			tab, err := re.Table("mix")
			if err != nil {
				t.Fatal(err)
			}
			got := drainBatches(t, tab.ScanColumns(context.Background(), schema.ColScan{}))

			// The recovered relation must be a prefix of the original corpus
			// aligned to a 64-row segment boundary (or the full corpus, when
			// the corruption touched nothing that was validly sealed).
			if len(got) > len(rows) || len(got)%64 != 0 && len(got) != len(rows) {
				t.Fatalf("recovered %d rows: not a segment-aligned prefix of %d", len(got), len(rows))
			}
			switch name {
			case "stale tmp":
				if len(got) != len(rows) {
					t.Fatalf("stale tmp must not lose rows: got %d, want %d", len(got), len(rows))
				}
			case "missing middle":
				if len(got) != 64 {
					t.Fatalf("hole after segment 0: want 64 rows, got %d", len(got))
				}
			default:
				if len(got) >= len(rows) {
					t.Fatalf("%s: corruption of the last file must truncate, still %d rows", name, len(got))
				}
			}
			rowsIdentical(t, name+" prefix", got, rows[:len(got)])

			// Damaged and post-damage files are gone; what remains matches
			// the recovered prefix exactly, so the next reopen agrees.
			left := segFiles(t, dir)
			if want := len(got) / 64; len(left) != want && !(len(got) == len(rows) && name == "stale tmp") {
				t.Fatalf("%s: %d segment files remain, want %d", name, len(left), want)
			}
			for _, f := range left {
				if filepath.Ext(f) == ".tmp" {
					t.Fatalf("tmp file survived recovery: %s", f)
				}
			}

			// Ingest resumes: new rows append, flush, and a further reopen
			// serves prefix + new rows.
			extra := mixedRows(64, 12)
			if err := tab.Append(extra...); err != nil {
				t.Fatal(err)
			}
			if err := tab.Flush(); err != nil {
				t.Fatal(err)
			}
			re2 := reopen(t, dir)
			tab2, err := re2.Table("mix")
			if err != nil {
				t.Fatal(err)
			}
			want := append(append(schema.Rows{}, rows[:len(got)]...), extra...)
			rowsIdentical(t, name+" resume", drainBatches(t, tab2.ScanColumns(context.Background(), schema.ColScan{})), want)
		})
	}
}
