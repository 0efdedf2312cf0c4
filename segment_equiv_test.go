package paradise_test

import (
	"context"
	"testing"

	paradise "paradise"
)

// segmentCorpus exercises every fragment shape over the integrated
// relation d, with range predicates on the quasi-ordered t column so
// zone-map pruning actually fires in the segmented variants.
var segmentCorpus = []string{
	"SELECT x, y FROM d",
	"SELECT * FROM d WHERE z < 2",
	"SELECT x, y FROM d WHERE t >= 5000 AND t < 15000",
	"SELECT x, y FROM d WHERE x > y AND z < 2.5",
	"SELECT x, AVG(z) AS za, COUNT(*) AS n FROM d WHERE t > 10000 GROUP BY x HAVING COUNT(*) > 3",
	"SELECT DISTINCT x FROM d WHERE t < 2500",
	"SELECT x, z FROM d ORDER BY z DESC, x, t LIMIT 5",
	"SELECT x, SUM(z) OVER (PARTITION BY x ORDER BY t) AS s FROM d WHERE t < 5000",
	"SELECT s FROM (SELECT x + y AS s, z FROM d WHERE t >= 980) WHERE s > 1",
	"SELECT user, COUNT(*) AS n FROM d WHERE t > 100 GROUP BY user ORDER BY user",
}

// fillConfiguredStore loads the exact testStore corpus into a store built
// with the given storage configuration.
func fillConfiguredStore(t *testing.T, n int, cfg paradise.StoreConfig) *paradise.Store {
	t.Helper()
	store, err := paradise.NewStoreWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := store.CreateTable(paradise.NewRelation("d",
		paradise.SensitiveCol("user", paradise.TypeString),
		paradise.Col("x", paradise.TypeFloat),
		paradise.Col("y", paradise.TypeFloat),
		paradise.Col("z", paradise.TypeFloat),
		paradise.Col("t", paradise.TypeInt),
	))
	if err != nil {
		t.Fatal(err)
	}
	users := []string{"alice", "bob", "carol"}
	rows := make(paradise.Rows, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, paradise.Row{
			paradise.String(users[i%len(users)]),
			paradise.Float(float64(i % 8)),
			paradise.Float(float64(i % 6)),
			paradise.Float(0.5 + float64(i%30)/10),
			paradise.Int(int64(i) * 50),
		})
	}
	if err := tab.Append(rows...); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestSegmentedStoreEquivalence is the facade-level half of the tentpole
// soundness suite: the same queries over the same corpus return identical
// rows AND byte-identical Figure-3 accounting (raw, egress, per-link
// traffic, per-stage rows/bytes, simulated time) regardless of segment
// size (and so of which segments pruning skips) or the on-disk backend.
// Physical layout must be invisible to everything above storage.
func TestSegmentedStoreEquivalence(t *testing.T) {
	const n = 400
	ref := testStore(t, n) // monolithic in-memory baseline
	refSess, err := paradise.Open(ref)
	if err != nil {
		t.Fatal(err)
	}

	variants := []struct {
		name string
		cfg  paradise.StoreConfig
	}{
		{"seg=1", paradise.StoreConfig{SegmentRows: 1}},
		{"seg=7", paradise.StoreConfig{SegmentRows: 7}},
		{"seg=64", paradise.StoreConfig{SegmentRows: 64}},
		{"seg=1000 (monolithic)", paradise.StoreConfig{SegmentRows: n + 1}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			store := fillConfiguredStore(t, n, v.cfg)
			sess, err := paradise.Open(store)
			if err != nil {
				t.Fatal(err)
			}
			for _, sql := range segmentCorpus {
				want, err := refSess.Process(context.Background(), sql)
				if err != nil {
					t.Fatalf("%s (ref): %v", sql, err)
				}
				got, err := sess.Process(context.Background(), sql)
				if err != nil {
					t.Fatalf("%s (%s): %v", sql, v.name, err)
				}
				sameRows(t, got.Result.Rows, want.Result.Rows)
				sameStats(t, got.Net, want.Net)
			}
		})
	}
}

// TestDiskStoreEquivalence runs the suite against the on-disk backend,
// twice: once on the store that ingested the corpus, and once on a store
// recovered from its directory by a fresh open — a simulated restart. Both
// must be row- and Figure-3-identical to the monolithic baseline.
func TestDiskStoreEquivalence(t *testing.T) {
	const n = 400
	ref := testStore(t, n)
	refSess, err := paradise.Open(ref)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store := fillConfiguredStore(t, n, paradise.StoreConfig{Dir: dir, SegmentRows: 64})
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	recovered, err := paradise.NewStoreWith(paradise.StoreConfig{Dir: dir, SegmentRows: 64})
	if err != nil {
		t.Fatal(err)
	}

	for name, st := range map[string]*paradise.Store{"ingested": store, "recovered": recovered} {
		sess, err := paradise.Open(st)
		if err != nil {
			t.Fatal(err)
		}
		for _, sql := range segmentCorpus {
			want, err := refSess.Process(context.Background(), sql)
			if err != nil {
				t.Fatalf("%s (ref): %v", sql, err)
			}
			got, err := sess.Process(context.Background(), sql)
			if err != nil {
				t.Fatalf("%s (%s): %v", sql, name, err)
			}
			sameRows(t, got.Result.Rows, want.Result.Rows)
			sameStats(t, got.Net, want.Net)
		}
	}
}
