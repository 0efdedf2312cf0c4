package main

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	paradise "paradise"
)

const (
	// ingestPreload is how many ticks the ingest store holds before the
	// writer starts.
	ingestPreload = 60
	// ingestPeriod is the open-loop writer's schedule: one tick of readings
	// every 20 ms, 50 000 rows per second at 1000 sensors.
	ingestPeriod = 20 * time.Millisecond
)

// appendSample is one scheduled Table.Append of the open-loop writer.
type appendSample struct {
	lag  time.Duration // how late the call began, from its due time
	lat  time.Duration // when it was acknowledged, from its due time
	busy time.Duration // time inside Table.Append
}

// ingestRun is the state of the ingest_beside_query workload: a fresh
// disk-backed store preloaded with ingestPreload ticks, one session over
// it, and the generator that continues the preloaded history.
type ingestRun struct {
	dir   string
	cfg   corpusConfig
	store *paradise.Store
	tab   *paradise.Table
	sess  *paradise.Session
	cache *paradise.PlanCache
	gen   *generator
	// tempSum[i] = Σ temperature over ticks [0, i). Its length is fixed
	// before the writer starts; the writer fills element i+1 before it
	// appends tick i, so a reader that sees the tick's rows (through the
	// table's lock) may read the element.
	tempSum []float64
	acked   atomic.Int64 // ticks acknowledged by Append
}

func newIngestRun(dir string, cfg corpusConfig) (*ingestRun, error) {
	store, err := paradise.NewStoreWith(paradise.StoreConfig{Dir: dir, SegmentRows: cfg.SegmentRows})
	if err != nil {
		return nil, fmt.Errorf("create ingest store: %w", err)
	}
	tab, err := store.CreateTable(readingsSchema())
	if err != nil {
		return nil, err
	}
	r := &ingestRun{dir: dir, cfg: cfg, store: store, tab: tab, gen: newGenerator(cfg),
		cache: paradise.NewPlanCache(0), tempSum: make([]float64, ingestPreload+1)}
	if r.sess, err = paradise.Open(store, paradise.WithPlanCache(r.cache)); err != nil {
		return nil, err
	}
	var buf []paradise.Row
	for i := 0; i < ingestPreload; i++ {
		if buf, _, err = r.appendTick(buf, time.Time{}); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// appendTick generates the next tick, waits for its due time (no wait when
// due is zero), appends it in one Table.Append and acknowledges it. Rows
// are generated before the wait, so only Append sits between the due time
// and the acknowledgement.
func (r *ingestRun) appendTick(buf []paradise.Row, due time.Time) ([]paradise.Row, appendSample, error) {
	rs := r.gen.nextTick()
	buf = tickRows(buf, rs)
	tick := r.gen.tick - 1
	sum := r.tempSum[tick]
	for _, x := range rs {
		sum += x.temp
	}
	r.tempSum[tick+1] = sum
	var s appendSample
	if !due.IsZero() {
		time.Sleep(time.Until(due))
	}
	began := time.Now()
	err := r.tab.Append(buf...)
	done := time.Now()
	if !due.IsZero() {
		s = appendSample{lag: began.Sub(due), lat: done.Sub(due), busy: done.Sub(began)}
	}
	r.acked.Add(1)
	return buf, s, err
}

// ingestWindow is what the timed window of ingest_beside_query observed.
type ingestWindow struct {
	reader       window
	appends      []appendSample // the writer's appends that were due inside the window
	rowsAppended int
}

// run drives the open-loop writer and the closed-loop tail reader for
// warm-up plus the timed window. The reader asks for COUNT(*) and
// AVG(temperature) over the newest tailTicks acknowledged ticks and checks
// the answer against the writer's own running sums: it must see every
// acknowledged row (at least tailTicks × sensors) and nothing torn.
func (r *ingestRun) run(warm, timed time.Duration) (ingestWindow, error) {
	var out ingestWindow
	begin := time.Now()
	start := begin.Add(warm)
	end := start.Add(timed)
	ticks := int((warm + timed) / ingestPeriod)
	r.tempSum = append(r.tempSum, make([]float64, ticks)...)

	writerErr := make(chan error, 1)
	go func() {
		var buf []paradise.Row
		for i := 0; i < ticks; i++ {
			due := begin.Add(time.Duration(i) * ingestPeriod)
			var s appendSample
			var err error
			if buf, s, err = r.appendTick(buf, due); err != nil {
				writerErr <- err
				return
			}
			if !due.Before(start) {
				out.appends = append(out.appends, s)
				out.rowsAppended += r.cfg.Sensors
			}
		}
		writerErr <- nil
	}()

	out.reader.elapsed = timed
	for {
		first := int(r.acked.Load()) - tailTicks
		sql := classTailAgg.sql(lit{tick: first})
		t0 := time.Now()
		if !t0.Before(end) {
			break
		}
		err := r.checkTail(sql, first)
		t1 := time.Now()
		if t0.Before(start) || t1.After(end) {
			continue
		}
		if err != nil && out.reader.firstFail == "" {
			out.reader.firstFail = fmt.Sprintf("tail_agg %q: %v", sql, err)
		}
		out.reader.samples = append(out.reader.samples, sample{dur: t1.Sub(t0), rows: 1, ok: err == nil})
	}
	err := <-writerErr // also orders the writer's samples before the return
	return out, err
}

// checkTail runs one tail_agg statement and compares it with the sums the
// writer keeps: ticks [first, first+k) for the k >= tailTicks whole ticks
// the count says were visible.
func (r *ingestRun) checkTail(sql string, first int) error {
	cur, err := r.sess.Query(context.Background(), sql)
	if err != nil {
		return err
	}
	got, err := cursorAnswer(cur)
	if err != nil {
		return err
	}
	if len(got.rows) != 1 || len(got.rows[0]) != 2 {
		return fmt.Errorf("answer has %d rows", len(got.rows))
	}
	n := got.rows[0][0].i
	k := int(n) / r.cfg.Sensors
	if k < tailTicks || int(n)%r.cfg.Sensors != 0 || first+k >= len(r.tempSum) {
		return fmt.Errorf("saw %d rows, want whole ticks and at least %d", n, tailTicks*r.cfg.Sensors)
	}
	want := (r.tempSum[first+k] - r.tempSum[first]) / float64(n)
	if avg, _ := got.rows[0][1].num(); math.Abs(avg-want) > aggTolerance*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("AVG(temperature) %v over %d rows, want %v", avg, n, want)
	}
	return nil
}

// recovery is the outcome of re-opening the ingest directory.
type recovery struct {
	sealedRows  int64
	ackedRows   int64
	recoverMs   float64
	diskPerWire float64 // bytes in the directory per sealed wire byte
}

// checkRecovery re-opens the directory the writer filled: before Flush a
// new store must recover exactly the sealed prefix, after Flush every
// acknowledged row. The process was not killed and the operating system's
// cache is intact, so this checks the format, not the device.
func (r *ingestRun) checkRecovery() (recovery, error) {
	rec := recovery{
		sealedRows: r.store.StorageStats().SealedRows,
		ackedRows:  r.acked.Load() * int64(r.cfg.Sensors),
	}
	reopen := func(want int64) (float64, error) {
		start := time.Now()
		again, err := paradise.NewStoreWith(paradise.StoreConfig{Dir: r.dir, SegmentRows: r.cfg.SegmentRows})
		took := ms(time.Since(start))
		if err != nil {
			return took, fmt.Errorf("re-open %s: %w", r.dir, err)
		}
		tab, err := again.Table("readings")
		if err != nil {
			return took, err
		}
		if got := int64(tab.Len()); got != want {
			return took, fmt.Errorf("recovered %d rows, want %d", got, want)
		}
		return took, nil
	}
	if _, err := reopen(rec.sealedRows); err != nil {
		return rec, fmt.Errorf("before Flush (sealed prefix): %w", err)
	}
	if err := r.store.Flush(); err != nil {
		return rec, err
	}
	var err error
	if rec.recoverMs, err = reopen(rec.ackedRows); err != nil {
		return rec, fmt.Errorf("after Flush (every acknowledged row): %w", err)
	}
	disk, err := dirBytes(r.dir)
	if err != nil {
		return rec, err
	}
	rec.diskPerWire = float64(disk) / float64(r.store.StorageStats().SealedBytes)
	return rec, nil
}
