package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	paradise "paradise"
)

// The corpus follows cmd/gensensors: a fixed epoch (the paper's year), one
// reading per sensor per one-minute tick, rows appended in strict time
// order so sealed segments carry tight, non-overlapping time zone maps.
const (
	tickMs = int64(60_000)
	// batteryPeriod is the number of ticks over which a battery drains from
	// full; it is independent of the corpus length so the ingest workload can
	// keep generating ticks past the preloaded history.
	batteryPeriod = 240
)

var genEpochMs = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC).UnixMilli()

// statusNames are the distinct status values; statusDraw is the skewed
// distribution readings draw from (gensensors' 4:1:1).
var (
	statusNames = []string{"ok", "degraded", "calibrating"}
	statusDraw  = []uint8{0, 0, 0, 0, 1, 2}
	kindNames   = []string{"climate", "motion"}
)

const (
	roomCount  = 50
	floorCount = 5
)

// corpusConfig sizes the corpus. The zero segment size selects the product
// default (4096 rows).
type corpusConfig struct {
	Sensors     int   `json:"sensors"`
	Ticks       int   `json:"ticks"`
	SegmentRows int   `json:"segment_rows"`
	Seed        int64 `json:"seed"`
}

func (c corpusConfig) descriptor() string {
	return fmt.Sprintf("readings: %d sensors x %d ticks = %d rows in time order, %d-row segments; sensors: %d rows (%d rooms, %d floors, %d kinds)",
		c.Sensors, c.Ticks, c.Sensors*c.Ticks, c.SegmentRows, c.Sensors, roomCount, floorCount, len(kindNames))
}

func tickTime(tick int) int64 { return genEpochMs + int64(tick)*tickMs }

// reading is one generated row of readings, kept in the harness's own
// layout: the oracle computes expected answers from these, never from the
// system under test.
type reading struct {
	sensor int32
	status uint8
	t      int64
	temp   float64
	hum    float64
	batt   float64
}

// sensorDim is one row of the sensors dimension table.
type sensorDim struct {
	room  int // 0..roomCount-1; floor = room / (roomCount/floorCount)
	kind  uint8
	floor int
}

func roomName(room int) string { return fmt.Sprintf("room-%02d", room) }

// generator produces the corpus tick by tick. Everything it emits is a
// function of the configuration alone.
type generator struct {
	cfg      corpusConfig
	rng      *rand.Rand
	baseTemp []float64
	baseHum  []float64
	tick     int
}

func newGenerator(cfg corpusConfig) *generator {
	g := &generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.baseTemp = make([]float64, cfg.Sensors)
	g.baseHum = make([]float64, cfg.Sensors)
	for i := range g.baseTemp {
		g.baseTemp[i] = 14 + 12*g.rng.Float64()
		g.baseHum[i] = 30 + 40*g.rng.Float64()
	}
	return g
}

// nextTick returns the next tick's readings, one per sensor.
func (g *generator) nextTick() []reading {
	at := tickTime(g.tick)
	drain := float64(g.tick%batteryPeriod) / batteryPeriod
	out := make([]reading, g.cfg.Sensors)
	for s := range out {
		out[s] = reading{
			sensor: int32(s),
			t:      at,
			temp:   round2(g.baseTemp[s] + 2*g.rng.NormFloat64()),
			hum:    round2(g.baseHum[s] + 5*g.rng.NormFloat64()),
			batt:   round2(100 - 60*drain - 5*g.rng.Float64()),
			status: statusDraw[g.rng.Intn(len(statusDraw))],
		}
	}
	g.tick++
	return out
}

func round2(f float64) float64 { return math.Round(f*100) / 100 }

// genSensors derives the dimension table from the seed.
func genSensors(cfg corpusConfig) []sensorDim {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5e4507))
	out := make([]sensorDim, cfg.Sensors)
	for i := range out {
		room := rng.Intn(roomCount)
		out[i] = sensorDim{room: room, floor: room / (roomCount / floorCount), kind: uint8(rng.Intn(len(kindNames)))}
	}
	return out
}

// corpus is the harness's own copy of the generated data.
type corpus struct {
	cfg      corpusConfig
	readings []reading // time order, cfg.Sensors per tick
	dims     []sensorDim
}

// generateCorpus materializes ticks [0, ticks) in the harness's layout.
func generateCorpus(cfg corpusConfig, ticks int) (*corpus, *generator) {
	g := newGenerator(cfg)
	c := &corpus{cfg: cfg, dims: genSensors(cfg), readings: make([]reading, 0, cfg.Sensors*ticks)}
	for i := 0; i < ticks; i++ {
		c.readings = append(c.readings, g.nextTick()...)
	}
	return c, g
}

func (c *corpus) ticks() int    { return len(c.readings) / c.cfg.Sensors }
func (c *corpus) lastTick() int { return c.ticks() - 1 }

// checksum folds every generated value into one number: equal seeds must
// give equal checksums, different seeds different ones.
func (c *corpus) checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, r := range c.readings {
		put(uint64(r.sensor)<<8 | uint64(r.status))
		put(uint64(r.t))
		put(math.Float64bits(r.temp))
		put(math.Float64bits(r.hum))
		put(math.Float64bits(r.batt))
	}
	for _, d := range c.dims {
		put(uint64(d.room)<<16 | uint64(d.floor)<<8 | uint64(d.kind))
	}
	return h.Sum64()
}

func readingsSchema() *paradise.Relation {
	return paradise.NewRelation("readings",
		paradise.SensitiveCol("sensor_id", paradise.TypeInt),
		paradise.Col("t", paradise.TypeInt),
		paradise.Col("temperature", paradise.TypeFloat),
		paradise.Col("humidity", paradise.TypeFloat),
		paradise.Col("battery", paradise.TypeFloat),
		paradise.Col("status", paradise.TypeString),
	)
}

func sensorsSchema() *paradise.Relation {
	return paradise.NewRelation("sensors",
		paradise.SensitiveCol("sensor_id", paradise.TypeInt),
		paradise.Col("room", paradise.TypeString),
		paradise.Col("floor", paradise.TypeInt),
		paradise.Col("kind", paradise.TypeString),
	)
}

// Column positions of readings, for the hand-written bare scans.
const (
	colSensor = iota
	colT
	colTemp
	colHum
	colBatt
	colStatus
)

// tickRows converts one tick's readings into rows for Table.Append, reusing
// buf: Append copies the values, so one tick-sized buffer serves every call
// and the harness never holds the corpus twice.
func tickRows(buf []paradise.Row, rs []reading) []paradise.Row {
	buf = buf[:0]
	for _, r := range rs {
		buf = append(buf, paradise.Row{
			paradise.Int(int64(r.sensor)),
			paradise.Int(r.t),
			paradise.Float(r.temp),
			paradise.Float(r.hum),
			paradise.Float(r.batt),
			paradise.String(statusNames[r.status]),
		})
	}
	return buf
}

// loadReport is what loading a corpus directory cost.
type loadReport struct {
	rows      int
	appends   []time.Duration // one per tick-sized Table.Append on readings
	wireBytes int64
}

func (r loadReport) busy() time.Duration {
	var d time.Duration
	for _, a := range r.appends {
		d += a
	}
	return d
}

// loadCorpusDir writes the corpus into dir through the public facade —
// NewStoreWith{Dir} + Append + Flush, what cmd/gensensors does — one tick
// per Append, the unit the ingest workload's writer uses too. Only the
// Append calls on readings are timed; row conversion happens between them.
func loadCorpusDir(dir string, c *corpus) (loadReport, error) {
	var rep loadReport
	store, err := paradise.NewStoreWith(paradise.StoreConfig{Dir: dir, SegmentRows: c.cfg.SegmentRows})
	if err != nil {
		return rep, fmt.Errorf("create store: %w", err)
	}
	dimTab, err := store.CreateTable(sensorsSchema())
	if err != nil {
		return rep, fmt.Errorf("create sensors: %w", err)
	}
	dimRows := make([]paradise.Row, len(c.dims))
	for i, d := range c.dims {
		dimRows[i] = paradise.Row{
			paradise.Int(int64(i)),
			paradise.String(roomName(d.room)),
			paradise.Int(int64(d.floor)),
			paradise.String(kindNames[d.kind]),
		}
	}
	if err := dimTab.Append(dimRows...); err != nil {
		return rep, fmt.Errorf("append sensors: %w", err)
	}
	tab, err := store.CreateTable(readingsSchema())
	if err != nil {
		return rep, fmt.Errorf("create readings: %w", err)
	}
	var buf []paradise.Row
	n := c.cfg.Sensors
	for i := 0; i < len(c.readings); i += n {
		buf = tickRows(buf, c.readings[i:i+n])
		start := time.Now()
		err := tab.Append(buf...)
		rep.appends = append(rep.appends, time.Since(start))
		if err != nil {
			return rep, fmt.Errorf("append readings: %w", err)
		}
		rep.rows += n
	}
	if err := store.Flush(); err != nil {
		return rep, fmt.Errorf("flush: %w", err)
	}
	rep.wireBytes = store.StorageStats().SealedBytes
	return rep, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
