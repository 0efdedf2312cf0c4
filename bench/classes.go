package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync/atomic"

	paradise "paradise"
	"paradise/internal/schema"
)

// Tenants of the system under test. All three share one store; open and
// kanon run without a policy, climate under climate_policy.xml with the
// audit journal on, kanon with Mondrian k-anonymity over anonQI.
const (
	tenantOpen    = "open"
	tenantClimate = "climate"
	tenantKanon   = "kanon"
	anonK         = 5
)

var anonQI = []string{"temperature", "humidity"}

// lit is the literal part of one statement: a tick (exact for point
// lookups, the first tick of a time range otherwise, -1 for no time
// bound), a sensor and a threshold.
type lit struct {
	tick   int
	sensor int
	k      float64
}

// scanSpec is one bare storage scan: the hand-written columnar request a
// class's statement boils down to, used to time storage without the engine.
type scanSpec struct {
	table string
	scan  schema.ColScan
}

// class is one statement shape of a workload's mix.
type class struct {
	name   string
	tenant string
	weight int
	denied bool // the expected outcome is 403 / ErrPolicyViolation
	fresh  bool // literals never repeat, so every execution misses the plan cache
	// pool draws the class's literal pool from the seed.
	pool func(c *corpus, rng *rand.Rand) []lit
	sql  func(l lit) string
	// oracle computes the expected answer with plain loops over the
	// harness's own rows.
	oracle func(c *corpus, l lit) *answer
	// key lists the columns that identify a row when the result order is
	// not defined; nil compares on every column.
	key []int
	// check replaces the multiset comparison against the oracle where the
	// answer is not unique (ties under LIMIT, generalized values).
	check func(c *corpus, l lit, want, got *answer) error
	scans func(l lit) []scanSpec
}

func fmtF(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }

func ge(col int, v paradise.Value) schema.ColPred {
	return schema.ColPred{Op: schema.PredGe, Col: col, RCol: -1, Lit: v}
}
func gt(col int, v paradise.Value) schema.ColPred {
	return schema.ColPred{Op: schema.PredGt, Col: col, RCol: -1, Lit: v}
}
func eq(col int, v paradise.Value) schema.ColPred {
	return schema.ColPred{Op: schema.PredEq, Col: col, RCol: -1, Lit: v}
}

func readingsScan(cols []int, preds ...schema.ColPred) []scanSpec {
	return []scanSpec{{table: "readings", scan: schema.ColScan{Columns: cols, Predicate: preds}}}
}

// from returns the readings with t >= tickTime(tick) (all when tick < 0).
func (c *corpus) from(tick int) []reading {
	if tick < 0 {
		tick = 0
	}
	return c.readings[tick*c.cfg.Sensors:]
}

// thresholdsFor returns, for each wanted result size n, the threshold k
// such that about n of the values exceed k (fewer only on ties). Taking the
// thresholds from the generated data instead of from fixed numbers keeps a
// class's result size, and so its cost, the same from seed to seed.
func thresholdsFor(values []float64, sizes []int) []float64 {
	desc := append([]float64(nil), values...)
	sort.Sort(sort.Reverse(sort.Float64Slice(desc)))
	out := make([]float64, len(sizes))
	for i, n := range sizes {
		out[i] = desc[min(n, len(desc)-1)]
	}
	return out
}

// column extracts one float column of readings.
func column(rs []reading, get func(reading) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = get(r)
	}
	return out
}

func temperature(r reading) float64 { return r.temp }
func humidity(r reading) float64    { return r.hum }

// smallResults is the result sizes of the pooled range lookups: tens of
// rows, a distinct size per pooled literal.
func smallResults() []int {
	sizes := make([]int, poolSize)
	for i := range sizes {
		sizes[i] = 24 + 4*i
	}
	return sizes
}

// recentTicks pools the literals "from `back` ticks before the newest".
func recentTicks(back ...int) func(*corpus, *rand.Rand) []lit {
	return func(c *corpus, _ *rand.Rand) []lit {
		var out []lit
		for _, b := range back {
			out = append(out, lit{tick: c.lastTick() - b})
		}
		return out
	}
}

func noLiteral(*corpus, *rand.Rand) []lit { return []lit{{tick: -1}} }

// poolSize is the number of pooled literals per class unless the class
// states otherwise: enough that requests differ, few enough that the plan
// cache and any future data cache hit after warm-up.
const poolSize = 16

// avgPerTick is the oracle of the climate policy's mandated aggregation:
// AVG(temperature) GROUP BY t HAVING COUNT(temperature) > 10.
func avgPerTick(c *corpus, l lit) *answer {
	a := &answer{cols: []string{"t", "temperatureavg"}}
	rows := c.from(l.tick)
	for i := 0; i < len(rows); i += c.cfg.Sensors {
		sum := 0.0
		for _, r := range rows[i : i+c.cfg.Sensors] {
			sum += r.temp
		}
		if c.cfg.Sensors > 10 {
			a.rows = append(a.rows, []cell{intCell(rows[i].t), floatCell(sum / float64(c.cfg.Sensors))})
		}
	}
	return a
}

// ---- serve_lookup ---------------------------------------------------------

var classPoint = &class{
	name: "point", tenant: tenantOpen, weight: 5,
	pool: func(c *corpus, rng *rand.Rand) []lit {
		seen := map[lit]bool{}
		var out []lit
		for len(out) < poolSize {
			// The three newest ticks in turn: they sit in segments of different
			// sizes, so drawing the tick too would make the class cheaper
			// under one seed than under another.
			l := lit{tick: c.lastTick() - len(out)%3, sensor: rng.Intn(c.cfg.Sensors)}
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
		return out
	},
	sql:    pointSQL,
	oracle: pointOracle,
	scans:  pointScans,
}

func pointSQL(l lit) string {
	return fmt.Sprintf("SELECT sensor_id, t, temperature, humidity FROM readings WHERE t = %d AND sensor_id = %d",
		tickTime(l.tick), l.sensor)
}

func pointOracle(c *corpus, l lit) *answer {
	a := &answer{cols: []string{"sensor_id", "t", "temperature", "humidity"}}
	for _, r := range c.from(l.tick) {
		if r.t == tickTime(l.tick) && int(r.sensor) == l.sensor {
			a.rows = append(a.rows, []cell{intCell(int64(r.sensor)), intCell(r.t), floatCell(r.temp), floatCell(r.hum)})
		}
	}
	return a
}

func pointScans(l lit) []scanSpec {
	return readingsScan([]int{colSensor, colT, colTemp, colHum},
		eq(colT, paradise.Int(tickTime(l.tick))), eq(colSensor, paradise.Int(int64(l.sensor))))
}

// classPointFresh has point's shape but takes its literals from freshSeq,
// which never repeats one, so the plan cache always misses and the
// statement is rewritten and compiled per request.
var classPointFresh = &class{
	name: "point_fresh", tenant: tenantOpen, weight: 3, fresh: true,
	sql: pointSQL, oracle: pointOracle, scans: pointScans,
}

// freshSeq enumerates the (tick, sensor) pairs older than the three newest
// ticks (where the pooled point literals live) in a seeded order without
// repetition: an affine walk i -> (a*i + b) mod n with a coprime to n. It
// wraps after n draws, far beyond what a run consumes.
type freshSeq struct {
	a, b, n uint64
	sensors int
	next    atomic.Uint64
}

func newFreshSeq(c *corpus, rng *rand.Rand) *freshSeq {
	n := uint64((c.ticks() - 3) * c.cfg.Sensors)
	a := uint64(rng.Int63n(int64(n))) | 1
	for gcd(a, n) != 1 {
		a += 2
	}
	return &freshSeq{a: a, b: uint64(rng.Int63n(int64(n))), n: n, sensors: c.cfg.Sensors}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// draw returns the next literal; safe for concurrent clients.
func (f *freshSeq) draw() lit {
	i := f.next.Add(1) - 1
	idx := (f.a*(i%f.n) + f.b) % f.n
	return lit{tick: int(idx) / f.sensors, sensor: int(idx) % f.sensors}
}

var classRecentRange = &class{
	name: "recent_range", tenant: tenantOpen, weight: 4,
	pool: func(c *corpus, _ *rand.Rand) []lit {
		var out []lit
		tick := c.lastTick() - 2
		for _, k := range thresholdsFor(column(c.from(tick), temperature), smallResults()) {
			out = append(out, lit{tick: tick, k: k})
		}
		return out
	},
	sql: func(l lit) string {
		return fmt.Sprintf("SELECT sensor_id, t, temperature FROM readings WHERE t >= %d AND temperature > %s",
			tickTime(l.tick), fmtF(l.k))
	},
	oracle: func(c *corpus, l lit) *answer {
		a := &answer{cols: []string{"sensor_id", "t", "temperature"}}
		for _, r := range c.from(l.tick) {
			if r.temp > l.k {
				a.rows = append(a.rows, []cell{intCell(int64(r.sensor)), intCell(r.t), floatCell(r.temp)})
			}
		}
		return a
	},
	scans: func(l lit) []scanSpec {
		return readingsScan([]int{colSensor, colT, colTemp},
			ge(colT, paradise.Int(tickTime(l.tick))), gt(colTemp, paradise.Float(l.k)))
	},
}

// classPolicyStrip asks for sensor_id, which the climate policy does not
// list: the rewriter removes it from the select list and answers the rest.
var classPolicyStrip = &class{
	name: "policy_strip", tenant: tenantClimate, weight: 4,
	pool: func(c *corpus, _ *rand.Rand) []lit {
		var out []lit
		tick := c.lastTick() - 1
		for _, k := range thresholdsFor(column(c.from(tick), humidity), smallResults()) {
			out = append(out, lit{tick: tick, k: k})
		}
		return out
	},
	sql: func(l lit) string {
		return fmt.Sprintf("SELECT sensor_id, t, humidity, status FROM readings WHERE t >= %d AND humidity > %s",
			tickTime(l.tick), fmtF(l.k))
	},
	oracle: func(c *corpus, l lit) *answer {
		a := &answer{cols: []string{"t", "humidity", "status"}}
		for _, r := range c.from(l.tick) {
			if r.hum > l.k {
				a.rows = append(a.rows, []cell{intCell(r.t), floatCell(r.hum), strCell(statusNames[r.status])})
			}
		}
		return a
	},
	scans: func(l lit) []scanSpec {
		return readingsScan([]int{colT, colHum, colStatus},
			ge(colT, paradise.Int(tickTime(l.tick))), gt(colHum, paradise.Float(l.k)))
	},
}

func policyAggSQL(l lit) string {
	if l.tick < 0 {
		return "SELECT t, temperature FROM readings"
	}
	return fmt.Sprintf("SELECT t, temperature FROM readings WHERE t >= %d", tickTime(l.tick))
}

func policyAggScans(l lit) []scanSpec {
	if l.tick < 0 {
		return readingsScan([]int{colT, colTemp})
	}
	return readingsScan([]int{colT, colTemp}, ge(colT, paradise.Int(tickTime(l.tick))))
}

// classPolicyAggRecent asks for raw temperature, which the climate policy
// only releases as AVG grouped by t with HAVING COUNT(temperature) > 10.
var classPolicyAggRecent = &class{
	name: "policy_agg_recent", tenant: tenantClimate, weight: 2,
	pool:   recentTicks(1, 2), // the last 2 or 3 minutes: two literals
	sql:    policyAggSQL,
	oracle: avgPerTick,
	key:    []int{0},
	scans:  policyAggScans,
}

// classDenied filters on sensor_id, which the climate policy denies: the
// answer is 403 before any data is touched.
var classDenied = &class{
	name: "denied", tenant: tenantClimate, weight: 2, denied: true,
	pool: func(c *corpus, rng *rand.Rand) []lit {
		var out []lit
		for _, s := range rng.Perm(c.cfg.Sensors)[:min(poolSize, c.cfg.Sensors)] {
			out = append(out, lit{tick: -1, sensor: s})
		}
		return out
	},
	sql: func(l lit) string {
		return fmt.Sprintf("SELECT t, humidity FROM readings WHERE sensor_id = %d", l.sensor)
	},
}

// ---- serve_export ---------------------------------------------------------

var classExport = &class{
	name: "export", tenant: tenantOpen, weight: 2,
	pool: recentTicks(7, 8, 9, 10), // the last 8 to 11 minutes: four literals
	sql: func(l lit) string {
		return fmt.Sprintf("SELECT sensor_id, t, temperature, humidity, battery, status FROM readings WHERE t >= %d", tickTime(l.tick))
	},
	oracle: func(c *corpus, l lit) *answer {
		a := &answer{cols: []string{"sensor_id", "t", "temperature", "humidity", "battery", "status"}}
		for _, r := range c.from(l.tick) {
			a.rows = append(a.rows, []cell{intCell(int64(r.sensor)), intCell(r.t), floatCell(r.temp),
				floatCell(r.hum), floatCell(r.batt), strCell(statusNames[r.status])})
		}
		return a
	},
	scans: func(l lit) []scanSpec {
		return readingsScan(nil, ge(colT, paradise.Int(tickTime(l.tick))))
	},
}

var classWindow = &class{
	name: "window", tenant: tenantOpen, weight: 1,
	pool: recentTicks(3, 4), // the last 4 or 5 minutes: two literals
	sql: func(l lit) string {
		return fmt.Sprintf("SELECT sensor_id, t, AVG(temperature) OVER (PARTITION BY sensor_id ORDER BY t) AS run_avg FROM readings WHERE t >= %d", tickTime(l.tick))
	},
	oracle: func(c *corpus, l lit) *answer {
		a := &answer{cols: []string{"sensor_id", "t", "run_avg"}}
		sum := make([]float64, c.cfg.Sensors)
		n := make([]int, c.cfg.Sensors)
		for _, r := range c.from(l.tick) { // time order: each sensor's running average
			sum[r.sensor] += r.temp
			n[r.sensor]++
			a.rows = append(a.rows, []cell{intCell(int64(r.sensor)), intCell(r.t), floatCell(sum[r.sensor] / float64(n[r.sensor]))})
		}
		return a
	},
	key: []int{0, 1},
	scans: func(l lit) []scanSpec {
		return readingsScan([]int{colSensor, colT, colTemp}, ge(colT, paradise.Int(tickTime(l.tick))))
	},
}

// classAnon runs under the kanon tenant: the result is generalized by
// Mondrian to k = anonK over anonQI. The oracle cannot predict the
// generalized values without re-implementing Mondrian, so it checks what
// k-anonymity promises instead (see checkAnon).
var classAnon = &class{
	name: "anon", tenant: tenantKanon, weight: 1,
	pool: recentTicks(1, 2), // 2 or 3 ticks: two literals
	sql: func(l lit) string {
		return fmt.Sprintf("SELECT t, temperature, humidity, status FROM readings WHERE t >= %d", tickTime(l.tick))
	},
	oracle: func(c *corpus, l lit) *answer {
		a := &answer{cols: []string{"t", "temperature", "humidity", "status"}}
		for _, r := range c.from(l.tick) {
			a.rows = append(a.rows, []cell{intCell(r.t), floatCell(r.temp), floatCell(r.hum), strCell(statusNames[r.status])})
		}
		return a
	},
	check: checkAnon,
	scans: func(l lit) []scanSpec {
		return readingsScan([]int{colT, colTemp, colHum, colStatus}, ge(colT, paradise.Int(tickTime(l.tick))))
	},
}

// checkAnon verifies a Mondrian-generalized answer against the raw rows
// the oracle selected: same cardinality, untouched columns equal as a
// multiset, every combination of quasi-identifier values shared by at
// least anonK rows, and the column sums preserved (a partition's values
// are replaced by their mean, rounded to six decimals).
func checkAnon(_ *corpus, _ lit, want, got *answer) error {
	if err := sameCols(want.cols, got.cols); err != nil {
		return err
	}
	if len(want.rows) != len(got.rows) {
		return fmt.Errorf("%d rows, want %d", len(got.rows), len(want.rows))
	}
	const tCol, tempCol, humCol, statusCol = 0, 1, 2, 3
	kept := func(a *answer) *answer {
		out := &answer{cols: []string{"t", "status"}}
		for _, r := range a.rows {
			out.rows = append(out.rows, []cell{r[tCol], r[statusCol]})
		}
		return out
	}
	if err := matchUnordered(kept(want), kept(got), nil); err != nil {
		return fmt.Errorf("columns outside the quasi-identifier changed: %w", err)
	}
	groups := map[[2]float64]int{}
	var wantSum, gotSum [2]float64
	for i, r := range got.rows {
		t, _ := r[tempCol].num()
		h, _ := r[humCol].num()
		groups[[2]float64{t, h}]++
		gotSum[0] += t
		gotSum[1] += h
		wt, _ := want.rows[i][tempCol].num()
		wh, _ := want.rows[i][humCol].num()
		wantSum[0] += wt
		wantSum[1] += wh
	}
	for qi, n := range groups {
		if n < anonK {
			return fmt.Errorf("quasi-identifier %v shared by %d rows, want >= %d", qi, n, anonK)
		}
	}
	for i, name := range anonQI {
		if math.Abs(gotSum[i]-wantSum[i]) > 1e-6*float64(len(got.rows)) {
			return fmt.Errorf("sum of %s is %v, want %v", name, gotSum[i], wantSum[i])
		}
	}
	return nil
}

// ---- scan_analytics -------------------------------------------------------

var classDashboardAgg = &class{
	name: "dashboard_agg", tenant: tenantOpen, weight: 1,
	pool: noLiteral,
	sql: func(lit) string {
		return "SELECT status, COUNT(*) AS n, AVG(temperature) AS avg_temp FROM readings GROUP BY status"
	},
	oracle: func(c *corpus, _ lit) *answer {
		a := &answer{cols: []string{"status", "n", "avg_temp"}}
		n := make([]int64, len(statusNames))
		sum := make([]float64, len(statusNames))
		for _, r := range c.readings {
			n[r.status]++
			sum[r.status] += r.temp
		}
		for s, name := range statusNames {
			if n[s] > 0 {
				a.rows = append(a.rows, []cell{strCell(name), intCell(n[s]), floatCell(sum[s] / float64(n[s]))})
			}
		}
		return a
	},
	key:   []int{0},
	scans: func(lit) []scanSpec { return readingsScan([]int{colTemp, colStatus}) },
}

// joinShares is join_room's literal pool: the share of all readings whose
// humidity passes the filter. Four literals, because every execution scans
// the whole table and the verification pass runs each.
var joinShares = []float64{0.5, 0.4, 0.3, 0.2}

var classJoinRoom = &class{
	name: "join_room", tenant: tenantOpen, weight: 1,
	pool: func(c *corpus, _ *rand.Rand) []lit {
		sizes := make([]int, len(joinShares))
		for i, share := range joinShares {
			sizes[i] = int(share * float64(len(c.readings)))
		}
		var out []lit
		for _, k := range thresholdsFor(column(c.readings, humidity), sizes) {
			out = append(out, lit{tick: -1, k: k})
		}
		return out
	},
	sql: func(l lit) string {
		return fmt.Sprintf("SELECT s.room, COUNT(*) AS n, AVG(r.humidity) AS avg_hum FROM readings r JOIN sensors s ON r.sensor_id = s.sensor_id WHERE r.humidity > %s GROUP BY s.room", fmtF(l.k))
	},
	oracle: func(c *corpus, l lit) *answer {
		a := &answer{cols: []string{"room", "n", "avg_hum"}}
		n := make([]int64, roomCount)
		sum := make([]float64, roomCount)
		for _, r := range c.readings {
			if r.hum > l.k {
				room := c.dims[r.sensor].room
				n[room]++
				sum[room] += r.hum
			}
		}
		for room := range n {
			if n[room] > 0 {
				a.rows = append(a.rows, []cell{strCell(roomName(room)), intCell(n[room]), floatCell(sum[room] / float64(n[room]))})
			}
		}
		return a
	},
	key: []int{0},
	scans: func(l lit) []scanSpec {
		return append(readingsScan([]int{colSensor, colHum}, gt(colHum, paradise.Float(l.k))),
			scanSpec{table: "sensors", scan: schema.ColScan{Columns: []int{0, 1}}})
	},
}

const topK = 20

var classTopK = &class{
	name: "topk", tenant: tenantOpen, weight: 1,
	pool: noLiteral,
	sql: func(lit) string {
		return fmt.Sprintf("SELECT sensor_id, t, temperature FROM readings ORDER BY temperature DESC LIMIT %d", topK)
	},
	oracle: func(c *corpus, _ lit) *answer {
		temps := make([]float64, len(c.readings))
		for i, r := range c.readings {
			temps[i] = r.temp
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(temps)))
		a := &answer{cols: []string{"sensor_id", "t", "temperature"}}
		for _, t := range temps[:min(topK, len(temps))] {
			a.rows = append(a.rows, []cell{{}, {}, floatCell(t)})
		}
		return a
	},
	// Ties at the cut make the chosen rows ambiguous, so the check is: the
	// temperatures are the oracle's top values in descending order, and
	// every returned (sensor, t) really carries the temperature it claims.
	check: func(c *corpus, _ lit, want, got *answer) error {
		if err := sameCols(want.cols, got.cols); err != nil {
			return err
		}
		if len(want.rows) != len(got.rows) {
			return fmt.Errorf("%d rows, want %d", len(got.rows), len(want.rows))
		}
		for i, r := range got.rows {
			if !cellsEqual(want.rows[i][2], r[2], 0) {
				return fmt.Errorf("row %d: temperature %v, want %v", i, r[2], want.rows[i][2])
			}
			tick := int((r[1].i - genEpochMs) / tickMs)
			if tick < 0 || tick >= c.ticks() || r[0].i < 0 || int(r[0].i) >= c.cfg.Sensors {
				return fmt.Errorf("row %d: no such reading (%v, %v)", i, r[0], r[1])
			}
			if src := c.readings[tick*c.cfg.Sensors+int(r[0].i)]; src.temp != r[2].f {
				return fmt.Errorf("row %d: reading (%v, %v) has temperature %v, not %v", i, r[0], r[1], src.temp, r[2])
			}
		}
		return nil
	},
	scans: func(lit) []scanSpec { return readingsScan([]int{colSensor, colT, colTemp}) },
}

var classPolicyAggFull = &class{
	name: "policy_agg_full", tenant: tenantClimate, weight: 1,
	pool:   noLiteral,
	sql:    policyAggSQL,
	oracle: avgPerTick,
	key:    []int{0},
	scans:  policyAggScans,
}

// ---- ingest_beside_query --------------------------------------------------

// tailTicks is how many of the newest ticks tail_agg reads.
const tailTicks = 3

// classTailAgg aggregates the newest ticks of a table that is being
// appended to. Its literal follows the writer, so it has no pool; the
// reader builds each statement from the last acknowledged tick.
var classTailAgg = &class{
	name: "tail_agg", tenant: tenantOpen, weight: 1,
	pool: func(c *corpus, _ *rand.Rand) []lit { return []lit{{tick: c.lastTick() - (tailTicks - 1)}} },
	sql: func(l lit) string {
		return fmt.Sprintf("SELECT COUNT(*) AS n, AVG(temperature) AS avg_temp FROM readings WHERE t >= %d", tickTime(l.tick))
	},
	oracle: func(c *corpus, l lit) *answer {
		rows := c.from(l.tick)
		sum := 0.0
		for _, r := range rows {
			sum += r.temp
		}
		return &answer{cols: []string{"n", "avg_temp"},
			rows: [][]cell{{intCell(int64(len(rows))), floatCell(sum / float64(len(rows)))}}}
	},
	scans: func(l lit) []scanSpec {
		return readingsScan([]int{colT, colTemp}, ge(colT, paradise.Int(tickTime(l.tick))))
	},
}
