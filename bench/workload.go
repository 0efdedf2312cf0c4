package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	paradise "paradise"
)

// workload is one traffic mix. entryHTTP workloads go through the server
// on loopback, the others call Session.Query in this process.
type workload struct {
	name      string
	why       string
	entryHTTP bool
	clients   int // closed-loop clients, capped at the number of CPUs
	classes   []*class
	// tracedReplays is how often the traced pass replays a class, per unit
	// of its weight. A replay runs the statement about six times (HTTP,
	// session, chain, engine, bare scans), so full scans get few replays and
	// lookups many; every pass stays under ten seconds.
	tracedReplays int
}

// The workloads are homogeneous in cost on purpose: a mix of 1 ms and
// 100 ms statements has a median that wanders with the draw.
var (
	serveLookup = &workload{
		name:      "serve_lookup",
		why:       "tiny results from at most 3 segments: the fixed per-request path (HTTP, parse, cache key, compile on misses, pipeline set-up, journal) does most of the work",
		entryHTTP: true, clients: 2, tracedReplays: 24,
		classes: []*class{classPoint, classPointFresh, classRecentRange, classPolicyStrip, classPolicyAggRecent, classDenied},
	}
	serveExport = &workload{
		name:      "serve_export",
		why:       "thousands of rows per response: NDJSON encode and flush, the cursor adapter and Mondrian dominate; storage opens 1-3 segments and compile always hits",
		entryHTTP: true, clients: 2, tracedReplays: 8,
		classes: []*class{classExport, classWindow, classAnon},
	}
	scanAnalytics = &workload{
		name:    "scan_analytics",
		why:     "full scans of all 59 segments in process: storage open/CRC/decode, engine kernels and the fragment chain do the work; 1 client leaves a thread to intra-query parallelism",
		clients: 1, tracedReplays: 6,
		classes: []*class{classDashboardAgg, classJoinRoom, classTopK, classPolicyAggFull},
	}
	ingestBesideQuery = &workload{
		name:    "ingest_beside_query",
		why:     "open-loop appends with seals and fsync beside a closed-loop tail reader: a read-side win bought at seal time, or a write-side win that stalls scans, shows only here",
		clients: 1, tracedReplays: 96,
		classes: []*class{classTailAgg},
	}
	workloads = []*workload{serveLookup, serveExport, scanAnalytics, ingestBesideQuery}
)

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// allClasses lists every class once, in workload order.
func allClasses() []*class {
	var out []*class
	for _, w := range workloads {
		out = append(out, w.classes...)
	}
	return out
}

func (w *workload) has(cls *class) bool {
	for _, c := range w.classes {
		if c == cls {
			return true
		}
	}
	return false
}

// clientCount caps the closed-loop clients at the CPUs present: the load
// generator shares the machine with the program and must not oversubscribe it.
func (w *workload) clientCount() int { return min(w.clients, runtime.NumCPU()) }

// pool is one class's literals for a run, with the result size the oracle
// computed for each (filled in by the verification pass).
type pool struct {
	cls   *class
	lits  []lit
	sqls  []string
	rows  []int
	fresh *freshSeq // set for classes whose literals never repeat
}

// drawPools derives every class's literals from the corpus and the seed.
func drawPools(c *corpus, classes []*class, seed int64) []*pool {
	out := make([]*pool, len(classes))
	for i, cls := range classes {
		// One generator per class, so adding a class never shifts another's pool.
		rng := rand.New(rand.NewSource(seed ^ int64(hashName(cls.name))))
		p := &pool{cls: cls}
		if cls.fresh {
			p.fresh = newFreshSeq(c, rng)
			for j := 0; j < poolSize; j++ { // the literals the verification pass checks
				p.lits = append(p.lits, p.fresh.draw())
			}
		} else {
			p.lits = cls.pool(c, rng)
		}
		for _, l := range p.lits {
			p.sqls = append(p.sqls, cls.sql(l))
		}
		p.rows = make([]int, len(p.lits))
		out[i] = p
	}
	return out
}

func hashName(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// outcome is what a client observes of one statement without decoding rows.
type outcome struct {
	rows   int
	denied bool
	raw    int64 // Figure-3 bytes at the sensor (d)
	egress int64 // Figure-3 bytes leaving the apartment (d')
	bytes  int   // response body size, HTTP only
}

// viaSession runs a statement through Session.Query, drains and closes it.
func (s *system) viaSession(tenant, sql string) (outcome, error) {
	cur, err := s.sess[tenant].Query(context.Background(), sql)
	if errors.Is(err, paradise.ErrPolicyViolation) {
		return outcome{denied: true}, nil
	}
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	for cur.Next() {
		out.rows++
	}
	stats, err := cur.Stats() // closes the cursor
	if err != nil {
		return out, err
	}
	out.raw, out.egress = int64(stats.RawBytes), int64(stats.EgressBytes)
	return out, nil
}

// viaHTTP runs a statement through POST /v1/query and checks that the
// response is complete: a stats trailer whose row count is the lines seen.
func (c *httpClient) viaHTTP(tenant, sql string) (outcome, error) {
	rep, err := c.do(tenant, sql)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{rows: rep.rows, bytes: rep.bytes, raw: rep.last.RawBytes, egress: rep.last.EgressBytes}
	switch {
	case rep.status == http.StatusForbidden && rep.last.Code == "policy_violation":
		out.denied = true
	case rep.status != http.StatusOK || rep.last.Type != "stats":
		return out, fmt.Errorf("status %d, last line %s %s: %s", rep.status, rep.last.Type, rep.last.Code, rep.last.Message)
	case rep.last.Rows != rep.rows:
		return out, fmt.Errorf("trailer says %d rows, body has %d", rep.last.Rows, rep.rows)
	}
	return out, nil
}

// sample is one timed operation.
type sample struct {
	cls  int // index into the workload's pools
	dur  time.Duration
	rows int
	ok   bool
}

// window is what a timed window observed.
type window struct {
	samples   []sample
	elapsed   time.Duration
	firstFail string
}

// deck deals the numbers it was built from in shuffled order and reshuffles
// when all are dealt. Over a window the shares are exact to within one deck,
// where independent draws would wander with the square root of the count:
// with four equally weighted classes and 200 statements a window, a class's
// share — and with it rows_per_s — would move by a tenth from seed to seed.
type deck struct {
	cards []int
	next  int
	rng   *rand.Rand
}

func (d *deck) deal() int {
	if d.next == 0 {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	card := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return card
}

// schedule is one client's sequence of statements: classes dealt by weight,
// literals dealt from the class's pool, both from a generator seeded from
// the run's seed and the client's number, so the sequence repeats.
type schedule struct {
	pools    []*pool
	classes  deck
	literals []deck // per pool
}

func newSchedule(pools []*pool, seed int64, client int) *schedule {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	s := &schedule{pools: pools, classes: deck{rng: rng}, literals: make([]deck, len(pools))}
	for pi, p := range pools {
		for i := 0; i < p.cls.weight; i++ {
			s.classes.cards = append(s.classes.cards, pi)
		}
		s.literals[pi].rng = rng
		for li := range p.lits {
			s.literals[pi].cards = append(s.literals[pi].cards, li)
		}
	}
	return s
}

// next returns the index of the pool drawn from, the statement, and the
// number of rows its answer must have.
func (s *schedule) next() (pi int, sql string, want int) {
	pi = s.classes.deal()
	p := s.pools[pi]
	if p.fresh != nil {
		return pi, p.cls.sql(p.fresh.draw()), 1 // a fresh point literal names exactly one reading
	}
	li := s.literals[pi].deal()
	return pi, p.sqls[li], p.rows[li]
}

// closedLoop drives the workload's mix from its clients for warm-up plus
// the timed window: each client sends its next statement when the previous
// one is answered. Operations that begin in warm-up or end after the
// window are not counted.
func (w *workload) closedLoop(sys *system, pools []*pool, seed int64, warm, timed time.Duration) window {
	start := time.Now().Add(warm)
	end := start.Add(timed)
	perClient := make([][]sample, w.clientCount())
	fails := make([]string, len(perClient))
	var wg sync.WaitGroup
	for ci := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sched := newSchedule(pools, seed, ci)
			var hc *httpClient
			if w.entryHTTP {
				hc = newHTTPClient(sys.base)
				defer hc.close()
			}
			for {
				pi, sql, want := sched.next()
				p := pools[pi]
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				var got outcome
				var err error
				if hc != nil {
					got, err = hc.viaHTTP(p.cls.tenant, sql)
				} else {
					got, err = sys.viaSession(p.cls.tenant, sql)
				}
				t1 := time.Now()
				if t0.Before(start) || t1.After(end) {
					continue
				}
				ok := err == nil && got.denied == p.cls.denied && (got.denied || got.rows == want)
				if !ok && fails[ci] == "" {
					fails[ci] = fmt.Sprintf("%s: %q: rows %d (want %d), denied %v, err %v", p.cls.name, sql, got.rows, want, got.denied, err)
				}
				perClient[ci] = append(perClient[ci], sample{cls: pi, dur: t1.Sub(t0), rows: got.rows, ok: ok})
			}
		}()
	}
	wg.Wait()
	win := window{elapsed: timed}
	for ci, s := range perClient {
		win.samples = append(win.samples, s...)
		if win.firstFail == "" {
			win.firstFail = fails[ci]
		}
	}
	return win
}
