package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// options are the command line of one run.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	outDir    string
	benchmark string
	repeats   int
	outFile   string
	compare   bool
}

// sizing is what every run of the benchmark fixes and no flag sets: the
// shape of the corpus, the warm-up and how often set-up is repeated. The
// benchmark always runs city240k; the smoke test runs a smaller one.
type sizing struct {
	sensors, ticks, segmentRows int
	warmup                      time.Duration
	// setups is how often set-up is repeated; setup_s is the median, as the
	// benchmark contract asks. Over ten seeds the first set-up alone spread
	// by 4 to 7% of its median, the median of five by 2 to 4% (BASELINE.md).
	setups int
}

// city240k is the benchmark corpus: 1000 sensors x 240 one-minute ticks in
// 4096-row segments, the product's default segment size.
var city240k = sizing{sensors: 1000, ticks: 240, segmentRows: 4096, warmup: 3 * time.Second, setups: 5}

func (sz sizing) corpus(seed int64) corpusConfig {
	return corpusConfig{Sensors: sz.sensors, Ticks: sz.ticks, SegmentRows: sz.segmentRows, Seed: seed}
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process; empty runs all four, each in a process of its own")
	flag.Int64Var(&o.seed, "seed", 2016, "seed of the corpus values, the literal pools and the schedules")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the traced pass and puts the per-layer metrics on the last line")
	flag.StringVar(&o.outDir, "outdir", defaultOutDir(), "directory for the corpus, span files and results; created if missing")
	flag.StringVar(&o.benchmark, "benchmark", filepath.Join(repoRoot(), "BENCHMARK.json"), "the metric contract: names the last line's metrics and the bounds -compare applies")
	flag.IntVar(&o.repeats, "repeats", 1, "without -workload: runs per workload")
	flag.StringVar(&o.outFile, "out", "", "without -workload: also write the result document to this file")
	flag.BoolVar(&o.compare, "compare", false, "compare two result documents: bench -compare A.json B.json")
	flag.Parse()

	var err error
	switch {
	case o.compare:
		err = compareFiles(o, flag.Args())
	case o.workload == "":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// repoRoot is the repository root as seen from the working directory: the
// program is started there by run.sh and in bench/ by go run.
func repoRoot() string {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		return ".."
	}
	return "."
}

func defaultOutDir() string { return filepath.Join(repoRoot(), "bench", "out") }

// environment is the block every result carries.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Corpus     string `json:"corpus"`
	Checksum   string `json:"corpus_checksum"`
}

// commit is the revision the binary was built from, when the build saw one.
func commit() string {
	rev, modified := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if modified {
		rev += "+modified"
	}
	return rev
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result document of one run of one workload.
type report struct {
	Workload  string      `json:"workload"`
	Why       string      `json:"why"`
	Loop      string      `json:"loop"`
	Env       environment `json:"env"`
	Seconds   float64     `json:"seconds"`
	Traced    bool        `json:"traced"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	FirstFail string      `json:"first_failure,omitempty"`
	Samples   int         `json:"latency_samples"`
	Highest   float64     `json:"highest_supported_percentile"`
	SetupRuns []float64   `json:"setup_runs_s"`
	// EndToEnd and PerLayer hold the metrics that apply to this workload
	// and no others: a workload that never enters a layer does not report
	// that layer's numbers here.
	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
	// Outside holds, for the names of BENCHMARK.json that do not apply to
	// this workload, a value measured outside it: the benchmark contract
	// wants every listed name on every run's last line. They come from the
	// set-ups' bulk loads (the write path, on the read-only workloads) and,
	// in a traced run, from a short replay of the other workloads' classes
	// made after the window. Read a metric on a workload that reports it
	// under end_to_end or per_layer.
	Outside map[string]metric `json:"outside_workload"`
	Shares  map[string]any    `json:"layer_shares,omitempty"`
	Notes   []string          `json:"notes"`
}

// contract is BENCHMARK.json.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no metrics listed", path)
	}
	return &c, nil
}

// lastLine renders the one JSON object the benchmark contract asks for:
// exactly the metrics BENCHMARK.json names for the pass that ran, each from
// the workload's own metrics where it has the name and from Outside where
// it has not.
func (r *report) lastLine(c *contract, traced bool) (string, error) {
	want, have := c.EndToEnd, r.EndToEnd
	if traced {
		want, have = c.PerLayer, r.PerLayer
	}
	metrics := make(map[string]metric, len(want))
	for _, m := range want {
		got, ok := have[m.Name]
		if !ok {
			got, ok = r.Outside[m.Name]
		}
		switch {
		case !ok:
			return "", fmt.Errorf("%s: metric %s was not measured", r.Workload, m.Name)
		case got.Unit != m.Unit:
			return "", fmt.Errorf("%s: metric %s measured in %s, contract says %s", r.Workload, m.Name, got.Unit, m.Unit)
		}
		metrics[m.Name] = got
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(line), err
}

// runOne runs one workload in this process and prints its result document
// followed by the contract's last line.
func runOne(o options) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	c, err := readContract(o.benchmark)
	if err != nil {
		return err
	}
	rep, err := measure(w, o, city240k)
	if err != nil {
		return err
	}
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	line, err := rep.lastLine(c, o.trace == 1)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", doc, line)
	return nil
}

// document is what a run of all workloads writes: one report per run.
type document struct {
	Runs []*report `json:"runs"`
}

// runAll runs every workload in a process of its own, so resident memory
// and collector state never leak from one into the next, with the traced
// pass on. One child yields both kinds of numbers: its window runs
// untraced, and the traced pass starts only after the end-to-end metrics,
// peak_rss_mb among them, are taken. Repeat r runs under seed+r, as the
// benchmark's driver varies the seed; -compare wants both documents made
// with the same -seed and -repeats.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var doc document
	for rep := 0; rep < o.repeats; rep++ {
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-trace", "1",
				"-seed", strconv.FormatInt(o.seed+int64(rep), 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-outdir", o.outDir, "-benchmark", o.benchmark}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			// The child prints its document, then the contract's last line.
			body := strings.TrimRight(string(out), "\n")
			body = body[:strings.LastIndexByte(body, '\n')]
			var r report
			if err := json.Unmarshal([]byte(body), &r); err != nil {
				return fmt.Errorf("%s: result document: %w", w.name, err)
			}
			doc.Runs = append(doc.Runs, &r)
		}
	}
	text, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", text)
	if o.outFile != "" {
		if err := os.WriteFile(o.outFile, append(text, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, r := range doc.Runs {
		if !r.Correct {
			return fmt.Errorf("%s: %d of %d operations failed: %s", r.Workload, r.Failed, r.Attempted, r.FirstFail)
		}
	}
	return nil
}

// peakRSSMB is VmHWM of this process, in megabytes.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// readySystem is one completed set-up.
type readySystem struct {
	sys  *system
	ing  *ingestRun // ingest_beside_query only
	load loadReport
	took time.Duration
	dir  string
}

func (r *readySystem) close() error {
	err := r.sys.close()
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return err
}

// setUp does everything between "a generated corpus in memory" and "ready
// to serve": bulk load through Append and Flush, recovery of the directory
// in a new store, server start, and one cold execution of each of the
// workload's classes at its entry point, so that whatever the program sets
// up lazily on first use is paid here and shows in setup_s.
func (w *workload) setUp(dir string, c *corpus, pools []*pool) (*readySystem, error) {
	start := time.Now()
	r := &readySystem{dir: dir}
	var err error
	if r.load, err = loadCorpusDir(filepath.Join(dir, "city"), c); err != nil {
		return nil, err
	}
	if r.sys, err = startSystem(filepath.Join(dir, "city"), c.cfg.SegmentRows); err != nil {
		return nil, err
	}
	if w == ingestBesideQuery {
		if r.ing, err = newIngestRun(filepath.Join(dir, "ingest"), c.cfg); err != nil {
			return nil, err
		}
		if err = r.ing.checkTail(classTailAgg.sql(lit{tick: ingestPreload - tailTicks}), ingestPreload-tailTicks); err != nil {
			return nil, err
		}
	}
	hc := newHTTPClient(r.sys.base)
	defer hc.close()
	for _, p := range pools {
		if w.entryHTTP {
			_, err = hc.viaHTTP(p.cls.tenant, p.sqls[0])
		} else {
			_, err = r.sys.viaSession(p.cls.tenant, p.sqls[0])
		}
		if err != nil {
			return nil, fmt.Errorf("cold %s: %w", p.cls.name, err)
		}
	}
	r.took = time.Since(start)
	return r, nil
}

// measure runs one workload: set-up (repeated), the oracle pass over the
// workload's own classes, warm-up and the timed window with tracing off,
// then, if asked, the traced pass. Everything the traced pass adds runs
// after the end-to-end numbers are taken, so they do not depend on it.
func measure(w *workload, o options, sz sizing) (*report, error) {
	cfg := sz.corpus(o.seed)
	if cfg.Sensors < 20 || cfg.Ticks < 16 || sz.setups < 1 || o.seconds <= 0 {
		return nil, errors.New("need at least 20 sensors, 16 ticks, 1 set-up and a positive window")
	}
	c, _ := generateCorpus(cfg, cfg.Ticks)
	rep := &report{
		Workload: w.name, Why: w.why, Seconds: o.seconds, Traced: o.trace == 1,
		Env: environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), Seed: o.seed, Corpus: cfg.descriptor(), Checksum: fmt.Sprintf("%016x", c.checksum())},
		EndToEnd: map[string]metric{}, Outside: map[string]metric{},
	}
	pools := drawPools(c, w.classes, o.seed)

	runDir := filepath.Join(o.outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	var ready *readySystem
	ob := &observation{}
	for i := 0; i < sz.setups; i++ {
		if ready != nil {
			if err := ready.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if ready, err = w.setUp(filepath.Join(runDir, strconv.Itoa(i)), c, pools); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ob.setups = append(ob.setups, ready.took.Seconds())
		ob.loads = append(ob.loads, ready.load)
	}
	defer ready.close()
	sys := ready.sys

	var err error
	if ob.ver, err = verify(sys, c, pools); err != nil {
		return nil, err
	}

	timed := time.Duration(o.seconds * float64(time.Second))
	ob.before = takeCounters(sys, ready.ing)
	if w == ingestBesideQuery {
		if ob.ing, err = ready.ing.run(sz.warmup, timed); err != nil {
			return nil, err
		}
		ob.win = ob.ing.reader
		rep.Loop = fmt.Sprintf("open-loop writer, one %d-row Append every %v; closed-loop reader, 1 client on Session.Query", cfg.Sensors, ingestPeriod)
	} else {
		ob.win = w.closedLoop(sys, pools, o.seed, sz.warmup, timed)
		entry := "Session.Query in process"
		if w.entryHTTP {
			entry = "HTTP keep-alive connections to a loopback listener"
		}
		rep.Loop = fmt.Sprintf("closed loop, %d clients on %s", w.clientCount(), entry)
	}
	ob.after = takeCounters(sys, ready.ing)
	if ob.rssMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	if w == ingestBesideQuery {
		if ob.rec, err = ready.ing.checkRecovery(); err != nil {
			return nil, err
		}
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("the writer appended %d rows in %d calls during the window; re-opening the directory recovered the sealed prefix (%d rows) before Flush and every acknowledged row (%d) after it",
				ob.ing.rowsAppended, len(ob.ing.appends), ob.rec.sealedRows, ob.rec.ackedRows),
			"the process was not killed and the operating system's cache is intact: the recovery check covers the format, not the device")
	}
	endToEnd(rep, w, ob)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("setup_s is the median of %d set-ups (setup_runs_s): bulk load (Append per tick, Flush), recovery in a new store, server start, one cold statement per class; generating the corpus and the fixed %v warm-up are outside it", sz.setups, sz.warmup),
		"flush policy: the product default - a tail is sealed (tmp file, fsync, rename) when it reaches the segment size; nothing is fsynced in between",
		"reads come from the operating system's page cache and fsync is cheap here: latencies are this sandbox's, not a device's",
		"the harness holds the generated corpus (48 bytes a reading) and one response buffer per HTTP client (it grows to the largest response); peak_rss_mb is read when the timed window ends, so it covers the set-ups, the oracle pass and the window",
	)

	if rep.Traced {
		if err := traceMetrics(rep, w, o, sys, c, pools, ob); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
