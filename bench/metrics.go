package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	paradise "paradise"
)

// counters are the program's own counts, read at the boundaries of the
// timed window: the store's and plan cache's the workload ran against.
type counters struct {
	storage paradise.StorageStats
	cache   paradise.PlanCacheStats
}

func takeCounters(sys *system, ing *ingestRun) counters {
	if ing != nil {
		return counters{ing.store.StorageStats(), ing.cache.Stats()}
	}
	return counters{sys.store.StorageStats(), sys.cache.Stats()}
}

// observation is what one run measured, before metrics are derived from it.
type observation struct {
	setups        []float64    // seconds per set-up
	loads         []loadReport // one per set-up
	ver           verification
	win           window   // the timed window (the reader's, on ingest_beside_query)
	before, after counters // at the window's boundaries
	rssMB         float64
	ing           ingestWindow // ingest_beside_query only
	rec           recovery     // ingest_beside_query only
}

// writes is a set of Table.Append calls of one tick each.
type writes struct {
	latMs []float64 // sorted
	busy  time.Duration
	rows  int
}

// writerWrites is the open-loop writer's appends that were due inside the
// window, each timed from its due time, a reader running beside them.
func writerWrites(ing ingestWindow) writes {
	wr := writes{rows: ing.rowsAppended}
	for _, a := range ing.appends {
		wr.latMs = append(wr.latMs, ms(a.lat))
		wr.busy += a.busy
	}
	sort.Float64s(wr.latMs)
	return wr
}

// bulkLoadWrites is the appends of the set-ups' bulk loads, each timed by
// itself with nothing running beside it. The read-only workloads have no
// other write path; their numbers from it go under outside_workload.
func bulkLoadWrites(loads []loadReport) writes {
	var wr writes
	for _, l := range loads {
		for _, a := range l.appends {
			wr.latMs = append(wr.latMs, ms(a))
		}
		wr.busy += l.busy()
		wr.rows += l.rows
	}
	sort.Float64s(wr.latMs)
	return wr
}

func (wr writes) krowsPerBusyS() metric {
	return metric{float64(wr.rows) / 1000 / wr.busy.Seconds(), "krows/s"}
}

func (wr writes) perLayer(m map[string]metric) {
	m["storage.append_us_per_krow"] = metric{us(wr.busy) / float64(wr.rows) * 1000, "us"}
	m["storage.append_p50_ms"] = metric{percentile(wr.latMs, 50), "ms"}
	m["storage.append_p95_ms"] = metric{percentile(wr.latMs, 95), "ms"}
}

// endToEnd fills in what a user of the system sees, from the timed window.
func endToEnd(rep *report, w *workload, ob *observation) {
	lat := make([]time.Duration, len(ob.win.samples))
	rows, ok := 0, 0
	for i, s := range ob.win.samples {
		lat[i] = s.dur
		if s.ok {
			ok++
			rows += s.rows
		}
	}
	rep.Attempted = len(lat)
	rep.Failed = rep.Attempted - ok
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	rep.FirstFail = ob.win.firstFail
	rep.Samples = len(lat)
	rep.Highest = highestSupported(len(lat))
	rep.SetupRuns = ob.setups

	sorted := durationsMs(lat)
	e := rep.EndToEnd
	e["setup_s"] = metric{median(ob.setups), "s"}
	e["qps"] = metric{float64(ok) / ob.win.elapsed.Seconds(), "1/s"}
	e["rows_per_s"] = metric{float64(rows) / ob.win.elapsed.Seconds(), "1/s"}
	e["fail_ratio"] = metric{float64(rep.Failed) / float64(max(rep.Attempted, 1)), "ratio"}
	e["peak_rss_mb"] = metric{ob.rssMB, "MB"}
	e["egress_ratio"] = metric{float64(ob.ver.egress) / float64(ob.ver.raw), "ratio"}
	e["lat_p50_ms"] = metric{percentile(sorted, 50), "ms"}
	// p95 is on every run's last line, so it is always computed; the note
	// says when the sample is too small for it.
	e["lat_p95_ms"] = metric{percentile(sorted, 95), "ms"}
	if !percentileSupported(len(lat), 95) {
		rep.Notes = append(rep.Notes, fmt.Sprintf("p95 has fewer than %d of the %d samples beyond it", minBeyond, len(lat)))
	}
	if percentileSupported(len(lat), 99) {
		e["lat_p99_ms"] = metric{percentile(sorted, 99), "ms"}
	}
	if w == ingestBesideQuery {
		e["ingest_krows_per_busy_s"] = writerWrites(ob.ing).krowsPerBusyS()
	} else {
		rep.Outside["ingest_krows_per_busy_s"] = bulkLoadWrites(ob.loads).krowsPerBusyS()
	}
}

// spanSet is the spans and operations of a traced pass, or the part of
// them that belongs to some classes. Self times and per-class profiles are
// worked out over the whole pass, where every span's parent is present.
type spanSet struct {
	classes  []string
	spans    []span
	ops      []tracedOp
	self     map[int]selfTime
	profiles map[string]profile
}

// of returns the part of the set that the given classes produced.
func (ss spanSet) of(classes []*class) spanSet {
	out := spanSet{self: ss.self, profiles: ss.profiles}
	in := map[string]bool{}
	for _, cls := range classes {
		in[cls.name] = true
		out.classes = append(out.classes, cls.name)
	}
	for _, s := range ss.spans {
		if in[s.Class] {
			out.spans = append(out.spans, s)
		}
	}
	for _, op := range ss.ops {
		if in[op.class] {
			out.ops = append(out.ops, op)
		}
	}
	return out
}

func (ss spanSet) named(name string) []span {
	var out []span
	for _, s := range ss.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func medianOf(spans []span, value func(span) float64) float64 {
	vals := make([]float64, len(spans))
	for i, s := range spans {
		vals[i] = value(s)
	}
	return median(vals)
}

func sumOf(spans []span, value func(span) float64) float64 {
	total := 0.0
	for _, s := range spans {
		total += value(s)
	}
	return total
}

func spanUs(s span) float64 { return us(s.dur()) }

// metrics derives the per-layer metrics that come from spans: medians per
// statement, self times and ratios over the replayed operations. A name is
// reported only when the set has the spans it is defined on, so a set of
// classes that never enters a layer does not report that layer.
func (ss spanSet) metrics() map[string]metric {
	m := map[string]metric{}
	for name, spanName := range map[string]string{
		"sqlparser.parse_us": "sqlparser.parse", "sqlparser.render_us": "sqlparser.render",
		"rewrite.rewrite_us": "rewrite.rewrite", "rewrite.deny_us": "rewrite.deny",
		"plan.lower_us": "plan.lower", "plan.optimize_us": "plan.optimize",
		"fragment.split_us": "fragment.split", "fragment.place_us": "fragment.place",
		"core.compile_us": "core.compile", "network.exec_us": "network.exec",
		"engine.exec_us": "engine.exec", "anonymize.mondrian_us": "anonymize.mondrian",
		"audit.append_us": "audit.append", "paradise.session_us": "paradise.session",
		"server.http_us": "server.http",
	} {
		if spans := ss.named(spanName); len(spans) > 0 {
			m[name] = metric{medianOf(spans, spanUs), "us"}
		}
	}
	// A statement's storage time is the sum of its bare scans (two for the join).
	scanByReq := map[int]float64{}
	for _, s := range ss.named("storage.scan") {
		scanByReq[s.Req] += spanUs(s)
	}
	if len(scanByReq) > 0 {
		scanUs := make([]float64, 0, len(scanByReq))
		for _, v := range scanByReq {
			scanUs = append(scanUs, v)
		}
		m["storage.scan_us"] = metric{median(scanUs), "us"}
	}
	// The residual before clamping: a median or a sum of residuals lets the
	// noise of separately timed children cancel, where clamping each span
	// first would keep only the noise that adds.
	selfUs := func(s span) float64 { return us(ss.self[s.Span].self - ss.self[s.Span].clamped) }
	for name, spanName := range map[string]string{
		"core.session_self_us": "paradise.session", "network.chain_self_us": "network.exec",
		"engine.self_us": "engine.exec", "server.self_us": "server.http",
	} {
		if spans := ss.named(spanName); len(spans) > 0 {
			m[name] = metric{max(0, medianOf(spans, selfUs)), "us"}
		}
	}

	// The serial engine run is only made for full scans, where workers could pay off.
	serial, parallel := 0.0, 0.0
	for _, cls := range ss.classes {
		if s, ok := ss.profiles[cls].medianUs["engine.exec_serial"]; ok {
			serial += s
			parallel += ss.profiles[cls].medianUs["engine.exec"]
		}
	}
	if parallel > 0 {
		m["engine.par_speedup"] = metric{serial / parallel, "ratio"}
	}

	answered := func(spans []span) []span { // spans that produced rows
		var out []span
		for _, s := range spans {
			if s.Rows > 0 {
				out = append(out, s)
			}
		}
		return out
	}
	rowsOf := func(s span) float64 { return float64(s.Rows) }
	if httpSpans := answered(ss.named("server.http")); len(httpSpans) > 0 {
		m["server.self_us_per_krow"] = metric{max(0, sumOf(httpSpans, selfUs)) / sumOf(httpSpans, rowsOf) * 1000, "us"}
		m["server.bytes_per_row"] = metric{sumOf(httpSpans, func(s span) float64 { return float64(s.Bytes) }) / sumOf(httpSpans, rowsOf), "B"}
	}
	if anon := answered(ss.named("anonymize.mondrian")); len(anon) > 0 {
		m["anonymize.us_per_krow"] = metric{sumOf(anon, spanUs) / sumOf(anon, rowsOf) * 1000, "us"}
	}
	if chain := answered(ss.named("network.exec")); len(chain) > 0 {
		reqs := map[int]bool{}
		for _, s := range chain {
			reqs[s.Req] = true
		}
		opened := 0.0
		for _, s := range ss.named("storage.scan") {
			if reqs[s.Req] {
				opened += float64(s.Rows)
			}
		}
		m["storage.rows_opened_per_row_out"] = metric{opened / sumOf(chain, rowsOf), "ratio"}
	}

	stages, raw, egress, n := 0.0, 0.0, 0.0, 0.0
	for _, op := range ss.ops {
		if op.stages > 0 { // an answered statement
			stages += float64(op.stages)
			raw += float64(op.raw)
			egress += float64(op.egress)
			n++
		}
	}
	if n > 0 {
		m["fragment.stages_per_query"] = metric{stages / n, "count"}
		m["network.raw_bytes_per_query"] = metric{raw / n, "B"}
		m["network.egress_bytes_per_query"] = metric{egress / n, "B"}
		m["network.egress_ratio"] = metric{egress / raw, "ratio"}
	}
	return m
}

// entryPoint is the metric prefix and the span name of a workload's entry.
func (w *workload) entryPoint() (prefix, spanName string) {
	if w.entryHTTP {
		return "server.", "server.http"
	}
	return "paradise.", "paradise.session"
}

// traceMetrics runs the traced pass and fills in the per-layer metrics:
// medians per statement from the spans of the workload's own classes,
// ratios from the program's counters over the timed window, and the
// harness's own costs. What the workload cannot report itself comes from a
// short replay of the other workloads' classes and goes under
// outside_workload. All of it runs after the end-to-end numbers are taken.
func traceMetrics(rep *report, w *workload, o options, sys *system, c *corpus, pools []*pool, ob *observation) error {
	var others []*class
	for _, cls := range allClasses() {
		if !w.has(cls) {
			others = append(others, cls)
		}
	}
	otherPools := drawPools(c, others, o.seed)
	otherVer, err := verify(sys, c, otherPools) // also the result sizes the replay checks against
	if err != nil {
		return err
	}
	passStart := time.Now()
	tr, ops, err := tracedPass(w, sys, append(pools[:len(pools):len(pools)], otherPools...))
	if err != nil {
		return err
	}
	passTook := time.Since(passStart)
	spanFile := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
	if err := writeSpans(spanFile, tr.spans); err != nil {
		return err
	}
	all := spanSet{spans: tr.spans, ops: ops, self: selfTimes(tr.spans), profiles: classProfiles(tr.spans)}
	own := all.of(w.classes)
	m := own.metrics()
	rep.PerLayer = m

	// The program's counters over the timed window.
	queries := float64(max(rep.Attempted, 1))
	st0, st1 := ob.before.storage, ob.after.storage
	scanned := float64(st1.SegmentsScanned - st0.SegmentsScanned)
	skipped := float64(st1.SegmentsSkipped - st0.SegmentsSkipped)
	m["storage.segments_scanned_per_query"] = metric{scanned / queries, "count"}
	m["storage.segments_skipped_per_query"] = metric{skipped / queries, "count"}
	m["storage.segments_opened_per_query"] = metric{float64(st1.SegmentsOpened-st0.SegmentsOpened) / queries, "count"}
	m["storage.skip_ratio"] = metric{skipped / (scanned + skipped), "ratio"}
	hits := float64(ob.after.cache.Hits - ob.before.cache.Hits)
	misses := float64(ob.after.cache.Misses - ob.before.cache.Misses)
	m["core.plan_cache.hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	m["core.plan_cache.evictions"] = metric{float64(ob.after.cache.Evictions - ob.before.cache.Evictions), "count"}

	// The store the workload runs against: what re-opening it cost and what
	// it takes on disk. The write path only where the window has a writer.
	if w == ingestBesideQuery {
		writerWrites(ob.ing).perLayer(m)
		var lag []time.Duration
		for _, a := range ob.ing.appends {
			lag = append(lag, a.lag)
		}
		m["bench.writer_lag_p99_ms"] = metric{percentile(durationsMs(lag), 99), "ms"}
		m["storage.recover_ms"] = metric{ob.rec.recoverMs, "ms"}
		m["storage.disk_bytes_per_wire_byte"] = metric{ob.rec.diskPerWire, "ratio"}
	} else {
		disk, err := dirBytes(sys.dir)
		if err != nil {
			return err
		}
		m["storage.recover_ms"] = metric{sys.recoverMs, "ms"}
		m["storage.disk_bytes_per_wire_byte"] = metric{float64(disk) / float64(ob.loads[len(ob.loads)-1].wireBytes), "ratio"}
	}

	// Per-class medians at the workload's entry point, from the timed window.
	prefix, _ := w.entryPoint()
	windowMs := map[string][]float64{}
	for _, s := range ob.win.samples {
		name := w.classes[s.cls].name
		windowMs[name] = append(windowMs[name], ms(s.dur))
	}
	for name, vals := range windowMs {
		m[prefix+name+".p50_ms"] = metric{median(vals), "ms"}
	}

	// The harness's own costs.
	if w.entryHTTP {
		m["bench.client_us_per_krow"] = metric{clientCostPerKRow(ob.ver.exportBody, ob.ver.exportRows), "us"}
	}
	outer, inner := 0.0, 0.0
	for _, s := range own.spans {
		outer += float64(s.outerNs)
		inner += float64(s.EndNs - s.StartNs)
	}
	m["bench.trace_overhead_ratio"] = metric{outer / inner, "ratio"}

	// Outside the workload: the same definitions over the other classes'
	// replays, their entry-point spans for the per-class medians, and the
	// set-ups' bulk loads for the write path.
	outside := all.of(others).metrics()
	for _, wl := range workloads {
		prefix, spanName := wl.entryPoint()
		for _, cls := range wl.classes {
			outside[prefix+cls.name+".p50_ms"] = metric{all.profiles[cls.name].medianUs[spanName] / 1000, "ms"}
		}
	}
	bulkLoadWrites(ob.loads).perLayer(outside)
	outside["bench.client_us_per_krow"] = metric{clientCostPerKRow(otherVer.exportBody, otherVer.exportRows), "us"}
	for name, v := range outside {
		if _, ok := m[name]; !ok {
			rep.Outside[name] = v
		}
	}

	rep.Shares, rep.Notes = layerShares(all.profiles, w), append(rep.Notes,
		fmt.Sprintf("the traced pass replayed %d operations as %d spans in %.1f s; spans are in %s", len(ops), len(tr.spans), passTook.Seconds(), spanFile),
		fmt.Sprintf("per_layer: medians per statement over the traced pass's spans of this workload's classes, counter deltas and per-class p50s over the timed window; outside_workload: the other workloads' classes, replayed %d times each after the window, and the set-ups' bulk loads", outsideReplays),
		fmt.Sprintf("the traced pass ran with the collector's target at GOGC=%d so that a parent and its separately timed children see like conditions; the timed window ran under the default", tracedGCPercent))
	rep.Notes = append(rep.Notes, clampNotes(all.profiles, w)...)
	return nil
}

// profile is one class's part of the traced pass boiled down to medians:
// per span name the median time per request, and which names are timed as
// whose children. The children are calls of their own, made after the
// parent's, so only medians can be set against each other: a collector
// cycle that overlaps one child says nothing about where a request's time
// goes.
type profile struct {
	medianUs map[string]float64
	children map[string][]string
}

func classProfiles(spans []span) map[string]profile {
	type key struct{ class, name string }
	perReq := map[key]map[int]float64{} // a join's two bare scans add up
	out := map[string]profile{}
	for _, s := range spans {
		k := key{s.Class, s.Name}
		if perReq[k] == nil {
			perReq[k] = map[int]float64{}
			if _, ok := out[s.Class]; !ok {
				out[s.Class] = profile{medianUs: map[string]float64{}, children: map[string][]string{}}
			}
			if s.Parent != 0 {
				parent := spans[s.Parent-1].Name
				out[s.Class].children[parent] = append(out[s.Class].children[parent], s.Name)
			}
		}
		perReq[k][s.Req] += spanUs(s)
	}
	for k, byReq := range perReq {
		vals := make([]float64, 0, len(byReq))
		for _, v := range byReq {
			vals = append(vals, v)
		}
		out[k.class].medianUs[k.name] = median(vals)
	}
	return out
}

// residual is the span's median minus its children's: its self time when
// positive, the amount clamped away when negative.
func (p profile) residual(name string) float64 {
	r := p.medianUs[name]
	for _, child := range p.children[name] {
		r -= p.medianUs[child]
	}
	return r
}

func layerOf(spanName string) string { return spanName[:strings.IndexByte(spanName, '.')] }

// layerShares gives, per class of the workload, each layer's share of the
// entry-point span: the self times of the layer's spans on the request's
// path — the entry point and everything timed below it — over the entry
// point's median.
func layerShares(profiles map[string]profile, w *workload) map[string]any {
	entry := "paradise.session"
	if w.entryHTTP {
		entry = "server.http"
	}
	out := map[string]any{}
	for _, cls := range w.classes {
		p := profiles[cls.name]
		byLayer := map[string]float64{}
		path := []string{entry}
		for len(path) > 0 {
			name := path[0]
			path = append(path[1:], p.children[name]...)
			byLayer[layerOf(name)] += max(0, p.residual(name)) / p.medianUs[entry]
		}
		out[cls.name] = byLayer
	}
	return out
}

// clampNotes reports, per class of the workload, the spans whose children
// add up to more than the span itself by over 5% of it.
func clampNotes(profiles map[string]profile, w *workload) []string {
	var notes []string
	for _, cls := range w.classes {
		p := profiles[cls.name]
		for name := range p.children {
			if excess := -p.residual(name) / p.medianUs[name]; excess > 0.05 {
				notes = append(notes, fmt.Sprintf("clamped negative self time: %s %s, the children's medians exceed the span's by %.0f%% of it", cls.name, name, excess*100))
			}
		}
	}
	sort.Strings(notes)
	return notes
}
