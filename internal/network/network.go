package network

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"paradise/internal/engine"
	"paradise/internal/fragment"
	logical "paradise/internal/plan"
	"paradise/internal/schema"
)

// ErrNetwork wraps simulation errors.
var ErrNetwork = errors.New("network: simulation error")

// Node is one processing peer of the vertical chain.
type Node struct {
	// Name identifies the node ("sensor", "appliance", ...).
	Name string
	// Level is the node's capability rung (Table 1).
	Level fragment.Level
	// Power is the relative processing speed in rows per microsecond.
	Power float64
	// MemRows caps how many input rows the node can materialize. A
	// fragment whose input exceeds the cap triggers the §3.2 fallback:
	// "the raw data will be sent to a more powerful node".
	MemRows int
}

// Link connects two adjacent chain nodes.
type Link struct {
	// From and To name the lower and upper node.
	From, To string
	// BytesPerMs is the bandwidth.
	BytesPerMs float64
	// LatencyMs is the per-shipment latency.
	LatencyMs float64
}

// Topology is a bottom-up chain of nodes. Base sensor data lives at
// Nodes[0]; Links[i] connects Nodes[i] to Nodes[i+1].
type Topology struct {
	Nodes []*Node
	Links []*Link
}

// Validate checks chain consistency.
func (t *Topology) Validate() error {
	if len(t.Nodes) < 2 {
		return fmt.Errorf("%w: chain needs at least two nodes", ErrNetwork)
	}
	if len(t.Links) != len(t.Nodes)-1 {
		return fmt.Errorf("%w: %d nodes need %d links, have %d",
			ErrNetwork, len(t.Nodes), len(t.Nodes)-1, len(t.Links))
	}
	for i, l := range t.Links {
		if l.From != t.Nodes[i].Name || l.To != t.Nodes[i+1].Name {
			return fmt.Errorf("%w: link %d (%s->%s) does not match chain order (%s->%s)",
				ErrNetwork, i, l.From, l.To, t.Nodes[i].Name, t.Nodes[i+1].Name)
		}
		if l.BytesPerMs <= 0 {
			return fmt.Errorf("%w: link %s->%s has non-positive bandwidth", ErrNetwork, l.From, l.To)
		}
	}
	for i := 1; i < len(t.Nodes); i++ {
		if t.Nodes[i].Level < t.Nodes[i-1].Level {
			return fmt.Errorf("%w: node %s (%s) less capable than the node below it",
				ErrNetwork, t.Nodes[i].Name, t.Nodes[i].Level)
		}
	}
	if t.Nodes[len(t.Nodes)-1].Level != fragment.LevelCloud {
		return fmt.Errorf("%w: top node must be the cloud", ErrNetwork)
	}
	return nil
}

// CloudIndex returns the index of the top node.
func (t *Topology) CloudIndex() int { return len(t.Nodes) - 1 }

// EgressLink returns the last link — the one crossing the apartment
// boundary into the cloud.
func (t *Topology) EgressLink() *Link { return t.Links[len(t.Links)-1] }

// DefaultApartment builds the Figure 3 chain: sensor → appliance →
// media center → apartment PC → cloud. Power and bandwidth values model the
// relative capabilities of Table 1 (absolute values are arbitrary but
// consistent: each rung is roughly an order of magnitude faster).
func DefaultApartment() *Topology {
	return &Topology{
		Nodes: []*Node{
			{Name: "sensor", Level: fragment.LevelSensor, Power: 0.01, MemRows: 50_000},
			{Name: "appliance", Level: fragment.LevelAppliance, Power: 0.1, MemRows: 500_000},
			{Name: "mediacenter", Level: fragment.LevelAppliance, Power: 0.5, MemRows: 2_000_000},
			{Name: "pc", Level: fragment.LevelPC, Power: 2, MemRows: 20_000_000},
			{Name: "cloud", Level: fragment.LevelCloud, Power: 20, MemRows: 1 << 40},
		},
		Links: []*Link{
			{From: "sensor", To: "appliance", BytesPerMs: 31, LatencyMs: 5},         // 250 kbit/s sensor radio
			{From: "appliance", To: "mediacenter", BytesPerMs: 1_250, LatencyMs: 2}, // 10 Mbit/s home network
			{From: "mediacenter", To: "pc", BytesPerMs: 12_500, LatencyMs: 1},       // 100 Mbit/s LAN
			{From: "pc", To: "cloud", BytesPerMs: 1_250, LatencyMs: 20},             // 10 Mbit/s uplink
		},
	}
}

// Option configures a simulated run.
type Option func(*runConfig)

type runConfig struct{ par int }

// WithParallelism sets how many worker goroutines each node may use for
// its fragment's pipeline (intra-fragment, morsel-driven parallelism —
// the vertical placement is unchanged): n <= 0 means
// runtime.GOMAXPROCS(0), 1 (the default) keeps execution serial. Results
// and the Figure 3 accounting are identical either way; the knob only
// changes wall-clock time on multi-core nodes.
func WithParallelism(n int) Option {
	return func(c *runConfig) { c.par = n }
}

// HopTraffic records bytes shipped over one link during a run.
type HopTraffic struct {
	Link  *Link
	Bytes int
	Rows  int
}

// Assignment records where a fragment executed.
type Assignment struct {
	Fragment *fragment.Fragment
	Node     *Node
	InRows   int
	OutRows  int
	OutBytes int
	// FellBack is set when the §3.2 weak-node fallback forwarded raw data
	// past the intended node.
	FellBack bool
	// Columnar and Declined say in which representation the output left the
	// stage (fragment.StageResult): column batches, or rows and why the
	// engine declined. Both are zero for RunFanIn's materialized stages.
	Columnar bool
	Declined string
}

// Path renders Columnar/Declined as "columnar" or "rows: <reason>"; "" when
// the stage did not run on the chain.
func (a Assignment) Path() string {
	if !a.Columnar && a.Declined == "" {
		return ""
	}
	return fragment.StageResult{Columnar: a.Columnar, Declined: a.Declined}.Path()
}

// RunStats is the outcome of a simulated execution.
type RunStats struct {
	Result      *engine.Result
	Assignments []Assignment
	Traffic     []HopTraffic
	// EgressBytes is the data volume leaving the apartment (d′).
	EgressBytes int
	// RawBytes is the size of the raw base data at the sensor (d).
	RawBytes int
	// SimTime is the simulated wall-clock: compute plus transfer.
	SimTime time.Duration
}

// Reduction returns |d| / |d′| — how much less data leaves the apartment
// than the raw data the naive execution would ship.
func (r *RunStats) Reduction() float64 {
	if r.EgressBytes == 0 {
		if r.RawBytes == 0 {
			return 1
		}
		return float64(r.RawBytes)
	}
	return float64(r.RawBytes) / float64(r.EgressBytes)
}

// Summary renders the run for reports.
func (r *RunStats) Summary() string {
	var b strings.Builder
	for _, a := range r.Assignments {
		fb := ""
		if a.FellBack {
			fb = " [fallback]"
		}
		est := ""
		if a.Fragment.EstRows > 0 || a.Fragment.EstBytes > 0 {
			est = fmt.Sprintf(" est=%d rows/%d bytes", a.Fragment.EstRows, a.Fragment.EstBytes)
		}
		fmt.Fprintf(&b, "Q%d @ %-12s in=%-8d out=%-8d bytes=%-10d%s%s\n",
			a.Fragment.Stage, a.Node.Name, a.InRows, a.OutRows, a.OutBytes, est, fb)
	}
	for _, h := range r.Traffic {
		fmt.Fprintf(&b, "link %-12s -> %-12s rows=%-8d bytes=%d\n", h.Link.From, h.Link.To, h.Rows, h.Bytes)
	}
	fmt.Fprintf(&b, "egress (d'): %d bytes, raw (d): %d bytes, reduction %.1fx, simulated time %v\n",
		r.EgressBytes, r.RawBytes, r.Reduction(), r.SimTime)
	return b.String()
}

// Run executes a fragment plan over the topology. Base relations are read
// from src (conceptually resident at the bottom node). Each fragment runs on
// the lowest node at or above the current data position that satisfies its
// capability level and memory cap; the fragment's input ships hop by hop to
// that node, with bytes and time accounted per link.
//
// Run is Open followed by a full drain: the streaming path and this
// materialized path share one pipeline and one accounting routine, so a
// cursor that drains a Stream observes byte-identical RunStats.
func Run(ctx context.Context, topo *Topology, plan *fragment.Plan, src engine.Source, opts ...Option) (*RunStats, error) {
	st, err := Open(ctx, topo, plan, src, opts...)
	if err != nil {
		return nil, err
	}
	rows, err := schema.DrainIterator(st) // closes st, also on error
	if err != nil {
		return nil, err
	}
	stats, err := st.Stats()
	if err != nil {
		return nil, err
	}
	stats.Result = &engine.Result{Schema: st.Schema(), Rows: rows}
	return stats, nil
}

// Stream is an opened chain execution: the plan's fragments wired into one
// lazy batch pipeline (fragment.OpenChain) whose final output the consumer
// pulls batch-at-a-time. Node placement, per-link traffic and simulated
// time — the Figure 3 quantities — are derived from the per-stage
// accounting once the chain is drained, so they are exactly the stats a
// materialized Run would report.
//
// The consumer must Close the stream (idempotent); Close drains the
// remaining pipeline first, because every node is a store-and-forward hop
// that ships its whole output regardless of how much the requester reads.
type Stream struct {
	topo   *Topology
	plan   *fragment.Plan
	chain  *fragment.Chain
	baseIn int // input rows of the first fragment (base relations)
	raw    int // wire size of the base relations the plan reads
	stats  *RunStats
	err    error
	closed bool
}

// Open validates the topology (including that every fragment's capability
// level is satisfiable at all — infeasible plans fail here, not after the
// consumer has seen rows) and wires the plan into a lazy pipeline bound to
// ctx. No query execution happens yet — the accounting does probe the base
// relations once up front to size |d| (raw bytes and first-fragment input
// rows); cancellation is checked per batch at every scan once the consumer
// starts pulling.
func Open(ctx context.Context, topo *Topology, plan *fragment.Plan, src engine.Source, opts ...Option) (*Stream, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	cfg := runConfig{par: 1}
	for _, o := range opts {
		o(&cfg)
	}
	top := topo.Nodes[topo.CloudIndex()]
	for _, f := range plan.Fragments {
		if f.MinLevel > top.Level {
			return nil, fmt.Errorf("%w: no node can run fragment Q%d (needs %s)",
				ErrNetwork, f.Stage, f.MinLevel)
		}
	}
	chain, err := fragment.OpenChain(ctx, plan, src, fragment.WithParallelism(cfg.par))
	if err != nil {
		return nil, fmt.Errorf("network: open chain: %w", err)
	}
	baseIn, raw := baseStats(plan, src)
	return &Stream{
		topo:   topo,
		plan:   plan,
		chain:  chain,
		baseIn: baseIn,
		raw:    raw,
	}, nil
}

// Schema is the output relation of the final fragment.
func (s *Stream) Schema() *schema.Relation { return s.chain.Schema() }

// Next pulls the next batch of the final fragment's output. A nil batch
// means the chain is exhausted; the caller should then Close and read
// Stats.
func (s *Stream) Next() (schema.Rows, error) {
	if s.closed {
		return nil, s.err
	}
	batch, err := s.chain.Iterator().Next()
	if err != nil && s.err == nil {
		s.err = err
	}
	return batch, err
}

// Columnar reports whether the final fragment's output can be pulled as
// column batches (see fragment.Chain.Columnar).
func (s *Stream) Columnar() bool { return s.chain.Columnar() }

// NextBatch is Next for a Columnar stream: the same output, unpivoted. A
// nil batch means the chain is exhausted.
func (s *Stream) NextBatch() (*schema.ColBatch, error) {
	if s.closed {
		return nil, s.err
	}
	cb, err := s.chain.NextBatch()
	if err != nil && s.err == nil {
		s.err = err
	}
	return cb, err
}

// Close drains the remaining pipeline (finalizing every stage's
// accounting), then derives the placement stats. Idempotent.
func (s *Stream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if err := s.chain.Close(); err != nil && s.err == nil {
		s.err = err
	}
	if s.err != nil {
		return
	}
	s.stats, s.err = placeStats(s.topo, s.plan, s.chain.Stages(), s.baseIn, s.raw)
}

// Stats returns the Figure 3 accounting of the fully drained chain,
// closing the stream if the caller has not already. Stats.Result is nil on
// the streaming path — the rows went to the consumer, batch by batch.
func (s *Stream) Stats() (*RunStats, error) {
	s.Close()
	if s.err != nil {
		return nil, s.err
	}
	return s.stats, nil
}

// placeStats replays the paper's placement walk over the recorded per-stage
// accounting: each fragment runs on the lowest unused node at or above the
// current data position that satisfies its capability level and memory cap
// — each node runs at most one fragment except the cloud, which absorbs any
// overflow — and the fragment's input ships hop by hop to that node, with
// bytes and time accounted per link.
func placeStats(topo *Topology, plan *fragment.Plan, stages []fragment.StageResult, baseIn, raw int) (*RunStats, error) {
	stats := &RunStats{RawBytes: raw}
	hop := make([]HopTraffic, len(topo.Links))
	for i := range hop {
		hop[i] = HopTraffic{Link: topo.Links[i]}
	}

	pos := 0 // index of the node currently holding the data
	used := make([]bool, len(topo.Nodes))
	var simMs float64
	prevRows, prevBytes := 0, 0

	for i, f := range plan.Fragments {
		// Input row count for memory checks: the first fragment reads base
		// data directly, later fragments read the previous stage's output.
		inRows := prevRows
		if i == 0 {
			inRows = baseIn
		}

		// The cost-based placement (when computed) raises the target rung
		// above the MinLevel floor; the floor itself is never lowered.
		want := f.EffectiveLevel()

		exec := pos
		fellBack := false
		for exec < topo.CloudIndex() &&
			(topo.Nodes[exec].Level < want || topo.Nodes[exec].MemRows < inRows || used[exec]) {
			if topo.Nodes[exec].Level >= want && topo.Nodes[exec].MemRows < inRows {
				fellBack = true // capable but too weak: §3.2 fallback
			}
			exec++
		}
		if topo.Nodes[exec].Level < f.MinLevel {
			return nil, fmt.Errorf("%w: no node can run fragment Q%d (needs %s)",
				ErrNetwork, f.Stage, f.MinLevel)
		}

		// Ship the current data up to the execution node. Stage 1's input
		// is the raw base data resident at the bottom node — when the first
		// fragment runs above it (a join needing an appliance, a placement
		// decision), that shipment crosses links like any other.
		shipRows, shipBytes := prevRows, prevBytes
		if i == 0 {
			shipRows, shipBytes = baseIn, raw
		}
		for h := pos; h < exec; h++ {
			hop[h].Bytes += shipBytes
			hop[h].Rows += shipRows
			simMs += topo.Links[h].LatencyMs + float64(shipBytes)/topo.Links[h].BytesPerMs
		}
		pos = exec
		used[pos] = true
		node := topo.Nodes[pos]
		if node.Power > 0 {
			simMs += float64(inRows) / node.Power / 1000
		}

		stats.Assignments = append(stats.Assignments, Assignment{
			Fragment: f, Node: node, InRows: inRows,
			OutRows: stages[i].Rows, OutBytes: stages[i].Bytes,
			FellBack: fellBack,
			Columnar: stages[i].Columnar, Declined: stages[i].Declined,
		})
		prevRows, prevBytes = stages[i].Rows, stages[i].Bytes
	}

	// The final result always travels to the cloud (the requester).
	for h := pos; h < topo.CloudIndex(); h++ {
		hop[h].Bytes += prevBytes
		hop[h].Rows += prevRows
		simMs += topo.Links[h].LatencyMs + float64(prevBytes)/topo.Links[h].BytesPerMs
	}

	stats.Traffic = hop
	stats.EgressBytes = hop[len(hop)-1].Bytes
	stats.SimTime = time.Duration(simMs * float64(time.Millisecond))
	return stats, nil
}

// RunNaive simulates the baseline without fragmentation: the raw base data
// ships all the way to the cloud, which executes the whole logical plan
// there. The plan is optimized against the source before execution; the
// caller cedes ownership of the tree.
func RunNaive(ctx context.Context, topo *Topology, root logical.Node, src engine.Source, opts ...Option) (*RunStats, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	cfg := runConfig{par: 1}
	for _, o := range opts {
		o(&cfg)
	}
	stats := &RunStats{}

	// Total raw bytes of every base relation the query touches.
	raw := 0
	rawRows := 0
	for _, tbl := range logical.BaseTables(root) {
		_, rows, err := src.Relation(tbl)
		if err != nil {
			return nil, fmt.Errorf("network: naive run: %w", err)
		}
		raw += rows.WireSize()
		rawRows += len(rows)
	}
	stats.RawBytes = raw

	hop := make([]HopTraffic, len(topo.Links))
	var simMs float64
	for i := range hop {
		hop[i] = HopTraffic{Link: topo.Links[i], Bytes: raw, Rows: rawRows}
		simMs += topo.Links[i].LatencyMs + float64(raw)/topo.Links[i].BytesPerMs
	}

	eng := engine.New(src).WithParallelism(cfg.par)
	root = logical.Optimize(root, logical.Options{Catalog: eng.Catalog(), CrossBlock: true})
	res, err := eng.SelectPlan(ctx, root)
	if err != nil {
		return nil, fmt.Errorf("network: naive cloud execution: %w", err)
	}
	cloud := topo.Nodes[topo.CloudIndex()]
	if cloud.Power > 0 {
		simMs += float64(rawRows) / cloud.Power / 1000
	}

	stats.Result = res
	stats.Traffic = hop
	stats.EgressBytes = raw
	stats.SimTime = time.Duration(simMs * float64(time.Millisecond))
	stats.Assignments = []Assignment{{Node: cloud, InRows: rawRows, OutRows: len(res.Rows), OutBytes: res.Rows.WireSize()}}
	return stats, nil
}

// overlaySource exposes an intermediate result under its stage name on top
// of the base source. It implements engine.BatchSource so the next
// fragment's scan streams the overlay rows (with any pushed-down filter and
// projection) instead of re-materializing them.
type overlaySource struct {
	base engine.Source
	name string
	rel  *schema.Relation
	rows schema.Rows
}

func (o *overlaySource) Relation(name string) (*schema.Relation, schema.Rows, error) {
	if name == o.name {
		return o.rel, o.rows, nil
	}
	return o.base.Relation(name)
}

func (o *overlaySource) RelationSchema(name string) (*schema.Relation, error) {
	if name == o.name {
		return o.rel, nil
	}
	return engine.RelationSchema(o.base, name)
}

func (o *overlaySource) OpenScan(ctx context.Context, name string, sc schema.Scan) (schema.RowIterator, error) {
	if name == o.name {
		return schema.ScanRows(o.rows, sc), nil
	}
	return engine.OpenScan(ctx, o.base, name, sc)
}

// rawSize measures the wire size of every base relation the plan reads —
// the |d| of Figure 3. One definition for every run flavour: it delegates
// to baseStats so streaming, materialized and fan-in stats can never
// disagree on what counts as raw data.
func rawSize(plan *fragment.Plan, src engine.Source) int {
	_, raw := baseStats(plan, src)
	return raw
}

// relationStatser is the optional fast path for sizing base relations:
// storage.Store implements it with O(1) cached counters, so opening a
// streaming run does not materialize (or even walk) the base tables.
type relationStatser interface {
	RelationStats(name string) (rows, wireBytes int, err error)
}

// baseStats measures, in one pass over the base relations, the input row
// count of the first fragment and the wire size of every base relation the
// plan reads — the |d| of Figure 3. Sources without the O(1) stats fast
// path are materialized once per distinct table.
func baseStats(plan *fragment.Plan, src engine.Source) (baseIn, raw int) {
	type stat struct{ rows, bytes int }
	cache := map[string]stat{}
	load := func(t string) stat {
		if s, ok := cache[t]; ok {
			return s
		}
		var s stat
		if rs, ok := src.(relationStatser); ok {
			if rows, bytes, err := rs.RelationStats(t); err == nil {
				s = stat{rows: rows, bytes: bytes}
				cache[t] = s
				return s
			}
		}
		if _, rows, err := src.Relation(t); err == nil {
			s = stat{rows: len(rows), bytes: rows.WireSize()}
		}
		cache[t] = s
		return s
	}
	for _, t := range logical.BaseTables(plan.Fragments[0].Root) {
		baseIn += load(t).rows
	}
	seen := map[string]bool{}
	for _, t := range logical.BaseTables(plan.Root) {
		if seen[t] {
			continue
		}
		seen[t] = true
		raw += load(t).bytes
	}
	return baseIn, raw
}
