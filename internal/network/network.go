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
	// engine declined.
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
	return drain(Open(ctx, topo, plan, src, opts...))
}

// RunFanIn is Run with the base data spread round-robin over sensorCount
// sensor nodes — the paper's real node counts (Table 1: >= 100 sensors
// feed 10-50 appliances feeding one PC). When stage 1 is seated on the
// sensor rung, every sensor runs it over its own shard in parallel: its
// compute and memory check use the largest shard, and the sensor->appliance
// link pays one shipment latency per sensor (they share the radio medium).
// Rows, per-link traffic and egress are Run's; only simulated time differs.
func RunFanIn(ctx context.Context, topo *Topology, plan *fragment.Plan, src engine.Source, sensorCount int, opts ...Option) (*RunStats, error) {
	if sensorCount < 1 {
		return nil, fmt.Errorf("%w: sensor count must be >= 1", ErrNetwork)
	}
	st, err := Open(ctx, topo, plan, src, opts...)
	if err == nil {
		st.sensors = sensorCount
	}
	return drain(st, err)
}

// drain pulls an opened stream to the end and returns its stats with the
// materialized result attached.
func drain(st *Stream, err error) (*RunStats, error) {
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
	topo    *Topology
	plan    *fragment.Plan
	chain   *fragment.Chain
	baseIn  int // input rows of the first fragment (base relations)
	raw     int // wire size of the base relations the plan reads
	sensors int // sensor nodes holding a shard of the base data (RunFanIn)
	stats   *RunStats
	err     error
	closed  bool
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
	baseIn, _, raw := baseStats(plan.Fragments[0].Root, plan.Root, src)
	return &Stream{
		topo:    topo,
		plan:    plan,
		chain:   chain,
		baseIn:  baseIn,
		raw:     raw,
		sensors: 1,
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
	s.stats, s.err = placeStats(s.topo, s.plan, s.chain.Stages(), s.baseIn, s.raw, s.sensors)
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
// bytes and time accounted per link. It is the only code that seats a
// fragment on a node.
//
// sensors is the number of sensor nodes the base data is spread over (1
// for Run). Stage 1 seated on node 0 then runs on every sensor at once:
// each holds and computes only the largest shard, and the shipment over
// link 0 pays one latency per sensor.
func placeStats(topo *Topology, plan *fragment.Plan, stages []fragment.StageResult, baseIn, raw, sensors int) (*RunStats, error) {
	stats := &RunStats{RawBytes: raw}
	hop := make([]HopTraffic, len(topo.Links))
	for i := range hop {
		hop[i] = HopTraffic{Link: topo.Links[i]}
	}

	pos := 0 // index of the node currently holding the data
	used := make([]bool, len(topo.Nodes))
	var simMs float64
	// The data at pos: first the raw base relations resident at the bottom
	// node, then each stage's output.
	prevRows, prevBytes := baseIn, raw
	link0Ships := 1 // shipments sharing link 0

	// ship moves the current data over links pos..to-1.
	ship := func(to int) {
		for h := pos; h < to; h++ {
			hop[h].Bytes += prevBytes
			hop[h].Rows += prevRows
			lat := topo.Links[h].LatencyMs
			if h == 0 {
				lat *= float64(link0Ships)
			}
			simMs += lat + float64(prevBytes)/topo.Links[h].BytesPerMs
		}
	}

	for i, f := range plan.Fragments {
		// need is the input node n must hold to run the fragment: stage 1
		// on the sensors holds one sensor's shard of the base data.
		need := func(n int) int {
			if i == 0 && n == 0 {
				return (prevRows + sensors - 1) / sensors
			}
			return prevRows
		}

		// The cost-based placement (when computed) raises the target rung
		// above the MinLevel floor; the floor itself is never lowered.
		want := f.EffectiveLevel()

		exec := pos
		fellBack := false
		for exec < topo.CloudIndex() &&
			(topo.Nodes[exec].Level < want || topo.Nodes[exec].MemRows < need(exec) || used[exec]) {
			if topo.Nodes[exec].Level >= want && topo.Nodes[exec].MemRows < need(exec) {
				fellBack = true // capable but too weak: §3.2 fallback
			}
			exec++
		}
		if topo.Nodes[exec].Level < f.MinLevel {
			return nil, fmt.Errorf("%w: no node can run fragment Q%d (needs %s)",
				ErrNetwork, f.Stage, f.MinLevel)
		}

		// Ship the current data up to the execution node. When the first
		// fragment runs above the bottom node (a join needing an appliance,
		// a placement decision), the raw base data crosses links like any
		// other stage input.
		ship(exec)
		if exec == 0 {
			link0Ships = sensors
		}
		pos = exec
		used[pos] = true
		node := topo.Nodes[pos]
		if node.Power > 0 {
			simMs += float64(need(pos)) / node.Power / 1000
		}

		stats.Assignments = append(stats.Assignments, Assignment{
			Fragment: f, Node: node, InRows: prevRows,
			OutRows: stages[i].Rows, OutBytes: stages[i].Bytes,
			FellBack: fellBack,
			Columnar: stages[i].Columnar, Declined: stages[i].Declined,
		})
		prevRows, prevBytes = stages[i].Rows, stages[i].Bytes
	}

	// The final result always travels to the cloud (the requester).
	ship(topo.CloudIndex())

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
	// Every base relation the query touches ships whole: |d|.
	_, rawRows, raw := baseStats(root, root, src)
	stats := &RunStats{RawBytes: raw}

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

// relationStatser is the optional fast path for sizing base relations:
// storage.Store implements it with O(1) cached counters, so opening a
// streaming run does not materialize (or even walk) the base tables.
type relationStatser interface {
	RelationStats(name string) (rows, wireBytes int, err error)
}

// baseStats sizes the base relations — the one definition of |d| shared by
// every run flavour. in is the row count the stage-1 tree first reads (a
// table it reads twice counts twice); rows and raw are the row count and
// wire size of every distinct base relation root reads. Sources without
// the O(1) stats fast path are materialized once per distinct table.
func baseStats(first, root logical.Node, src engine.Source) (in, rows, raw int) {
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
	for _, t := range logical.BaseTables(first) {
		in += load(t).rows
	}
	seen := map[string]bool{}
	for _, t := range logical.BaseTables(root) {
		if seen[t] {
			continue
		}
		seen[t] = true
		rows += load(t).rows
		raw += load(t).bytes
	}
	return in, rows, raw
}
