package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/graph"
	"hsgf/internal/router"
	"hsgf/internal/serve"
)

// outcome collects one run's counts, metrics and oracle verdicts.
type outcome struct {
	cfg       config
	attempted int64
	failed    int64
	errs      []string
	// mismatches are the first oracle disagreements; mismatched counts
	// them all. Each is a failed operation and fails the run.
	mismatches []string
	mismatched int64

	metrics map[string]float64 // end-to-end, by BENCHMARK.json name
	layer   map[string]float64 // per-layer, by BENCHMARK.json name
	rss     float64
	rec     *runRecord
	// tr records spans on traced runs; nil otherwise.
	tr *tracer
}

func newOutcome(cfg config, rec *runRecord) *outcome {
	return &outcome{cfg: cfg, metrics: map[string]float64{}, layer: map[string]float64{}, rec: rec}
}

func (o *outcome) note(list *[]string, msg string) {
	if len(*list) < 5 {
		*list = append(*list, msg)
	}
}

// count adds a phase's operations, warm-up phases included: every
// operation the run attempts is in attempted, and every failure fails
// the run.
func (o *outcome) count(p opPhase) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, e := range p.errs {
		o.note(&o.errs, e)
	}
}

func (o *outcome) batch(b batchPhase) {
	o.attempted += int64(b.roots)
	o.failed += int64(b.flagged)
	if b.flagged > 0 {
		o.note(&o.errs, fmt.Sprintf("%d census roots flagged", b.flagged))
	}
}

func (o *outcome) mismatch(format string, args ...any) {
	o.mismatched++
	o.note(&o.mismatches, fmt.Sprintf(format, args...))
}

// setup records set-up: setup_s is the median of the reps, as are the
// per-layer times of the public calls it is made of.
func (o *outcome) setup(phs []setupPhases) {
	m := setupMedians(phs)
	o.metrics["setup_s"] = m.total
	for _, p := range phs {
		o.rec.SetupReps = append(o.rec.SetupReps, p.total)
	}
	o.layer["store.save_graph_s"] = m.saveGraph
	o.layer["store.load_graph_s"] = m.loadGraph
	o.layer["graph.partition_s"] = m.partition
	o.layer["ingest.open_s"] = m.openIngest
}

// e2e records the workload's operation latency and throughput: the
// BENCHMARK.json metrics are medians over the phase's time windows,
// the record keeps every window's figures and the whole-phase
// percentiles under the workload's own names with their sample counts.
func (o *outcome) e2e(p opPhase, p50, tail pct, perSecName string, windows int) {
	mid, rates := windowed(p.lat, p.at, p.elapsed, windows, p50.P)
	high, _ := windowed(p.lat, p.at, p.elapsed, windows, tail.P)
	o.windows(windows, mid, high, rates)
	o.rec.Percentiles = append(o.rec.Percentiles, p50, tail)
	o.rec.Named[p50.Name] = p50.Value
	o.rec.Named[tail.Name] = tail.Value
	o.rec.Named[perSecName] = p.perSecond()
}

// e2eBatch is e2e for extraction rounds: per-root census latency, and
// roots per second of census, feature-set and save time (a round falls
// in the window it ends in).
func (o *outcome) e2eBatch(b batchPhase, p50, tail pct) {
	elapsed := time.Duration(0)
	if n := len(b.rounds); n > 0 {
		elapsed = b.rounds[n-1].at
	}
	n := windowsIn(elapsed)
	mid, _ := windowed(b.rootLat, b.rootAt, elapsed, n, p50.P)
	high, _ := windowed(b.rootLat, b.rootAt, elapsed, n, tail.P)
	w := elapsed / time.Duration(n)
	roots := make([]float64, n)
	busy := make([]time.Duration, n)
	for _, r := range b.rounds {
		i := n - 1
		if w > 0 && int(r.at/w) < n {
			i = int(r.at / w)
		}
		roots[i] += float64(r.roots)
		busy[i] += r.busy
	}
	var rates []float64
	for i := range roots {
		if busy[i] > 0 {
			rates = append(rates, roots[i]/busy[i].Seconds())
		}
	}
	o.windows(n, mid, high, rates)
	o.rec.Percentiles = append(o.rec.Percentiles, p50, tail)
	o.rec.Named[p50.Name] = p50.Value
	o.rec.Named[tail.Name] = tail.Value
	o.rec.Named["roots_per_s"] = b.rootsPerSecond()
}

// windows sets op_p50_ms, op_tail_ms and ops_per_s from per-window
// figures and keeps those in the record.
func (o *outcome) windows(n int, mid, high, rates []float64) {
	o.metrics["op_p50_ms"] = median(slices.Clone(mid))
	o.metrics["op_tail_ms"] = median(slices.Clone(high))
	o.metrics["ops_per_s"] = median(slices.Clone(rates))
	o.rec.Windows = n
	o.rec.WindowFigures = map[string][]float64{"op_p50_ms": mid, "op_tail_ms": high, "ops_per_s": rates}
}

// layerTable records, per span name, how many spans the traced phase
// had and their summed self time as a share of the root spans' time.
func (o *outcome) layerTable(a *analysis) {
	o.rec.Layers = map[string]layerRow{}
	for name, selves := range a.self {
		sum := sumSeconds(selves)
		o.rec.Layers[name] = layerRow{Spans: len(selves), SelfS: sum, Share: ratio(sum, a.rootTotal.Seconds())}
	}
}

// readLayers fills the router and serve layers of the read path from
// the traced phase's spans and /debug/stats counter deltas.
func (o *outcome) readLayers(a *analysis, c counters) {
	self := a.self["router.features"]
	o.layer["router.self_p50_ms"] = quantile("", self, 0.50).Value
	o.layer["router.self_p99_ms"] = quantile("", self, 0.99).Value
	calls := a.dur["serve.features"]
	o.layer["serve.call_p50_ms"] = quantile("", calls, 0.50).Value
	o.layer["serve.call_p99_ms"] = quantile("", calls, 0.99).Value
	o.layer["router.shard_calls_per_request"] = ratio(c.shardCalls, c.requests)
	o.layer["router.hedge_ratio"] = ratio(c.hedges, c.shardCalls)
	o.layer["serve.cache_hit_ratio"] = ratio(c.hits, c.hits+c.misses)
	o.layer["serve.coalesced_ratio"] = ratio(c.coalesced, c.misses)
	o.layer["serve.shed"] = c.shed
	o.layer["trace.residual_ratio"] = a.residualRatio()
	o.layerTable(a)
}

// writeLayers fills the router sequencer and ingest layers.
func (o *outcome) writeLayers(a *analysis, c counters, writes int64) {
	o.layer["router.seq_self_p50_ms"] = quantile("", a.seqSelf, 0.50).Value
	fol := a.dur["ingest.follower"]
	o.layer["ingest.follower_p50_ms"] = quantile("", fol, 0.50).Value
	o.layer["ingest.follower_p90_ms"] = quantile("", fol, 0.90).Value
	o.layer["ingest.apply_p50_ms"] = c.applyP50MSMax
	o.layer["ingest.dirty_roots_max"] = c.dirtyMax
	o.layer["ingest.compactions"] = c.compactions
	o.layer["store.wal_bytes_per_write"] = ratio(c.seqlogBytes, float64(writes))
}

// overhead compares the traced phase's headline latency with the
// untraced phase's, and prints both.
func (o *outcome) overhead(untraced, traced pct) {
	o.layer["trace.overhead_ratio"] = ratio(traced.Value, untraced.Value) - 1
	o.rec.Traced = map[string]float64{untraced.Name: traced.Value, "untraced_" + untraced.Name: untraced.Value}
}

// replayCensus times the census kernel over roots through the public
// CensusAll call.
func (o *outcome) replayCensus(tr *tracer, ex *core.Extractor, roots []graph.NodeID, workers int) {
	var subs int64
	d, _ := tr.call("core.census", spanCtx{}, func() error {
		for _, c := range ex.CensusAll(roots, workers) {
			if c != nil {
				subs += c.Subgraphs
			}
		}
		return nil
	})
	o.layer["core.census_s"] = d.Seconds()
	o.layer["core.subgraphs_per_s"] = ratio(float64(subs), d.Seconds())
}

// rowOf renders a census as the serving daemon's wire row.
func rowOf(ex *core.Extractor, c *core.Census) serve.FeatureRow {
	row := serve.FeatureRow{Root: int64(c.Root), Flags: c.Flags.String(), Truncated: c.Truncated, Subgraphs: c.Subgraphs,
		Counts: make(map[string]int64, len(c.Counts))}
	for k, n := range c.Counts {
		row.Counts[ex.EncodingString(k)] = n
	}
	return row
}

// perturbed returns row, or a copy with one count off by one when the
// run was asked to corrupt its first compared row (the self-test's
// proof that the oracle can fail). It is the only place that perturbs.
func (o *outcome) perturbed(row serve.FeatureRow, first bool) serve.FeatureRow {
	if !o.cfg.perturb || !first {
		return row
	}
	out := row
	out.Counts = make(map[string]int64, len(row.Counts))
	for k, v := range row.Counts {
		out.Counts[k] = v
	}
	for k := range out.Counts {
		out.Counts[k]++
		break
	}
	out.Subgraphs++
	return out
}

func sameRow(got, want serve.FeatureRow) error {
	if got.Root != want.Root || got.Flags != want.Flags || got.Truncated != want.Truncated || got.Subgraphs != want.Subgraphs {
		return fmt.Errorf("root %d: got flags %q subgraphs %d, want root %d flags %q subgraphs %d",
			got.Root, got.Flags, got.Subgraphs, want.Root, want.Flags, want.Subgraphs)
	}
	if len(got.Counts) != len(want.Counts) {
		return fmt.Errorf("root %d: %d encodings, want %d", got.Root, len(got.Counts), len(want.Counts))
	}
	for k, v := range want.Counts {
		if got.Counts[k] != v {
			return fmt.Errorf("root %d: encoding %s count %d, want %d", got.Root, k, got.Counts[k], v)
		}
	}
	return nil
}

// checkReads compares the sampled fleet responses with a single
// daemon serving the unpartitioned graph.
func (o *outcome) checkReads(g *graph.Graph, opts core.Options, samples []sample) error {
	ex, err := core.NewExtractor(g, opts)
	if err != nil {
		return err
	}
	h := serve.NewServer(ex, serve.Config{}).Handler()
	rows := 0
	for si, s := range samples {
		code, body := post(context.Background(), h, "/v1/features", serve.FeaturesRequest{Roots: s.roots})
		var want serve.FeaturesResponse
		if code != http.StatusOK || json.Unmarshal(body, &want) != nil || len(want.Rows) != len(s.rows) {
			return fmt.Errorf("oracle daemon: HTTP %d: %.200s", code, body)
		}
		for i := range s.rows {
			if err := sameRow(o.perturbed(s.rows[i], si == 0 && i == 0), want.Rows[i]); err != nil {
				o.mismatch("serve-zipf vs single daemon: %v", err)
			}
			rows++
		}
	}
	if len(samples) == 0 {
		o.mismatch("serve-zipf: no response was sampled for the oracle")
	}
	o.rec.Oracle = map[string]int{"responses": len(samples), "rows": rows}
	return nil
}

// checkExtract re-runs the first timed round and requires identical
// censuses (and subgraph total), then checks a few small roots against
// the brute-force reference enumerator, whose cost is exponential in
// the neighbourhood (roots whose census exceeds ReferenceMaxSubs are
// skipped for time, not for content).
func (o *outcome) checkExtract(g *graph.Graph, ex *core.Extractor, first []*core.Census) error {
	if len(first) == 0 {
		o.mismatch("extract-batch: no timed round completed")
		return nil
	}
	roots := make([]graph.NodeID, len(first))
	var total int64
	for i, c := range first {
		roots[i] = c.Root
		total += c.Subgraphs
	}
	again := ex.CensusAll(roots, runtime.GOMAXPROCS(0))
	var totalAgain int64
	for i, c := range again {
		totalAgain += c.Subgraphs
		if err := sameRow(o.perturbed(rowOf(ex, first[i]), i == 0), rowOf(ex, c)); err != nil {
			o.mismatch("extract-batch rerun: %v", err)
		}
	}
	if total != totalAgain {
		o.mismatch("extract-batch: subgraph total %d, rerun %d", total, totalAgain)
	}
	checked := 0
	for _, c := range first {
		if checked == o.cfg.sizes.ReferenceRoots {
			break
		}
		if c.Subgraphs > o.cfg.sizes.ReferenceMaxSubs {
			continue
		}
		got, err := core.CanonicalCounts(ex, c)
		if err != nil {
			return err
		}
		want := core.ReferenceCensus(g, c.Root, extractOpts)
		if err := sameRow(serve.FeatureRow{Root: int64(c.Root), Counts: got}, serve.FeatureRow{Root: int64(c.Root), Counts: want}); err != nil {
			o.mismatch("extract-batch vs reference enumerator: %v", err)
		}
		checked++
	}
	if checked < o.cfg.sizes.ReferenceRoots {
		o.mismatch("extract-batch: only %d roots small enough for the reference enumerator", checked)
	}
	o.rec.Oracle = map[string]int{"rerun_roots": len(roots), "reference_roots": checked}
	o.rec.Named["round_subgraph_total"] = float64(total)
	return nil
}

// checkIngest reads a seeded sample of roots — uniform over the final
// graph plus the nodes the last batches touched — from the fleet and
// requires them to equal a from-scratch census of the final global
// graph rebuilt from the acked batches.
func (o *outcome) checkIngest(f *fleet, final *graph.Graph) error {
	code, body := get(f.handler, "/v1/meta")
	var meta router.MetaResponse
	if code != http.StatusOK || json.Unmarshal(body, &meta) != nil {
		return fmt.Errorf("router /v1/meta: HTTP %d", code)
	}
	if meta.NumNodes != final.NumNodes() {
		o.mismatch("ingest-mixed: fleet has %d nodes, final graph %d", meta.NumNodes, final.NumNodes())
	}
	rng := rand.New(rand.NewSource(o.cfg.seed))
	seen := map[graph.NodeID]bool{}
	var roots []graph.NodeID
	add := func(v graph.NodeID) {
		if int(v) < final.NumNodes() && !seen[v] {
			seen[v] = true
			roots = append(roots, v)
		}
	}
	for i := 0; i < o.cfg.sizes.IngestOracleRoots; i++ {
		add(graph.NodeID(rng.Intn(final.NumNodes())))
	}
	for v := final.NumNodes() - 1; v >= 0 && v >= final.NumNodes()-o.cfg.sizes.IngestOracleRoots/4; v-- {
		add(graph.NodeID(v)) // the newest nodes, most of them added by the run
	}
	ex, err := core.NewExtractor(final, ingestOpts)
	if err != nil {
		return err
	}
	want := ex.CensusAll(roots, 0)
	const chunk = 128
	for lo := 0; lo < len(roots); lo += chunk {
		hi := lo + chunk
		if hi > len(roots) {
			hi = len(roots)
		}
		req := make([]int64, hi-lo)
		for i, v := range roots[lo:hi] {
			req[i] = int64(v)
		}
		code, body := post(context.Background(), f.handler, "/v1/features", serve.FeaturesRequest{Roots: req})
		var resp router.FeaturesResponse
		if code != http.StatusOK || json.Unmarshal(body, &resp) != nil || len(resp.Rows) != len(req) {
			return fmt.Errorf("oracle read: HTTP %d: %.200s", code, body)
		}
		for i, row := range resp.Rows {
			if err := sameRow(o.perturbed(row, lo == 0 && i == 0), rowOf(ex, want[lo+i])); err != nil {
				o.mismatch("ingest-mixed fleet vs from-scratch census: %v", err)
			}
		}
	}
	o.rec.Oracle = map[string]int{"roots": len(roots), "final_nodes": final.NumNodes(), "final_edges": final.NumEdges()}
	return nil
}
