// Command perfbench is the repository's fleet benchmark. It runs the
// real serving fleet inside its own process — router.Server in front
// of two serve.Server shards (fleet followers with their ingest.Engine
// for writes), joined by an in-memory http.RoundTripper — and drives
// one of three seeded workloads against it:
//
//	serve-zipf     two closed-loop readers, Zipf-popular 8-root requests
//	extract-batch  offline CensusAll + NewFeatureSet + snapshot save rounds
//	ingest-mixed   one closed-loop writer and one reader through the sequencer
//
// BENCHMARK.json gates extract-batch and ingest-mixed. serve-zipf runs
// the same way and is self-tested, but is not gated: on a shared
// 2-vCPU host whose speed drifted by up to 1.6x over minutes, its
// figures moved most — over ten 30 s runs the middle half of its read
// p50 spread 40% of the median, against 20% for extract-batch and 12%
// for ingest-mixed in the same interleaved runs; its warm read path is
// bound by allocation and memory traffic (JSON of cached rows).
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
//
// Every workload is checked by an oracle outside the timed phase. The
// last line of standard output is the result: correct, attempted,
// failed and the metrics — the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. The line before it is the run
// record (seed, CPUs, Go version, graph sizes, percentiles with their
// sample counts, oracle coverage). A traced run also writes its spans,
// one JSON object per line, into the work directory.
//
// The benchmark is a module of its own (go.mod here points hsgf at the
// parent directory), so the repository's go test ./... skips it; its
// self-test runs with go test ./... from this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	sizes    sizes
	// perturb corrupts the first row each oracle compares; the
	// self-test uses it to prove a mismatch fails the run.
	perturb bool
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

var workloads = map[string]func(config, string, *outcome) error{
	"serve-zipf":    serveZipf,
	"extract-batch": extractBatch,
	"ingest-mixed":  ingestMixed,
}

type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics. Every workload reports each: op
// is the workload's own operation — a read request on serve-zipf, one
// root's census on extract-batch, a write batch on ingest-mixed — and
// op_tail_ms is p99 for reads and roots, p90 for writes (a run holds
// hundreds of writes, not tens of thousands).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the --trace 1 metrics. A layer a workload does not run
// reads 0 there.
var perLayer = []metricDef{
	{"router.self_p50_ms", "ms"},
	{"router.self_p99_ms", "ms"},
	{"router.shard_calls_per_request", "count"},
	{"router.hedge_ratio", "ratio"},
	{"router.seq_self_p50_ms", "ms"},
	{"serve.call_p50_ms", "ms"},
	{"serve.call_p99_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.shed", "count"},
	{"core.census_s", "s"},
	{"core.subgraphs_per_s", "1/s"},
	{"core.featureset_s", "s"},
	{"store.save_graph_s", "s"},
	{"store.load_graph_s", "s"},
	{"store.save_featureset_s", "s"},
	{"store.wal_bytes_per_write", "B"},
	{"graph.partition_s", "s"},
	{"ingest.follower_p50_ms", "ms"},
	{"ingest.follower_p90_ms", "ms"},
	{"ingest.apply_p50_ms", "ms"},
	{"ingest.dirty_roots_max", "count"},
	{"ingest.compactions", "count"},
	{"ingest.open_s", "s"},
	{"trace.residual_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

type graphInfo struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	Emax  int `json:"emax"`
	Dmax  int `json:"dmax"`
}

// runRecord is everything needed to interpret and reproduce a run.
type runRecord struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Seconds     float64        `json:"seconds"`
	Trace       bool           `json:"trace"`
	NumCPU      int            `json:"num_cpu"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	Shards      int            `json:"shards"`
	Graph       graphInfo      `json:"graph"`
	RowCache    int            `json:"row_cache,omitempty"`
	Warmup      map[string]int `json:"warmup"`
	SetupReps   []float64      `json:"setup_reps_s"`
	Percentiles []pct          `json:"percentiles"`
	// Windows is how many equal time windows the measured phase is cut
	// into; each op_* metric is the median over them, WindowFigures
	// holds every window's figure in time order.
	Windows       int                  `json:"windows"`
	WindowFigures map[string][]float64 `json:"window_figures"`
	Named         map[string]float64   `json:"named"`
	Traced        map[string]float64   `json:"traced_vs_untraced,omitempty"`
	Replay        map[string]int       `json:"census_replay,omitempty"`
	// Layers is the traced phase's self time per span name.
	Layers     map[string]layerRow `json:"layers,omitempty"`
	SpansFile  string              `json:"spans_file,omitempty"`
	Spans      int                 `json:"spans,omitempty"`
	Oracle     map[string]int      `json:"oracle"`
	Errors     []string            `json:"errors,omitempty"`
	Mismatches []string            `json:"mismatches,omitempty"`
}

type layerRow struct {
	Spans int     `json:"spans"`
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share_of_root"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one invocation and returns its record and result.
func run(cfg config) (*runRecord, *result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	rec := &runRecord{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Shards:     numShards,
		Named:      map[string]float64{},
	}
	o := newOutcome(cfg, rec)
	if cfg.trace {
		o.tr = newTracer()
	}
	if err := wl(cfg, dir, o); err != nil {
		return nil, nil, err
	}
	if o.tr != nil {
		spans := o.tr.snapshot()
		rec.SpansFile = filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		rec.Spans = len(spans)
		if err := writeSpans(rec.SpansFile, spans); err != nil {
			return nil, nil, err
		}
	}
	o.metrics["rss_peak_mb"] = o.rss
	rec.Named["rss_peak_mb"] = o.rss
	rec.Errors, rec.Mismatches = o.errs, o.mismatches

	res := &result{
		Correct:   o.failed == 0 && o.mismatched == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed + o.mismatched,
		Metrics:   map[string]metricValue{},
	}
	defs, vals := endToEnd, o.metrics
	if cfg.trace {
		defs, vals = perLayer, o.layer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return rec, res, nil
}

// emit prints the run record, then the result as the last line.
func emit(w io.Writer, rec *runRecord, res *result) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		return err
	}
	return enc.Encode(res)
}

func main() {
	cfg := config{sizes: defaultSizes}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "serve-zipf, extract-batch or ingest-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated graph and request streams")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of each measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "1: add a traced phase and print the per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench-work", "scratch directory for stores and spans")
	flag.Parse()
	cfg.trace = traceFlag != 0

	// Load comes from one process, so the scheduler gets every CPU the
	// process may run on; the record states the value.
	runtime.GOMAXPROCS(runtime.NumCPU())

	rec, res, err := run(cfg)
	if err == nil {
		err = emit(os.Stdout, rec, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: run incorrect: %d of %d operations failed; errors %q; oracle %q\n",
			res.Failed, res.Attempted, rec.Errors, rec.Mismatches)
		os.Exit(1)
	}
}
