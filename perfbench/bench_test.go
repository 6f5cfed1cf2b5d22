package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// tinySizes shrink every workload so the self-test runs in seconds.
var tinySizes = sizes{
	ServeNodes:      2000,
	RootsPerRequest: 4,
	ZipfS:           1.1,
	ReadClients:     2,
	ReadWarmup:      40,
	HotRoots:        256,
	ColdEvery:       4,
	OracleResponses: 6,

	ExtractRound:     32,
	ExtractWarmup:    8,
	ReferenceRoots:   2,
	ReferenceMaxSubs: 20000,

	IngestNodes:       1000,
	WriteWarmup:       3,
	AddsPerBatch:      2,
	PoolTarget:        4,
	NodeEvery:         3,
	IngestOracleRoots: 16,
	ReplayBatches:     4,

	SetupReps: 2,
}

func tinyRun(t *testing.T, workload string, trace, perturb bool) (*runRecord, *result) {
	t.Helper()
	rec, res, err := run(config{
		workload: workload,
		seed:     7,
		seconds:  0.3,
		trace:    trace,
		workdir:  t.TempDir(),
		sizes:    tinySizes,
		perturb:  perturb,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rec, res
}

// namedMetrics are the workload-specific names the run record carries
// beside the generic BENCHMARK.json metrics.
var namedMetrics = map[string][]string{
	"serve-zipf":    {"read_p50_ms", "read_p99_ms", "reads_per_s", "rss_peak_mb"},
	"extract-batch": {"root_census_p50_ms", "root_census_p99_ms", "roots_per_s", "rss_peak_mb"},
	"ingest-mixed":  {"write_p50_ms", "write_p90_ms", "writes_per_s", "read_p50_ms", "read_p99_ms", "reads_per_s", "rss_peak_mb"},
}

// TestWorkloadsReportEveryMetric runs each workload at a tiny size,
// untraced and traced, and checks the printed result: a correct run,
// every end-to-end metric with its unit (and non-zero), every
// per-layer metric with its unit, and a last line with exactly the
// four result keys.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, wl := range []string{"serve-zipf", "extract-batch", "ingest-mixed"} {
		for _, trace := range []bool{false, true} {
			rec, res := tinyRun(t, wl, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%q mismatches=%q",
					wl, trace, res.Correct, res.Attempted, res.Failed, rec.Errors, rec.Mismatches)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", wl, trace, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.name, m.Value)
				}
			}
			for _, name := range namedMetrics[wl] {
				if v, ok := rec.Named[name]; !ok || v <= 0 {
					t.Errorf("%s trace=%v: record metric %s = %v (present %v)", wl, trace, name, v, ok)
				}
			}
			for _, p := range rec.Percentiles {
				if p.Samples == 0 || p.Unit == "" {
					t.Errorf("%s: percentile %s has %d samples, unit %q", wl, p.Name, p.Samples, p.Unit)
				}
			}
			if trace && rec.Spans == 0 {
				t.Errorf("%s: traced run recorded no spans", wl)
			}

			var out bytes.Buffer
			if err := emit(&out, rec, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", wl, err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("%s: last line keys %v, want correct/attempted/failed/metrics", wl, keys(last))
			}
		}
	}
}

// TestOracleCatchesPerturbedRow corrupts the first row each workload's
// oracle compares and requires the run to come out incorrect.
func TestOracleCatchesPerturbedRow(t *testing.T) {
	for _, wl := range []string{"serve-zipf", "extract-batch", "ingest-mixed"} {
		rec, res := tinyRun(t, wl, false, true)
		if res.Correct || len(rec.Mismatches) == 0 {
			t.Errorf("%s: perturbed row passed the oracle (correct=%v, mismatches %q)", wl, res.Correct, rec.Mismatches)
		}
	}
}

// TestReadStreamHotAndCold checks the read stream's shape: the hot
// fill covers the hot set exactly once, every ColdEvery-th request
// carries exactly one root outside it (as its last root) and the
// others none, and the same seed gives the same requests.
func TestReadStreamHotAndCold(t *testing.T) {
	const nodes, hot, k, every = 1000, 200, 4, 4
	st := newReadStream(3, nodes, k, 1.1, hot, every)
	inHot := map[int64]bool{}
	for _, req := range st.hot() {
		for _, r := range req {
			if inHot[r] {
				t.Fatalf("hot fill sends root %d twice", r)
			}
			inHot[r] = true
		}
	}
	if len(inHot) != hot {
		t.Fatalf("hot fill covers %d roots, want %d", len(inHot), hot)
	}
	again := newReadStream(3, nodes, k, 1.1, hot, every)
	for i := 0; i < 400; i++ {
		idx, roots := st.next()
		_, same := again.next()
		if fmt.Sprint(roots) != fmt.Sprint(same) {
			t.Fatalf("request %d: %v, then %v with the same seed", idx, roots, same)
		}
		cold := 0
		for _, r := range roots {
			if !inHot[r] {
				cold++
			}
		}
		want := 0
		if idx%every == every-1 {
			want = 1
			if inHot[roots[k-1]] {
				t.Errorf("request %d: cold root is not last: %v", idx, roots)
			}
		}
		if cold != want || st.isCold(idx) != (want == 1) {
			t.Errorf("request %d: %d cold roots, want %d", idx, cold, want)
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
