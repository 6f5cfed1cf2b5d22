package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/datagen"
	"hsgf/internal/graph"
	"hsgf/internal/router"
	"hsgf/internal/serve"
	"hsgf/internal/store"
	"hsgf/internal/sysres"
)

// sizes are the workload dimensions. The benchmark runs defaultSizes;
// the self-test shrinks them.
type sizes struct {
	ServeNodes      int     // nodes of the serve-zipf / extract-batch graph
	RootsPerRequest int     // roots per read request
	ZipfS           float64 // Zipf exponent of root popularity
	ReadClients     int     // closed-loop read clients of serve-zipf
	ReadWarmup      int     // untimed stream requests after serve-zipf's hot-set fill
	HotRoots        int     // serve-zipf's hot set, drawn Zipf(ZipfS); it fits the row cache
	ColdEvery       int     // every ColdEvery-th serve-zipf request carries one cold root
	OracleResponses int     // sampled read responses checked against a single daemon

	ExtractRound     int   // roots per CensusAll / NewFeatureSet / save round
	ExtractWarmup    int   // untimed roots before extract-batch's timed phase
	ReferenceRoots   int   // roots checked against the reference enumerator
	ReferenceMaxSubs int64 // largest census the exponential reference is asked to redo

	IngestNodes       int // nodes of the ingest-mixed graph
	WriteWarmup       int // untimed write batches before ingest-mixed's timed phase
	AddsPerBatch      int // add_edge mutations per batch (and, once stationary, remove_edge)
	PoolTarget        int // added edges outstanding before removals start
	NodeEvery         int // one add_node every NodeEvery batches
	IngestOracleRoots int // roots checked against a from-scratch census of the final graph
	ReplayBatches     int // write batches whose dirty balls the traced run re-censuses

	SetupReps int // set-ups per run; setup_s is their median
}

var defaultSizes = sizes{
	ServeNodes:      100000,
	RootsPerRequest: 8,
	ZipfS:           1.1,
	ReadClients:     2,
	ReadWarmup:      2000,
	HotRoots:        16384,
	ColdEvery:       32,
	OracleResponses: 48,

	ExtractRound:     256,
	ExtractWarmup:    64,
	ReferenceRoots:   3,
	ReferenceMaxSubs: 20000,

	IngestNodes:       10000,
	WriteWarmup:       24,
	AddsPerBatch:      4,
	PoolTarget:        64,
	NodeEvery:         8,
	IngestOracleRoots: 96,
	ReplayBatches:     32,

	SetupReps: 7,
}

// Census options per workload: serve-zipf serves emax 3 / dmax 64,
// extract-batch extracts emax 4 / dmax 64, ingest-mixed maintains
// emax 2 without a hub cutoff.
var (
	serveOpts   = core.Options{MaxEdges: 3, MaxDegree: 64, MaskRootLabel: true}
	extractOpts = core.Options{MaxEdges: 4, MaxDegree: 64, MaskRootLabel: true}
	ingestOpts  = core.Options{MaxEdges: 2, MaskRootLabel: true}
)

const numShards = 2

// rootDegreePercentile is the paper's extraction root filter.
const rootDegreePercentile = 0.95

// hierGraph generates the citation-shaped hierarchical network of
// DefaultHierarchicalConfig, generator seed included: the graph is the
// workload's fixed input, and --seed varies the request streams and
// root samples drawn over it.
func hierGraph(nodes int) (*graph.Graph, error) {
	h, err := datagen.GenerateHierarchical(datagen.DefaultHierarchicalConfig(nodes))
	if err != nil {
		return nil, err
	}
	return h.Graph, nil
}

// opPhase is what the clients of one phase observed.
type opPhase struct {
	// lat and at hold each completed operation's latency and its
	// completion time from the start of the phase.
	lat, at   []time.Duration
	attempted int64
	failed    int64
	errs      []string
	elapsed   time.Duration
}

func (p *opPhase) fail(err error) {
	p.failed++
	if len(p.errs) < 3 {
		p.errs = append(p.errs, err.Error())
	}
}

func (p *opPhase) merge(q opPhase) {
	p.lat = append(p.lat, q.lat...)
	p.at = append(p.at, q.at...)
	p.attempted += q.attempted
	p.failed += q.failed
	for _, e := range q.errs {
		if len(p.errs) < 3 {
			p.errs = append(p.errs, e)
		}
	}
}

func (p *opPhase) perSecond() float64 {
	return ratio(float64(p.attempted-p.failed), p.elapsed.Seconds())
}

// reader is a closed-loop read client population over one fleet.
type reader struct {
	h  http.Handler
	st *readStream
	tr *tracer

	keep    func(idx int) bool
	mu      sync.Mutex
	samples []sample
}

// sample is a read response kept for the oracle.
type sample struct {
	roots []int64
	rows  []serve.FeatureRow
}

// run drives clients closed loops over the stream until stop reports
// true.
func (r *reader) run(clients int, stop func() bool) opPhase {
	return r.drive(clients, func() (int, []int64, bool) {
		if stop() {
			return 0, nil, false
		}
		idx, roots := r.st.next()
		return idx, roots, true
	})
}

// fill sends every hot root once (readStream.hot), outside the stream,
// so that the row cache holds the whole hot set.
func (r *reader) fill(clients int) opPhase {
	reqs := r.st.hot()
	var next atomic.Int64
	return r.drive(clients, func() (int, []int64, bool) {
		i := int(next.Add(1)) - 1
		if i >= len(reqs) {
			return 0, nil, false
		}
		return -1, reqs[i], true
	})
}

// drive runs clients closed loops, each sending the requests next
// hands out (idx is the stream index, -1 outside the stream) until it
// reports false.
func (r *reader) drive(clients int, next func() (idx int, roots []int64, ok bool)) opPhase {
	parts := make([]opPhase, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range parts {
		wg.Add(1)
		go func(p *opPhase) {
			defer wg.Done()
			for {
				idx, roots, ok := next()
				if !ok {
					return
				}
				p.attempted++
				d, rows, err := r.read(roots)
				if err != nil {
					p.fail(err)
					continue
				}
				p.lat = append(p.lat, d)
				p.at = append(p.at, time.Since(start))
				if r.keep != nil && idx >= 0 && r.keep(idx) {
					r.mu.Lock()
					r.samples = append(r.samples, sample{roots: roots, rows: rows})
					r.mu.Unlock()
				}
			}
		}(&parts[c])
	}
	wg.Wait()
	var out opPhase
	for _, p := range parts {
		out.merge(p)
	}
	out.elapsed = time.Since(start)
	return out
}

// read sends one request through the router's handler and checks the
// answer: HTTP 200, not degraded, one unflagged row per requested root
// in request order. The latency covers the client's whole call,
// request encoding and response decoding included.
func (r *reader) read(roots []int64) (time.Duration, []serve.FeatureRow, error) {
	tr := r.tr
	cid, cs := tr.begin()
	t0 := time.Now()
	body, err := json.Marshal(serve.FeaturesRequest{Roots: roots})
	if err != nil {
		return 0, nil, err
	}
	ctx := context.Background()
	cc := child(cid, spanCtx{})
	rid, rs := tr.begin()
	if tr != nil {
		ctx = withSpan(ctx, child(rid, cc))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://router/v1/features", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, req)
	tr.end("router.features", rid, rs, cc)
	var resp router.FeaturesResponse
	decErr := json.Unmarshal(rec.Body.Bytes(), &resp)
	d := time.Since(t0)
	tr.end("client.read", cid, cs, spanCtx{})

	switch {
	case rec.Code != http.StatusOK:
		return d, nil, fmt.Errorf("read: HTTP %d: %.200s", rec.Code, rec.Body.String())
	case decErr != nil:
		return d, nil, fmt.Errorf("read: decode: %w", decErr)
	case resp.Degraded:
		return d, nil, fmt.Errorf("read: degraded response")
	case len(resp.Rows) != len(roots):
		return d, nil, fmt.Errorf("read: %d rows for %d roots", len(resp.Rows), len(roots))
	}
	for i, row := range resp.Rows {
		if row.Root != roots[i] || row.Flags != "ok" {
			return d, nil, fmt.Errorf("read: row %d is root %d flags %q, want root %d flags ok", i, row.Root, row.Flags, roots[i])
		}
	}
	return d, resp.Rows, nil
}

// writer is the closed-loop write client of ingest-mixed.
type writer struct {
	h  http.Handler
	ws *writeStream
	tr *tracer
}

func (w *writer) run(stop func() bool) opPhase {
	var p opPhase
	start := time.Now()
	for !stop() {
		id, muts := w.ws.next()
		p.attempted++
		d, err := w.write(id, muts)
		if err != nil {
			p.fail(err)
			continue
		}
		p.lat = append(p.lat, d)
		p.at = append(p.at, time.Since(start))
	}
	p.elapsed = time.Since(start)
	return p
}

// write sends one batch through the router's sequencer and waits for
// its ack, which the router gives once every affected follower has
// durably applied it. Anything but a fresh 200 ack is a failure.
func (w *writer) write(id string, muts []graph.Mutation) (time.Duration, error) {
	tr := w.tr
	cid, cs := tr.begin()
	t0 := time.Now()
	body, err := json.Marshal(serve.IngestRequest{BatchID: id, Mutations: wire(muts)})
	if err != nil {
		return 0, err
	}
	cc := child(cid, spanCtx{})
	rid, rs := tr.begin()
	if tr != nil {
		tr.batches.Store(id, child(rid, cc))
	}
	req, err := http.NewRequest(http.MethodPost, "http://router/v1/ingest", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	rec := httptest.NewRecorder()
	w.h.ServeHTTP(rec, req)
	tr.end("router.ingest", rid, rs, cc)
	var resp router.IngestResponse
	decErr := json.Unmarshal(rec.Body.Bytes(), &resp)
	d := time.Since(t0)
	tr.end("client.write", cid, cs, spanCtx{})
	switch {
	case rec.Code != http.StatusOK:
		return d, fmt.Errorf("write %s: HTTP %d: %.200s", id, rec.Code, rec.Body.String())
	case decErr != nil:
		return d, fmt.Errorf("write %s: decode: %w", id, decErr)
	case resp.Replayed:
		return d, fmt.Errorf("write %s: acked as a replay", id)
	}
	return d, nil
}

// traceSlices is how many traced slices a traced run interleaves with
// as many untraced ones. Interleaving makes both sides see the same
// machine, so trace.overhead_ratio measures tracing, not drift.
const traceSlices = 4

// interleave runs the traced run: 2*traceSlices slices of total length
// d, alternately untraced and traced, each handed a stop function for
// its own end.
func interleave(d time.Duration, slice func(traced bool, stop func() bool)) {
	each := d / (2 * traceSlices)
	for i := 0; i < 2*traceSlices; i++ {
		slice(i%2 == 1, until(time.Now().Add(each)))
	}
}

// trOrNil is tr on a traced slice and nil on an untraced one.
func trOrNil(tr *tracer, on bool) *tracer {
	if on {
		return tr
	}
	return nil
}

func until(deadline time.Time) func() bool {
	return func() bool { return !time.Now().Before(deadline) }
}

// sampler keeps a seeded sample of request indices, at most n: one in
// two of the requests cold reports true for, one in 16 of the others.
func sampler(seed int64, n int, cold func(int) bool) func(int) bool {
	var kept atomic.Int64
	return func(idx int) bool {
		every := uint64(16)
		if cold(idx) {
			every = 2
		}
		if splitmix64(uint64(idx)^uint64(seed)*0x9e3779b97f4a7c15)%every != 0 {
			return false
		}
		return kept.Add(1) <= int64(n)
	}
}

// repeatSetup runs set-up reps times, keeping the last fleet, and
// returns every rep's timings.
func repeatSetup(reps int, boot func(i int) (*fleet, setupPhases, error)) (*fleet, []setupPhases, error) {
	var f *fleet
	var phs []setupPhases
	for i := 0; i < reps; i++ {
		if f != nil {
			f.close()
			f = nil
		}
		runtime.GC()
		nf, ph, err := boot(i)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		f = nf
		phs = append(phs, ph)
	}
	return f, phs, nil
}

// setupMedians reduces the set-up reps to their medians.
func setupMedians(phs []setupPhases) setupPhases {
	pick := func(get func(setupPhases) float64) float64 {
		xs := make([]float64, len(phs))
		for i, p := range phs {
			xs[i] = get(p)
		}
		return median(xs)
	}
	return setupPhases{
		total:      pick(func(p setupPhases) float64 { return p.total }),
		saveGraph:  pick(func(p setupPhases) float64 { return p.saveGraph }),
		loadGraph:  pick(func(p setupPhases) float64 { return p.loadGraph }),
		partition:  pick(func(p setupPhases) float64 { return p.partition }),
		openIngest: pick(func(p setupPhases) float64 { return p.openIngest }),
	}
}

func rssMB() float64 { return float64(sysres.MaxRSSBytes()) / (1 << 20) }

// serveZipf is the read-only workload: two closed-loop clients send
// Zipf-popular 8-root requests through the router to two shards. The
// warm-up first requests the whole hot set once, so that the timed
// phase misses the row cache only on its cold roots.
func serveZipf(cfg config, dir string, o *outcome) error {
	sz := cfg.sizes
	g, err := hierGraph(sz.ServeNodes)
	if err != nil {
		return err
	}
	o.rec.Graph = graphInfo{Nodes: g.NumNodes(), Edges: g.NumEdges(), Emax: serveOpts.MaxEdges, Dmax: serveOpts.MaxDegree}
	o.rec.RowCache = serve.DefaultRowCache
	tr := o.tr
	// Exact shard answers under dmax pruning need a halo of emax+1
	// (graph.PartitionConfig).
	halo := serveOpts.MaxEdges + 1
	f, phs, err := repeatSetup(sz.SetupReps, func(i int) (*fleet, setupPhases, error) {
		return readFleetSetup(filepath.Join(dir, fmt.Sprintf("setup-%d", i)), g, serveOpts, halo, tr)
	})
	if err != nil {
		return err
	}
	defer f.close()
	o.setup(phs)
	f.mt.tr.Store(nil)

	st := newReadStream(cfg.seed, g.NumNodes(), sz.RootsPerRequest, sz.ZipfS, sz.HotRoots, sz.ColdEvery)
	rd := &reader{h: f.handler, st: st, keep: sampler(cfg.seed, sz.OracleResponses, st.isCold)}
	fill := rd.fill(sz.ReadClients)
	o.count(fill)
	warm := rd.run(sz.ReadClients, func() bool { return st.issued() >= sz.ReadWarmup })
	o.count(warm)
	o.rec.Warmup = map[string]int{"hot_fill_requests": int(fill.attempted), "read_requests": int(warm.attempted)}
	o.rec.Named["hot_roots"] = float64(len(st.hotSet))
	o.rec.Named["cold_every"] = float64(sz.ColdEvery)

	runtime.GC()
	timed := rd.run(sz.ReadClients, until(time.Now().Add(cfg.duration())))
	o.count(timed)
	p50, p99 := quantile("read_p50_ms", timed.lat, 0.50), quantile("read_p99_ms", timed.lat, 0.99)
	o.e2e(timed, p50, p99, "reads_per_s", windowsIn(timed.elapsed))

	if cfg.trace {
		runtime.GC()
		st.record(true)
		c0, err := f.counters(false)
		if err != nil {
			return err
		}
		mark := len(tr.snapshot())
		var plain, traced opPhase
		interleave(cfg.duration(), func(on bool, stop func() bool) {
			slice := trOrNil(tr, on)
			f.mt.tr.Store(slice)
			rd.tr = slice
			p := rd.run(sz.ReadClients, stop)
			if on {
				traced.merge(p)
			} else {
				plain.merge(p)
			}
		})
		f.mt.tr.Store(nil)
		rd.tr = nil
		c1, err := f.counters(false)
		if err != nil {
			return err
		}
		o.count(plain)
		o.count(traced)
		fresh := st.record(false)
		a := analyse(tr.snapshot()[mark:])
		o.readLayers(a, c1.minus(c0))
		o.overhead(quantile("read_p50_ms", plain.lat, 0.50), quantile("read_p50_ms", traced.lat, 0.50))
		// The miss path's kernel work: every root first requested in the
		// traced run was a row no cache held, computed one request at a
		// time (serve.Config.Workers defaults to 1).
		ex, err := core.NewExtractor(g, serveOpts)
		if err != nil {
			return err
		}
		o.replayCensus(tr, ex, fresh, 1)
		o.rec.Replay = map[string]int{"census_roots": len(fresh)}
	}
	o.rss = rssMB()

	return o.checkReads(g, serveOpts, rd.samples)
}

// extractBatch is offline extraction: one caller runs the census
// (CensusAllTimed, which is CensusAll plus per-root times) over a
// seeded root sample (rootOrder) with workers = GOMAXPROCS, then
// packages and stores the feature set, the way hsgf -store does, round
// after round.
func extractBatch(cfg config, dir string, o *outcome) error {
	sz := cfg.sizes
	g, err := hierGraph(sz.ServeNodes)
	if err != nil {
		return err
	}
	o.rec.Graph = graphInfo{Nodes: g.NumNodes(), Edges: g.NumEdges(), Emax: extractOpts.MaxEdges, Dmax: extractOpts.MaxDegree}
	tr := o.tr

	var ex *core.Extractor
	var st *store.Store
	var phs []setupPhases
	for i := 0; i < sz.SetupReps; i++ {
		runtime.GC()
		var ph setupPhases
		root, rs := tr.begin()
		t0 := time.Now()
		st, err = store.Open(filepath.Join(dir, fmt.Sprintf("setup-%d", i)), store.Options{})
		if err != nil {
			return err
		}
		gl, err := saveAndLoad(st, g, tr, child(root, spanCtx{}), &ph)
		if err != nil {
			return err
		}
		if ex, err = core.NewExtractor(gl, extractOpts); err != nil {
			return err
		}
		ph.total = time.Since(t0).Seconds()
		tr.end("setup", root, rs, spanCtx{})
		phs = append(phs, ph)
	}
	o.setup(phs)

	order := rootOrder(g, cfg.seed, sz.ExtractRound)
	o.rec.Named["root_population"] = float64(len(order))
	next := 0
	take := func(n int) []graph.NodeID {
		out := make([]graph.NodeID, n)
		for i := range out {
			out[i] = order[next%len(order)]
			next++
		}
		return out
	}
	workers := runtime.GOMAXPROCS(0)
	ex.CensusAll(take(sz.ExtractWarmup), workers)
	o.rec.Warmup = map[string]int{"census_roots": sz.ExtractWarmup}

	var first []*core.Census
	phase := func(tr *tracer, stop func() bool) (batchPhase, error) {
		runtime.GC()
		bp := batchPhase{start: time.Now()}
		for !stop() {
			roots := take(sz.ExtractRound)
			cen, err := bp.round(tr, ex, st, roots, workers)
			if err != nil {
				return bp, err
			}
			if first == nil {
				first = cen
			}
		}
		return bp, nil
	}
	timed, err := phase(nil, until(time.Now().Add(cfg.duration())))
	if err != nil {
		return err
	}
	o.batch(timed)
	p50, p99 := quantile("root_census_p50_ms", timed.rootLat, 0.50), quantile("root_census_p99_ms", timed.rootLat, 0.99)
	o.e2eBatch(timed, p50, p99)
	o.rec.Named["core_subgraphs"] = float64(timed.subgraphs)

	if cfg.trace {
		mark := len(tr.snapshot())
		var plain, traced batchPhase
		var err error
		interleave(cfg.duration(), func(on bool, stop func() bool) {
			if err != nil {
				return
			}
			var p batchPhase
			if p, err = phase(trOrNil(tr, on), stop); err != nil {
				return
			}
			if on {
				traced.merge(p)
			} else {
				plain.merge(p)
			}
		})
		if err != nil {
			return err
		}
		o.batch(plain)
		o.batch(traced)
		a := analyse(tr.snapshot()[mark:])
		// The census, feature-set and save layers are timed on every
		// round of the traced run, traced or not.
		census := plain.census + traced.census
		o.layer["core.census_s"] = census.Seconds()
		o.layer["core.subgraphs_per_s"] = ratio(float64(plain.subgraphs+traced.subgraphs), census.Seconds())
		o.layer["core.featureset_s"] = (plain.featureset + traced.featureset).Seconds()
		o.layer["store.save_featureset_s"] = (plain.save + traced.save).Seconds()
		o.layer["trace.residual_ratio"] = a.residualRatio()
		o.layerTable(a)
		// Throughput is the headline here, so overhead is the loss of
		// roots per second under tracing.
		o.layer["trace.overhead_ratio"] = ratio(plain.rootsPerSecond(), traced.rootsPerSecond()) - 1
		o.rec.Traced = map[string]float64{"roots_per_s": traced.rootsPerSecond(), "untraced_roots_per_s": plain.rootsPerSecond()}
	}
	o.rss = rssMB()

	return o.checkExtract(g, ex, first)
}

// rootOrder is the extraction order: a seeded, degree-stratified
// uniform sample of the paper's root population (§4.3.5: every node
// but the top 5% by degree, whose censuses are the runaway outliers
// dmax cannot bound). The population is cut into round-many strata of
// consecutive degree rank, each stratum is shuffled, and the r-th
// round takes the r-th root of every stratum. Every root is equally
// likely in every round, and every round holds the same mix of cheap
// and expensive roots, so the heavy tail of per-root cost shows in
// every round instead of in a few unlucky ones.
func rootOrder(g *graph.Graph, seed int64, round int) []graph.NodeID {
	rng := rand.New(rand.NewSource(seed))
	all := make([]graph.NodeID, g.NumNodes())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	pop := core.FilterRootsByDegree(g, all, rootDegreePercentile)
	rng.Shuffle(len(pop), func(i, j int) { pop[i], pop[j] = pop[j], pop[i] })
	sort.SliceStable(pop, func(i, j int) bool { return g.Degree(pop[i]) < g.Degree(pop[j]) })
	per := len(pop) / round
	strata := make([][]graph.NodeID, round)
	for s := range strata {
		strata[s] = pop[s*per : (s+1)*per]
		rng.Shuffle(per, func(i, j int) { strata[s][i], strata[s][j] = strata[s][j], strata[s][i] })
	}
	order := make([]graph.NodeID, 0, per*round)
	for r := 0; r < per; r++ {
		for s := range strata {
			order = append(order, strata[s][r])
		}
	}
	return order
}

// batchPhase accumulates extraction rounds.
type batchPhase struct {
	start                    time.Time
	roots                    int
	flagged                  int
	subgraphs                int64
	census, featureset, save time.Duration
	// rounds are the phase's rounds; rootLat and rootAt each root's
	// census latency and its round's end, from start.
	rounds          []batchRound
	rootLat, rootAt []time.Duration
}

// merge adds q's rounds to b (for totals; the window fields are not
// merged, as merged phases are not windowed).
func (b *batchPhase) merge(q batchPhase) {
	b.roots += q.roots
	b.flagged += q.flagged
	b.subgraphs += q.subgraphs
	b.census += q.census
	b.featureset += q.featureset
	b.save += q.save
}

// batchRound is one extraction round of a phase.
type batchRound struct {
	at, busy time.Duration
	roots    int
}

func (b *batchPhase) rootsPerSecond() float64 {
	return ratio(float64(b.roots), (b.census + b.featureset + b.save).Seconds())
}

// round extracts one root sample: census, feature set, store snapshot.
func (b *batchPhase) round(tr *tracer, ex *core.Extractor, st *store.Store, roots []graph.NodeID, workers int) ([]*core.Census, error) {
	root, rs := tr.begin()
	rc := child(root, spanCtx{})
	var cen []*core.Census
	var times []time.Duration
	census, _ := tr.call("core.census", rc, func() error {
		cen, times = ex.CensusAllTimed(roots, workers)
		return nil
	})
	var fs *core.FeatureSet
	featureset, err := tr.call("core.featureset", rc, func() error {
		var err error
		fs, err = core.NewFeatureSet(ex, cen, core.VocabularyOf(cen))
		return err
	})
	if err != nil {
		return nil, err
	}
	save, err := tr.call("store.save_featureset", rc, func() error {
		_, err := core.SaveFeatureSetSnapshot(st, fs)
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.end("client.batch", root, rs, spanCtx{})
	b.census += census
	b.featureset += featureset
	b.save += save
	b.roots += len(roots)
	b.rootLat = append(b.rootLat, times...)
	end := time.Since(b.start)
	for range times {
		b.rootAt = append(b.rootAt, end)
	}
	b.rounds = append(b.rounds, batchRound{at: end, roots: len(roots), busy: census + featureset + save})
	for _, c := range cen {
		if c == nil || c.Flags != 0 {
			b.flagged++
			continue
		}
		b.subgraphs += c.Subgraphs
	}
	return cen, nil
}

// ingestMixed runs one closed-loop writer and one closed-loop reader
// through the sequencing router into two fleet-follower shards.
func ingestMixed(cfg config, dir string, o *outcome) error {
	sz := cfg.sizes
	g, err := hierGraph(sz.IngestNodes)
	if err != nil {
		return err
	}
	o.rec.Graph = graphInfo{Nodes: g.NumNodes(), Edges: g.NumEdges(), Emax: ingestOpts.MaxEdges, Dmax: ingestOpts.MaxDegree}
	o.rec.RowCache = serve.DefaultRowCache
	tr := o.tr
	f, phs, err := repeatSetup(sz.SetupReps, func(i int) (*fleet, setupPhases, error) {
		return ingestFleetSetup(filepath.Join(dir, fmt.Sprintf("setup-%d", i)), g, ingestOpts, tr)
	})
	if err != nil {
		return err
	}
	defer f.close()
	o.setup(phs)
	f.mt.tr.Store(nil)

	ws := newWriteStream(cfg.seed, g, sz.AddsPerBatch, sz.PoolTarget, sz.NodeEvery)
	rs := newReadStream(cfg.seed, g.NumNodes(), sz.RootsPerRequest, sz.ZipfS, 0, 0)
	wr := &writer{h: f.handler, ws: ws}
	rd := &reader{h: f.handler, st: rs}

	// mixed runs the writer and the reader side by side; the reader
	// stops when the writer does.
	mixed := func(stop func() bool) (opPhase, opPhase) {
		var done atomic.Bool
		var w opPhase
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done.Store(true)
			w = wr.run(stop)
		}()
		r := rd.run(1, done.Load)
		wg.Wait()
		return w, r
	}

	ww, wrd := mixed(func() bool { return ws.k >= sz.WriteWarmup })
	o.count(ww)
	o.count(wrd)
	o.rec.Warmup = map[string]int{"write_batches": int(ww.attempted), "read_requests": int(wrd.attempted)}

	runtime.GC()
	c0, err := f.counters(true)
	if err != nil {
		return err
	}
	mw, mr := mixed(until(time.Now().Add(cfg.duration())))
	c1, err := f.counters(true)
	if err != nil {
		return err
	}
	o.count(mw)
	o.count(mr)
	wp50, wp90 := quantile("write_p50_ms", mw.lat, 0.50), quantile("write_p90_ms", mw.lat, 0.90)
	// A write phase holds a few hundred writes, too few to cut into
	// windows and still keep ten samples beyond p90 in each.
	o.e2e(mw, wp50, wp90, "writes_per_s", 1)
	rp50, rp99 := quantile("read_p50_ms", mr.lat, 0.50), quantile("read_p99_ms", mr.lat, 0.99)
	o.rec.Percentiles = append(o.rec.Percentiles, rp50, rp99)
	o.rec.Named["read_p50_ms"] = rp50.Value
	o.rec.Named["read_p99_ms"] = rp99.Value
	o.rec.Named["reads_per_s"] = mr.perSecond()
	o.rec.Named["ingest_compactions"] = c1.minus(c0).compactions

	var tracedFrom int
	if cfg.trace {
		runtime.GC()
		c0, err := f.counters(true)
		if err != nil {
			return err
		}
		mark := len(tr.snapshot())
		tracedFrom = ws.k
		var plain, traced opPhase
		interleave(cfg.duration(), func(on bool, stop func() bool) {
			slice := trOrNil(tr, on)
			f.mt.tr.Store(slice)
			wr.tr, rd.tr = slice, slice
			w, r := mixed(stop)
			o.count(w)
			o.count(r)
			if on {
				traced.merge(w)
			} else {
				plain.merge(w)
			}
		})
		f.mt.tr.Store(nil)
		wr.tr, rd.tr = nil, nil
		c1, err := f.counters(true)
		if err != nil {
			return err
		}
		a := analyse(tr.snapshot()[mark:])
		o.readLayers(a, c1.minus(c0))
		o.writeLayers(a, c1.minus(c0), int64(ws.k-tracedFrom))
		o.overhead(quantile("write_p50_ms", plain.lat, 0.50), quantile("write_p50_ms", traced.lat, 0.50))
	}
	o.rss = rssMB()

	final, err := replayGraph(g, ws.log)
	if err != nil {
		return fmt.Errorf("oracle: rebuild final graph: %w", err)
	}
	if cfg.trace {
		// The write path's kernel work: each sampled batch's dirty ball,
		// re-censused on the final graph.
		ex, err := core.NewExtractor(final, ingestOpts)
		if err != nil {
			return err
		}
		var dirty []graph.NodeID
		n := ws.k - tracedFrom
		step := 1
		if n > sz.ReplayBatches {
			step = n / sz.ReplayBatches
		}
		batches := 0
		for k := tracedFrom; k < ws.k && batches < sz.ReplayBatches; k += step {
			dirty = append(dirty, core.DirtyRoots(final, touched(ws.log[k], ws.before[k]), ingestOpts.MaxEdges)...)
			batches++
		}
		o.replayCensus(tr, ex, dirty, 0)
		o.rec.Replay = map[string]int{"batches": batches, "census_roots": len(dirty)}
	}
	return o.checkIngest(f, final)
}

// replayGraph applies every generated batch, in order, to g.
func replayGraph(g *graph.Graph, log [][]graph.Mutation) (*graph.Graph, error) {
	ov := graph.NewOverlay(g)
	for k, muts := range log {
		for _, m := range muts {
			if err := ov.Apply(m); err != nil {
				return nil, fmt.Errorf("batch w%d: %w", k, err)
			}
		}
	}
	return ov.Materialize()
}
