package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/graph"
	"hsgf/internal/ingest"
	"hsgf/internal/router"
	"hsgf/internal/serve"
	"hsgf/internal/store"
)

// memTransport is the router's shard transport, in memory: it hands
// each request straight to the addressed shard's Handler().ServeHTTP
// and returns the recorded response. Router fan-out, hedging, JSON
// encode/decode and shard admission, cache and census all run for real;
// what it removes is the kernel, the sockets and cross-process
// scheduling, which made multi-process timings drift between runs.
type memTransport struct {
	shards map[string]http.Handler
	// tr is swapped between phases: nil while untraced.
	tr atomic.Pointer[tracer]
}

func newMemTransport(tr *tracer) *memTransport {
	t := &memTransport{shards: map[string]http.Handler{}}
	t.tr.Store(tr)
	return t
}

func (t *memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.shards[req.URL.Host]
	if !ok {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("perfbench: no shard at %q", req.URL.Host)
	}
	tr := t.tr.Load()
	name, parent := t.classify(tr, req)
	id, start := tr.begin()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if name != "" {
		tr.end(name, id, start, parent)
	}
	if req.Body != nil {
		req.Body.Close()
	}
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// classify names the span of a shard call and finds its parent. A
// feature call carries its parent in the request context, which the
// router derives from the client's; a follower ingest call is issued by
// a fan-out sender with its own context, so its parent is found through
// the client batch ID embedded in the sub-batch's fleet batch ID. The
// body is re-wrapped after the peek, and only on a traced run.
func (t *memTransport) classify(tr *tracer, req *http.Request) (string, spanCtx) {
	if tr == nil {
		return "", spanCtx{}
	}
	switch req.URL.Path {
	case "/v1/features":
		return "serve.features", spanFrom(req.Context())
	case "/v1/ingest":
		body, err := io.ReadAll(req.Body)
		req.Body = io.NopCloser(bytes.NewReader(body))
		if err != nil {
			return "ingest.follower", spanCtx{}
		}
		var ir serve.IngestRequest
		if json.Unmarshal(body, &ir) != nil {
			return "ingest.follower", spanCtx{}
		}
		if _, ok := ingest.ParseFleetSeq(ir.BatchID); ok {
			if i := bytes.IndexByte([]byte(ir.BatchID), '.'); i >= 0 {
				if sc, ok := tr.batches.Load(ir.BatchID[i+1:]); ok {
					return "ingest.follower", sc.(spanCtx)
				}
			}
		}
		return "ingest.follower", spanCtx{}
	}
	return "", spanCtx{}
}

// shardHost is the transport address of shard i.
func shardHost(i int) string { return fmt.Sprintf("shard-%d", i) }

// fleet is one in-process serving fleet: a router over its shards.
type fleet struct {
	mt      *memTransport
	router  *router.Server
	handler http.Handler
	// shardHandlers are the shards' handlers, for /debug/stats.
	shardHandlers []http.Handler
	engines       []*ingest.Engine
}

func (f *fleet) close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, e := range f.engines {
		e.Close()
	}
}

// setupPhases are the timed public calls of one set-up, in seconds.
type setupPhases struct {
	total                           float64
	saveGraph, loadGraph, partition float64
	openIngest                      float64
}

// readFleetSetup boots the read fleet the way a deployment does, from
// a generated graph in memory to the first request served: the global
// graph is written to and booted from its store snapshot, partitioned
// by root with an exact halo, every shard's graph is written to and
// booted from its own store, and the shard servers and the router are
// built over them.
func readFleetSetup(dir string, g *graph.Graph, opts core.Options, halo int, tr *tracer) (*fleet, setupPhases, error) {
	var ph setupPhases
	root, rs := tr.begin()
	rc := child(root, spanCtx{})
	t0 := time.Now()

	st, err := store.Open(filepath.Join(dir, "global"), store.Options{})
	if err != nil {
		return nil, ph, err
	}
	gg, err := saveAndLoad(st, g, tr, rc, &ph)
	if err != nil {
		return nil, ph, err
	}
	var plans []*graph.ShardPlan
	d, err := tr.call("graph.partition", rc, func() error {
		var err error
		plans, err = graph.PartitionByRoot(gg, graph.PartitionConfig{NumShards: numShards, HaloDepth: halo})
		return err
	})
	ph.partition += d.Seconds()
	if err != nil {
		return nil, ph, err
	}
	mt := newMemTransport(tr)
	f := &fleet{mt: mt}
	urls := make([][]string, numShards)
	for _, p := range plans {
		sst, err := store.Open(filepath.Join(dir, fmt.Sprintf("shard-%d", p.Shard)), store.Options{})
		if err != nil {
			return nil, ph, err
		}
		sg, err := saveAndLoad(sst, p.Graph, tr, rc, &ph)
		if err != nil {
			return nil, ph, err
		}
		ex, err := core.NewExtractor(sg, opts)
		if err != nil {
			return nil, ph, err
		}
		srv := serve.NewServer(ex, serve.Config{})
		h := srv.Handler()
		f.shardHandlers = append(f.shardHandlers, h)
		mt.shards[shardHost(p.Shard)] = h
		urls[p.Shard] = []string{"http://" + shardHost(p.Shard)}
	}
	f.router, err = router.New(router.Config{
		Manifest:  router.BuildManifest(g.NumNodes(), halo, plans),
		Shards:    urls,
		Transport: mt,
	})
	if err != nil {
		return nil, ph, err
	}
	f.handler = f.router.Handler()
	if err := firstRequest(f.handler); err != nil {
		f.close()
		return nil, ph, err
	}
	ph.total = time.Since(t0).Seconds()
	tr.end("setup", root, rs, spanCtx{})
	return f, ph, nil
}

// ingestFleetSetup boots the write fleet: the graph is partitioned,
// every shard's graph written to its store, and each shard boots as a
// fleet follower — ingest.Open seeded from the store snapshot, exactly
// as hsgfd -ingest -fleet-follower does — behind a sequencing router
// with its sequencer WAL.
func ingestFleetSetup(dir string, g *graph.Graph, opts core.Options, tr *tracer) (*fleet, setupPhases, error) {
	var ph setupPhases
	root, rs := tr.begin()
	rc := child(root, spanCtx{})
	t0 := time.Now()

	var plans []*graph.ShardPlan
	d, err := tr.call("graph.partition", rc, func() error {
		var err error
		plans, err = graph.PartitionByRoot(g, graph.PartitionConfig{NumShards: numShards, HaloDepth: opts.MaxEdges})
		return err
	})
	ph.partition += d.Seconds()
	if err != nil {
		return nil, ph, err
	}
	mt := newMemTransport(tr)
	f := &fleet{mt: mt}
	urls := make([][]string, numShards)
	for _, p := range plans {
		sst, err := store.Open(filepath.Join(dir, fmt.Sprintf("shard-%d", p.Shard)), store.Options{})
		if err != nil {
			f.close()
			return nil, ph, err
		}
		d, err := tr.call("store.save_graph", rc, func() error {
			_, err := core.SaveGraphSnapshots(sst, p.Graph)
			return err
		})
		ph.saveGraph += d.Seconds()
		if err != nil {
			f.close()
			return nil, ph, err
		}
		var eng *ingest.Engine
		d, err = tr.call("ingest.open", rc, func() error {
			var err error
			eng, err = ingest.Open(ingest.Config{
				Store:             sst,
				Opts:              opts,
				MaxBatchMutations: ingest.FleetMaxBatchMutations,
			}, func() (*graph.Graph, error) {
				// Timed without a span of its own: it runs inside
				// ingest.open's span, which includes it.
				t0 := time.Now()
				g, _, err := core.LoadGraphSnapshotAuto(sst)
				ph.loadGraph += time.Since(t0).Seconds()
				return g, err
			})
			return err
		})
		ph.openIngest += d.Seconds()
		if err != nil {
			f.close()
			return nil, ph, err
		}
		f.engines = append(f.engines, eng)
		_, ex, fs, gen, _ := eng.State()
		srv := serve.NewServerSnapshot(&serve.Snapshot{Extractor: ex, Features: fs, Generation: gen, Source: "ingest"}, serve.Config{})
		srv.SetIngestor(eng, "ingest")
		srv.SetFleetFollower(true)
		h := srv.Handler()
		f.shardHandlers = append(f.shardHandlers, h)
		mt.shards[shardHost(p.Shard)] = h
		urls[p.Shard] = []string{"http://" + shardHost(p.Shard)}
	}
	seqDir := filepath.Join(dir, "router")
	if err := os.MkdirAll(seqDir, 0o755); err != nil {
		f.close()
		return nil, ph, err
	}
	f.router, err = router.New(router.Config{
		Manifest:    router.BuildManifest(g.NumNodes(), opts.MaxEdges, plans),
		Shards:      urls,
		SeqLogPath:  filepath.Join(seqDir, "seq.wal"),
		IngestGraph: g,
		Transport:   mt,
	})
	if err != nil {
		for _, e := range f.engines {
			e.Close()
		}
		return nil, ph, err
	}
	f.handler = f.router.Handler()
	if err := firstRequest(f.handler); err != nil {
		f.close()
		return nil, ph, err
	}
	ph.total = time.Since(t0).Seconds()
	tr.end("setup", root, rs, spanCtx{})
	return f, ph, nil
}

// saveAndLoad writes g to st as the deployed tools do (both graph
// codecs) and boots it back through the store's newest-generation
// loader.
func saveAndLoad(st *store.Store, g *graph.Graph, tr *tracer, parent spanCtx, ph *setupPhases) (*graph.Graph, error) {
	d, err := tr.call("store.save_graph", parent, func() error {
		_, err := core.SaveGraphSnapshots(st, g)
		return err
	})
	ph.saveGraph += d.Seconds()
	if err != nil {
		return nil, err
	}
	var out *graph.Graph
	d, err = tr.call("store.load_graph", parent, func() error {
		var err error
		out, _, err = core.LoadGraphSnapshotAuto(st)
		return err
	})
	ph.loadGraph += d.Seconds()
	return out, err
}

// firstRequest serves one read (of root 0) through h; set-up ends when
// it returns.
func firstRequest(h http.Handler) error {
	code, body := post(context.Background(), h, "/v1/features", serve.FeaturesRequest{Roots: []int64{0}})
	if code != http.StatusOK {
		return fmt.Errorf("first request: HTTP %d: %s", code, body)
	}
	return nil
}

// post sends v as JSON to h in process and returns the status and body.
func post(ctx context.Context, h http.Handler, path string, v any) (int, []byte) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, []byte(err.Error())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://bench"+path, bytes.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// get sends a GET for path to h in process.
func get(h http.Handler, path string) (int, []byte) {
	req, err := http.NewRequest(http.MethodGet, "http://bench"+path, nil)
	if err != nil {
		return 0, []byte(err.Error())
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// debugStats fetches h's GET /debug/stats and checks that every named
// field is present, so a renamed counter fails the run instead of
// silently reading as zero.
func debugStats(h http.Handler, fields ...string) (map[string]json.RawMessage, error) {
	code, body := get(h, "/debug/stats")
	if code != http.StatusOK {
		return nil, fmt.Errorf("/debug/stats: HTTP %d", code)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("/debug/stats: %w", err)
	}
	for _, f := range fields {
		if _, ok := m[f]; !ok {
			return nil, fmt.Errorf("/debug/stats: field %q missing", f)
		}
	}
	return m, nil
}

// counters are the /debug/stats counters the per-layer metrics use,
// summed over the fleet's shards.
type counters struct {
	requests, shardCalls, hedges         float64
	seqlogBytes                          float64
	hits, misses, coalesced, shed        float64
	compactions, dirtyMax, applyP50MSMax float64
}

func (f *fleet) counters(withIngest bool) (counters, error) {
	var c counters
	rfields := []string{"requests", "shard_calls", "hedges"}
	if withIngest {
		rfields = append(rfields, "fleet_seqlog_bytes")
	}
	rm, err := debugStats(f.handler, rfields...)
	if err != nil {
		return c, fmt.Errorf("router %w", err)
	}
	c.requests, c.shardCalls, c.hedges = num(rm["requests"]), num(rm["shard_calls"]), num(rm["hedges"])
	if withIngest {
		c.seqlogBytes = num(rm["fleet_seqlog_bytes"])
	}
	for i, h := range f.shardHandlers {
		sm, err := debugStats(h, "shed", "cache")
		if err != nil {
			return c, fmt.Errorf("shard %d %w", i, err)
		}
		c.shed += num(sm["shed"])
		var cache map[string]json.RawMessage
		if err := json.Unmarshal(sm["cache"], &cache); err != nil {
			return c, fmt.Errorf("shard %d cache stats: %w", i, err)
		}
		for _, k := range []string{"hits", "misses", "coalesced"} {
			if _, ok := cache[k]; !ok {
				return c, fmt.Errorf("shard %d /debug/stats: cache field %q missing", i, k)
			}
		}
		c.hits += num(cache["hits"])
		c.misses += num(cache["misses"])
		c.coalesced += num(cache["coalesced"])
	}
	for _, e := range f.engines {
		st := e.Stats()
		c.compactions += float64(st.Compactions)
		if float64(st.MaxDirtyRoots) > c.dirtyMax {
			c.dirtyMax = float64(st.MaxDirtyRoots)
		}
		if st.ApplyP50MS > c.applyP50MSMax {
			c.applyP50MSMax = st.ApplyP50MS
		}
	}
	return c, nil
}

func num(raw json.RawMessage) float64 {
	var x float64
	_ = json.Unmarshal(raw, &x) // presence is checked by debugStats
	return x
}

// minus is the counter delta a-b; the gauges (dirtyMax, applyP50MSMax)
// are a's readings.
func (a counters) minus(b counters) counters {
	return counters{
		requests: a.requests - b.requests, shardCalls: a.shardCalls - b.shardCalls, hedges: a.hedges - b.hedges,
		seqlogBytes: a.seqlogBytes - b.seqlogBytes,
		hits:        a.hits - b.hits, misses: a.misses - b.misses, coalesced: a.coalesced - b.coalesced, shed: a.shed - b.shed,
		compactions: a.compactions - b.compactions,
		dirtyMax:    a.dirtyMax, applyP50MSMax: a.applyP50MSMax,
	}
}
