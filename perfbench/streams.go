package main

import (
	"fmt"
	"math/rand"
	"sync"

	"hsgf/internal/graph"
	"hsgf/internal/serve"
)

// readStream is the seeded request stream of the read workloads: each
// request asks for rootsPerReq distinct roots drawn Zipf(s) over a
// seeded permutation of a hot set of node IDs, so the popular roots are
// spread over the ID space (and over both shards) instead of clustering
// at low IDs. Requests come from readTenants client populations in
// turn, each with its own permutation of the hot set: under a single
// Zipf ranking the top root alone is in most requests, so the size of a
// handful of rows would set the whole run's latency and vary from seed
// to seed.
//
// The hot set is a seeded sample small enough for the row cache, and
// every coldEvery-th request swaps its last root for one drawn
// uniformly from the other nodes. Once the warm-up has requested every
// hot root (readStream.hot), a fixed share of requests — not the run's length or
// the machine's speed — decides how many reads miss the cache: p50 is
// the warm hit path and the tail the miss path's census. Requests come
// out in index order under a mutex; which client sends a given request
// varies, what the request holds does not.
type readStream struct {
	mu        sync.Mutex
	rng       *rand.Rand
	zipf      *rand.Zipf
	perms     [][]int
	hotSet    []int
	cold      []int
	coldEvery int
	k         int
	n         int
	// seen marks roots requested earlier in the stream; fresh collects,
	// while recording is on, the roots requested for the first time —
	// the rows no cache can have, which the traced run replays through
	// the census to time the miss path's kernel work.
	seen      []bool
	recording bool
	fresh     []graph.NodeID
}

// newReadStream draws over a hot set of hot nodes (all nodes when hot
// is 0 or at least nodes, and then no request is cold); coldEvery 0
// sends no cold roots.
func newReadStream(seed int64, nodes, rootsPerReq int, s float64, hot, coldEvery int) *readStream {
	rng := rand.New(rand.NewSource(seed))
	st := &readStream{
		rng:  rng,
		k:    rootsPerReq,
		seen: make([]bool, nodes),
	}
	st.hotSet = make([]int, nodes)
	for i := range st.hotSet {
		st.hotSet[i] = i
	}
	if hot > 0 && hot < nodes {
		all := rng.Perm(nodes)
		st.hotSet, st.cold = all[:hot], all[hot:]
		st.coldEvery = coldEvery
	}
	st.zipf = rand.NewZipf(rng, s, zipfOffset, uint64(len(st.hotSet)-1))
	for t := 0; t < readTenants; t++ {
		perm := rng.Perm(len(st.hotSet))
		for i, j := range perm {
			perm[i] = st.hotSet[j]
		}
		st.perms = append(st.perms, perm)
	}
	return st
}

// readTenants is the number of client populations with their own
// popularity ranking.
const readTenants = 8

// next returns the next request's index and roots.
func (st *readStream) next() (int, []int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	idx := st.n
	st.n++
	perm := st.perms[idx%len(st.perms)]
	roots := make([]int64, 0, st.k)
	for len(roots) < st.k {
		r := perm[st.zipf.Uint64()]
		if st.isCold(idx) && len(roots) == st.k-1 {
			r = st.cold[st.rng.Intn(len(st.cold))]
		}
		dup := false
		for _, x := range roots {
			if x == int64(r) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		roots = append(roots, int64(r))
		st.mark(r)
	}
	return idx, roots
}

// isCold reports whether request idx carries a cold root.
func (st *readStream) isCold(idx int) bool {
	return st.coldEvery > 0 && idx%st.coldEvery == st.coldEvery-1
}

// hot returns the hot set in request-sized chunks, outside the stream:
// the warm-up sends each once so that every hot row is cached.
func (st *readStream) hot() [][]int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out [][]int64
	for i := 0; i < len(st.hotSet); i += st.k {
		var req []int64
		for _, r := range st.hotSet[i:min(i+st.k, len(st.hotSet))] {
			req = append(req, int64(r))
			st.mark(r)
		}
		out = append(out, req)
	}
	return out
}

func (st *readStream) mark(r int) {
	if !st.seen[r] {
		st.seen[r] = true
		if st.recording {
			st.fresh = append(st.fresh, graph.NodeID(r))
		}
	}
}

// issued returns how many requests the stream has handed out.
func (st *readStream) issued() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.n
}

// record turns first-request tracking on or off and returns the roots
// collected since the last call.
func (st *readStream) record(on bool) []graph.NodeID {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := st.fresh
	st.fresh = nil
	st.recording = on
	return out
}

// writeStream generates a valid, stationary mutation stream against
// the evolving global graph. It tracks the edge set exactly: it adds
// only edges that do not exist yet, removes only edges it added
// itself (so the seed graph's edges are never touched and the
// existence check needs no copy of them), and adds a node now and
// then. Once its pool of added edges reaches poolTarget every batch
// removes as many as it adds, so the graph stays near its starting
// size however long the run is. A batch the fleet rejects is a
// failure; the stream never retries it.
type writeStream struct {
	rng      *rand.Rand
	base     *graph.Graph
	labels   []string
	numNodes int
	added    map[[2]graph.NodeID]bool
	pool     [][2]graph.NodeID

	addsPerBatch int
	poolTarget   int
	nodeEvery    int
	k            int

	// log holds every batch generated, in order, for the oracle's
	// from-scratch rebuild of the final graph; before[k] is the node
	// count batch k was generated against (its first new node's ID).
	log    [][]graph.Mutation
	before []graph.NodeID
}

func newWriteStream(seed int64, g *graph.Graph, addsPerBatch, poolTarget, nodeEvery int) *writeStream {
	return &writeStream{
		rng:          rand.New(rand.NewSource(seed)),
		base:         g,
		labels:       g.Alphabet().Names(),
		numNodes:     g.NumNodes(),
		added:        make(map[[2]graph.NodeID]bool),
		addsPerBatch: addsPerBatch,
		poolTarget:   poolTarget,
		nodeEvery:    nodeEvery,
	}
}

func orderedPair(u, v graph.NodeID) [2]graph.NodeID {
	if u > v {
		u, v = v, u
	}
	return [2]graph.NodeID{u, v}
}

func (ws *writeStream) exists(e [2]graph.NodeID) bool {
	if ws.added[e] {
		return true
	}
	return int(e[1]) < ws.base.NumNodes() && ws.base.HasEdge(e[0], e[1])
}

// next returns the next batch's client ID and its mutations.
func (ws *writeStream) next() (string, []graph.Mutation) {
	id := fmt.Sprintf("w%d", ws.k)
	// Edges connect nodes that existed before this batch, and an edge
	// removed by this batch is not re-added by it.
	n := ws.numNodes
	var muts []graph.Mutation
	if ws.k%ws.nodeEvery == ws.nodeEvery-1 {
		muts = append(muts, graph.Mutation{Op: graph.OpAddNode, Label: ws.labels[ws.rng.Intn(len(ws.labels))]})
		ws.numNodes++
	}
	removed := map[[2]graph.NodeID]bool{}
	removes := 0
	if len(ws.pool) >= ws.poolTarget {
		removes = ws.addsPerBatch
	}
	for i := 0; i < removes; i++ {
		j := ws.rng.Intn(len(ws.pool))
		e := ws.pool[j]
		ws.pool[j] = ws.pool[len(ws.pool)-1]
		ws.pool = ws.pool[:len(ws.pool)-1]
		delete(ws.added, e)
		removed[e] = true
		muts = append(muts, graph.Mutation{Op: graph.OpRemoveEdge, U: e[0], V: e[1]})
	}
	for i := 0; i < ws.addsPerBatch; i++ {
		for {
			u := graph.NodeID(ws.rng.Intn(n))
			v := graph.NodeID(ws.rng.Intn(n))
			if u == v {
				continue
			}
			e := orderedPair(u, v)
			if ws.exists(e) || removed[e] {
				continue
			}
			ws.added[e] = true
			ws.pool = append(ws.pool, e)
			muts = append(muts, graph.Mutation{Op: graph.OpAddEdge, U: e[0], V: e[1]})
			break
		}
	}
	ws.k++
	ws.log = append(ws.log, muts)
	ws.before = append(ws.before, graph.NodeID(n))
	return id, muts
}

// wire converts mutations to the /v1/ingest wire form.
func wire(muts []graph.Mutation) []serve.IngestMutation {
	out := make([]serve.IngestMutation, len(muts))
	for i, m := range muts {
		out[i] = serve.IngestMutation{Op: m.Op.String(), U: int64(m.U), V: int64(m.V), Label: m.Label, Name: m.Name}
	}
	return out
}

// touched returns the nodes a batch's mutations name: the seeds of its
// dirty ball. New nodes are isolated and dirty only themselves.
func touched(muts []graph.Mutation, firstNew graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	next := firstNew
	for _, m := range muts {
		switch m.Op {
		case graph.OpAddNode:
			out = append(out, next)
			next++
		case graph.OpAddEdge, graph.OpRemoveEdge:
			out = append(out, m.U, m.V)
		}
	}
	return out
}

// zipfOffset flattens the head of the popularity curve (a
// Zipf-Mandelbrot rank offset): P(rank k) ∝ (zipfOffset+k)^-s. With the
// plain curve the top root of each population is in one request of
// eight, so whether one large row — a hub's — ranks first would decide
// the tail latency of a whole run.
const zipfOffset = 32
