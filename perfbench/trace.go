package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call made by the benchmark into a layer of the
// program: a client request, a shard call through the in-memory
// transport, or a public library call. Spans of one client operation
// share Req; Parent is the span that caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanCtx identifies the span new child spans hang under.
type spanCtx struct{ id, req int64 }

type spanKey struct{}

func withSpan(ctx context.Context, sc spanCtx) context.Context {
	return context.WithValue(ctx, spanKey{}, sc)
}

func spanFrom(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc
}

// tracer keeps spans in memory for the duration of a traced phase. A
// nil *tracer is the untraced mode: every method is a no-op, so the
// untraced runs pay one nil check per call site.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	// batches maps a client write's batch ID to its router span, so
	// follower calls — which the router's fan-out senders issue from
	// their own goroutines, outside the client request's context — can
	// be attached to the write that caused them.
	batches sync.Map
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin allocates a span ID and its start time. On a nil tracer it
// returns zero values.
func (t *tracer) begin() (id, start int64) {
	if t == nil {
		return 0, 0
	}
	return t.nextID.Add(1), int64(time.Since(t.t0))
}

// end records the span begun with begin. A root span (parent.id == 0)
// starts a new request and takes its own ID as the request ID.
func (t *tracer) end(name string, id, start int64, parent spanCtx) {
	if t == nil {
		return
	}
	s := span{Name: name, ID: id, Parent: parent.id, Req: parent.req, Start: start, End: int64(time.Since(t.t0))}
	if parent.id == 0 {
		s.Req = id
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// child returns the context new children of span id should see.
func child(id int64, parent spanCtx) spanCtx {
	if parent.id == 0 {
		return spanCtx{id: id, req: id}
	}
	return spanCtx{id: id, req: parent.req}
}

// call times fn as a span named name under parent and returns its
// duration whether or not tracing is on: set-up and batch phases need
// the durations for their end-to-end figures anyway.
func (t *tracer) call(name string, parent spanCtx, fn func() error) (time.Duration, error) {
	id, s := t.begin()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	t.end(name, id, s, parent)
	return d, err
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// analysis is the per-layer view of a set of spans.
type analysis struct {
	// self holds every span's self time (its duration minus the part of
	// its interval its children cover), grouped by span name.
	self map[string][]time.Duration
	// dur holds every span's full duration, grouped by span name.
	dur map[string][]time.Duration
	// rootTotal is the summed duration of root spans; selfTotal the
	// summed self time of every span in their trees. The two differ by
	// the time children overlap each other (parallel shard and follower
	// calls count once per call) or run outside their parent.
	rootTotal, selfTotal time.Duration
	// seqSelf is, per router ingest span, its duration minus its
	// slowest follower call: the time the write spent in the router
	// itself (validation, sequencer fsync, fan-out bookkeeping).
	seqSelf []time.Duration
}

// analyse computes self times. Spans whose parent is not in the set
// (spans of an untraced phase) are treated as roots.
func analyse(spans []span) *analysis {
	a := &analysis{self: map[string][]time.Duration{}, dur: map[string][]time.Duration{}}
	byID := make(map[int64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make(map[int64][]int)
	var roots []int
	for i, s := range spans {
		if _, ok := byID[s.Parent]; s.Parent != 0 && ok {
			children[s.Parent] = append(children[s.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	for _, i := range roots {
		a.rootTotal += spans[i].dur()
	}
	var walk func(i int)
	walk = func(i int) {
		s := spans[i]
		kids := children[s.ID]
		covered := coverage(s, spans, kids)
		self := s.dur() - covered
		a.self[s.Name] = append(a.self[s.Name], self)
		a.dur[s.Name] = append(a.dur[s.Name], s.dur())
		a.selfTotal += self
		if s.Name == "router.ingest" {
			var slowest time.Duration
			for _, k := range kids {
				if d := spans[k].dur(); d > slowest {
					slowest = d
				}
			}
			a.seqSelf = append(a.seqSelf, s.dur()-slowest)
		}
		for _, k := range kids {
			walk(k)
		}
	}
	for _, i := range roots {
		walk(i)
	}
	return a
}

// coverage is the length of the union of the children's intervals,
// clipped to the parent's interval.
func coverage(parent span, spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// sumSeconds adds up ds in seconds.
func sumSeconds(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds()
}

// residualRatio is the share of root-span time the per-layer self
// times do not account for: (roots - selves) / roots. Negative values
// mean children overlapped (parallel calls counted once each).
func (a *analysis) residualRatio() float64 {
	return ratio(float64(a.rootTotal-a.selfTotal), float64(a.rootTotal))
}
