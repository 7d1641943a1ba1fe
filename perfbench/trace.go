package main

import (
	"net/http"
	"sync/atomic"
	"time"

	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/server"
	"github.com/rlr-tree/rlrtree/internal/shard"
)

// The traced run times calls into each layer's public entry points from
// wrapper types placed at seams the program already exposes: an
// http.Handler around Server.Handler(), a server.Index around the
// sharded tree, and SubtreeChooser/Splitter around the learned policy.
// Spans are aggregated in memory (count and total time per span kind)
// and turned into per-layer metrics when the run ends. A layer's self
// time is its span total minus the totals of the spans nested in it.
// Wrappers only forward while the tracer is off, so one built stack
// serves the untraced and the traced window of a run, and their
// difference is the tracing overhead.

// span aggregates one kind of timed call.
type span struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (s *span) record(start time.Time) {
	s.n.Add(1)
	s.ns.Add(int64(time.Since(start)))
}

// meanUS is the mean span duration in microseconds; 0 when none ran.
func (s *span) meanUS() float64 { return ratio(float64(s.ns.Load())/1e3, float64(s.n.Load())) }

func (s *span) totalUS() float64 { return float64(s.ns.Load()) / 1e3 }

// httpSpan is a handler span plus the response bytes it wrote.
type httpSpan struct {
	span
	bytes atomic.Int64
}

type tracer struct {
	on atomic.Bool

	choose, split                      span // policy decisions
	insert, delete, search, knn        span // index calls
	treeInsert                         span // bare-tree inserts (learned-build)
	searchNodes, knnNodes              atomic.Int64
	httpSet, httpWithin, httpKNN, http httpSpan // http is every other endpoint
}

// begin returns the span start time and whether tracing is on.
func (t *tracer) begin() (time.Time, bool) {
	if t == nil || !t.on.Load() {
		return time.Time{}, false
	}
	return time.Now(), true
}

// stop turns tracing off; a nil tracer is a no-op.
func (t *tracer) stop() {
	if t != nil {
		t.on.Store(false)
	}
}

func (t *tracer) policySelfUS() float64 { return t.choose.totalUS() + t.split.totalUS() }

// tracedChooser times each ChooseSubtree decision of the wrapped policy.
type tracedChooser struct {
	inner rtree.SubtreeChooser
	tr    *tracer
}

func (c tracedChooser) Name() string { return c.inner.Name() }

func (c tracedChooser) Choose(t *rtree.Tree, n *rtree.Node, r geom.Rect) int {
	start, on := c.tr.begin()
	i := c.inner.Choose(t, n, r)
	if on {
		c.tr.choose.record(start)
	}
	return i
}

// tracedSplitter times each Split decision of the wrapped policy.
type tracedSplitter struct {
	inner rtree.Splitter
	tr    *tracer
}

func (s tracedSplitter) Name() string { return s.inner.Name() }

func (s tracedSplitter) Split(t *rtree.Tree, n *rtree.Node) ([]rtree.Entry, []rtree.Entry) {
	start, on := s.tr.begin()
	a, b := s.inner.Split(t, n)
	if on {
		s.tr.split.record(start)
	}
	return a, b
}

// tracedIndex times the index calls the keyed endpoints make. Embedding
// forwards everything else — InsertBatch, ShardStats, FanoutStats,
// PrepareSnapshot, EncodeSnapshot, Validate — so /stats, snapshots and
// validation see the sharded tree unchanged.
type tracedIndex struct {
	*shard.ShardedTree
	tr *tracer
}

var (
	_ server.Index                  = (*tracedIndex)(nil)
	_ server.ShardStatser           = (*tracedIndex)(nil)
	_ server.FanoutStatser          = (*tracedIndex)(nil)
	_ server.SnapshotPreparer       = (*tracedIndex)(nil)
	_ collection.Spatial            = (*tracedIndex)(nil)
	_ interface{ Validate() error } = (*tracedIndex)(nil)
)

func (x *tracedIndex) Insert(r geom.Rect, data any) {
	start, on := x.tr.begin()
	x.ShardedTree.Insert(r, data)
	if on {
		x.tr.insert.record(start)
	}
}

func (x *tracedIndex) Delete(r geom.Rect, data any) bool {
	start, on := x.tr.begin()
	ok := x.ShardedTree.Delete(r, data)
	if on {
		x.tr.delete.record(start)
	}
	return ok
}

func (x *tracedIndex) SearchEach(q geom.Rect, fn func(geom.Rect, any)) rtree.QueryStats {
	start, on := x.tr.begin()
	st := x.ShardedTree.SearchEach(q, fn)
	if on {
		x.tr.search.record(start)
		x.tr.searchNodes.Add(int64(st.NodesAccessed))
	}
	return st
}

func (x *tracedIndex) KNNAppend(p geom.Point, k int, dst []rtree.Neighbor) ([]rtree.Neighbor, rtree.QueryStats) {
	start, on := x.tr.begin()
	out, st := x.ShardedTree.KNNAppend(p, k, dst)
	if on {
		x.tr.knn.record(start)
		x.tr.knnNodes.Add(int64(st.NodesAccessed))
	}
	return out, st
}

// tracedHandler times each request the server handles and counts the
// bytes of its response.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start, on := t.tr.begin()
	if !on {
		t.h.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	t.h.ServeHTTP(cw, r)
	s := &t.tr.http
	switch r.URL.Path {
	case "/set":
		s = &t.tr.httpSet
	case "/within":
		s = &t.tr.httpWithin
	case "/knn":
		s = &t.tr.httpKNN
	}
	s.record(start)
	s.bytes.Add(cw.n)
}

// policyOptions wraps the policy strategies of opts for tracing; a nil
// tracer leaves them untouched, so untraced runs measure the program
// exactly as deployed.
func policyOptions(opts rtree.Options, tr *tracer) rtree.Options {
	if tr != nil {
		opts.Chooser = tracedChooser{inner: opts.Chooser, tr: tr}
		opts.Splitter = tracedSplitter{inner: opts.Splitter, tr: tr}
	}
	return opts
}

// newIndex builds the 4-shard serving index, wrapped when tracing.
func newIndex(opts rtree.Options, tr *tracer) (server.Index, *shard.ShardedTree, error) {
	st, err := shard.New(shard.Options{Shards: numShards, Tree: opts})
	if err != nil {
		return nil, nil, err
	}
	if tr == nil {
		return st, st, nil
	}
	return &tracedIndex{ShardedTree: st, tr: tr}, st, nil
}

// shardSplits sums the split counters of the published shard trees.
func shardSplits(st *shard.ShardedTree) int {
	total := 0
	for i := 0; i < st.NumShards(); i++ {
		st.Shard(i).View(func(t *rtree.Tree) { total += t.Splits() })
	}
	return total
}
