package main

import (
	"math"
	"time"

	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/shard"
	"github.com/rlr-tree/rlrtree/internal/wal"
)

// failedUS is the latency recorded for a failed request: it misses every
// latency bound.
const failedUS = math.MaxFloat64

// window is what one closed-loop load window measured.
type window struct {
	set, within, knn latencies
	elapsed          time.Duration
}

func (w *window) merge(o window) {
	w.set = append(w.set, o.set...)
	w.within = append(w.within, o.within...)
	w.knn = append(w.knn, o.knn...)
}

// clientUS sums the latencies of every request the window sent.
func (w *window) clientUS() (float64, int) {
	var sum float64
	n := 0
	for _, l := range []latencies{w.set, w.within, w.knn} {
		for _, s := range l {
			if s.us != failedUS {
				sum += s.us
				n++
			}
		}
	}
	return sum, n
}

// servingMetrics fills the end-to-end latency and rate metrics of a
// serving workload from the window its reads and its SETs ran in.
func servingMetrics(v values, w, sets window) {
	set, within, knn := sets.set.robust(sets.elapsed, partSpan), w.within.robust(w.elapsed, partSpan), w.knn.robust(w.elapsed, partSpan)
	set.put(v, "set")
	within.put(v, "window")
	knn.put(v, "knn")
	v["set_per_s"] = set.rate
	v["read_per_s"] = within.rate + knn.rate
}

// counters are the program's own cumulative counters, read through
// public getters around a traced window.
type counters struct {
	wal    wal.Metrics
	fanout shard.FanoutStats
	splits int
}

func readCounters(st *shard.ShardedTree, w *wal.WAL) counters {
	c := counters{fanout: st.FanoutStats(), splits: shardSplits(st)}
	if w != nil {
		c.wal = w.Metrics()
	}
	return c
}

// servingLayers computes the per-layer metrics of a traced serving
// window tw from the tracer's spans and the counter deltas. Policy
// decisions all count toward inserts: a delete's underflow reinsertion
// also consults the chooser, but rarely.
func servingLayers(v values, tr *tracer, tw window, before, after counters, pol *trained) {
	client, n := tw.clientUS()
	handler := tr.httpSet.totalUS() + tr.httpWithin.totalUS() + tr.httpKNN.totalUS() + tr.http.totalUS()
	v["net.transport_us"] = ratio(client-handler, float64(n))
	v["server.self_us.set"] = ratio(tr.httpSet.totalUS()-tr.insert.totalUS()-tr.delete.totalUS(), float64(tr.httpSet.n.Load()))
	v["server.self_us.within"] = ratio(tr.httpWithin.totalUS()-tr.search.totalUS(), float64(tr.httpWithin.n.Load()))
	v["server.self_us.knn"] = ratio(tr.httpKNN.totalUS()-tr.knn.totalUS(), float64(tr.httpKNN.n.Load()))
	v["server.resp_bytes.within"] = ratio(float64(tr.httpWithin.bytes.Load()), float64(tr.httpWithin.n.Load()))
	appends := float64(after.wal.Appends - before.wal.Appends)
	v["wal.appends_per_fsync"] = ratio(appends, float64(after.wal.Fsyncs-before.wal.Fsyncs))
	v["wal.bytes_per_set"] = ratio(float64(after.wal.AppendedBytes-before.wal.AppendedBytes), appends)
	inserts := float64(tr.insert.n.Load())
	v["shard.insert_us"] = ratio(tr.insert.totalUS()-tr.policySelfUS(), inserts)
	v["shard.delete_us"] = tr.delete.meanUS()
	v["shard.search_us"] = tr.search.meanUS()
	v["shard.knn_us"] = tr.knn.meanUS()
	v["shard.probed_per_query"] = ratio(float64(after.fanout.ShardsProbed-before.fanout.ShardsProbed),
		float64(after.fanout.Queries-before.fanout.Queries))
	v["rtree.nodes_per_window"] = ratio(float64(tr.searchNodes.Load()), float64(tr.search.n.Load()))
	v["rtree.nodes_per_knn"] = ratio(float64(tr.knnNodes.Load()), float64(tr.knn.n.Load()))
	v["rtree.insert_self_us"] = 0 // no bare tree on this path; see shard.insert_us
	v["rtree.splits_per_1k_inserts"] = 1000 * ratio(float64(after.splits-before.splits), inserts)
	policyLayers(v, tr, inserts, pol)
}

// policyLayers fills the policy and training metrics.
func policyLayers(v values, tr *tracer, inserts float64, pol *trained) {
	v["policy.choose_us"] = tr.choose.meanUS()
	v["policy.split_us"] = tr.split.meanUS()
	v["policy.choose_per_insert"] = ratio(float64(tr.choose.n.Load()), inserts)
	v["core.train_inserts_per_s"], v["core.reward_queries_per_s"] = pol.trainRates()
	v["core.distill_s"] = pol.distill.Seconds()
}

// searcher is the range-query kernel shared by trees and sharded trees.
type searcher interface {
	SearchEach(q geom.Rect, fn func(geom.Rect, any)) rtree.QueryStats
}

// paperBattery is the paper's range-query battery: perSize windows at
// each of its seven query sizes. Serving workloads centre them on the
// data, where their users query; learned-build uses the paper's uniform
// centres.
func paperBattery(data []geom.Rect, perSize int, seed int64, dataCentred bool) []geom.Rect {
	unit := geom.NewRect(0, 0, 1, 1)
	var out []geom.Rect
	for i, frac := range dataset.QuerySizes {
		s := seed + 101*int64(i+1)
		if dataCentred {
			out = append(out, dataset.DataCenteredQueries(data, perSize, frac, unit, s)...)
		} else {
			out = append(out, dataset.RangeQueries(perSize, frac, unit, s)...)
		}
	}
	return out
}

// compareBattery runs qs on the learned index and on the classic R-Tree
// built from the same insertion sequence. It returns query_nodes (mean
// node accesses of the learned index) and rna (mean per-query ratio of
// its node accesses to the classic tree's, the paper's RNA). Both
// indexes must return the same number of objects for every query.
func compareBattery(led *ledger, learned, classic searcher, qs []geom.Rect) (float64, float64) {
	var nodes, rna float64
	bad := 0
	for _, q := range qs {
		a := learned.SearchEach(q, func(geom.Rect, any) {})
		b := classic.SearchEach(q, func(geom.Rect, any) {})
		if a.Results != b.Results {
			bad++
		}
		nodes += float64(a.NodesAccessed)
		rna += float64(a.NodesAccessed) / float64(b.NodesAccessed)
	}
	led.check(bad == 0, "battery: %d of %d queries returned different result counts on the learned and the classic index", bad, len(qs))
	return nodes / float64(len(qs)), rna / float64(len(qs))
}

// classicOptions are the classic R-Tree of experiment.RTreeBuilder:
// Guttman's least-enlargement ChooseSubtree with the quadratic split.
func classicOptions() rtree.Options {
	return rtree.Options{
		MaxEntries: rtree.DefaultMaxEntries, MinEntries: rtree.DefaultMinEntries,
		Chooser: rtree.GuttmanChooser{}, Splitter: rtree.QuadraticSplit{},
	}
}
