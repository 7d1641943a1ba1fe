package main

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/experiment"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// learned-build: the paper's pipeline in-process, with no server. Round
// 1 trains the combined policy on a fixed SKE sample, distills it, and
// inserts the whole sequence into a bare Tree through the table backend;
// that tree faces the classic R-Tree built from the same sequence. Then,
// for the measured seconds, cycles repeat: each times two passes of the
// paper's range and KNN batteries on round 1's tree, a chunk of
// in-process moves on a copy of it, a restore from its snapshot
// encoding, and the next chunks of inserts of the round being rebuilt
// (trained and distilled anew whenever the previous one is complete).
// Every metric thus samples the host over the whole run. The policy
// engine, featurizer, choose/split, MBR upkeep and geom do the work;
// HTTP, WAL, shards and epochs are absent.

// learnedInputs are the generated inputs: the set-up of this workload.
type learnedInputs struct {
	data    []geom.Rect
	sample  []geom.Rect // training sample
	ranges  []geom.Rect
	knnPts  []geom.Point
	knnKs   []int
	payload []any
}

func learnedSetup(cfg config) learnedInputs {
	in := learnedInputs{
		data:   dataset.MustGenerate(dataset.SKE, cfg.size.buildObjects, dataSeed),
		sample: dataset.MustGenerate(dataset.SKE, cfg.size.learnSample, trainSeed),
	}
	in.ranges = paperBattery(in.data, cfg.size.batteryPerSize, cfg.seed, false)
	pts := dataset.KNNQueryPoints(cfg.size.knnPerK*len(dataset.KNNValues), geom.NewRect(0, 0, 1, 1), cfg.seed+5)
	for i, p := range pts {
		in.knnPts = append(in.knnPts, p)
		in.knnKs = append(in.knnKs, dataset.KNNValues[i%len(dataset.KNNValues)])
	}
	in.payload = make([]any, len(in.data))
	for i := range in.payload {
		in.payload[i] = i
	}
	return in
}

// learnedRound is one training, distillation and build of the RLR-Tree.
// The build runs in chunks of buildChunk inserts, so that it can be
// interleaved with the timed work on finished trees.
type learnedRound struct {
	pol    *trained
	tree   *rtree.Tree
	next   int           // objects inserted so far
	build  time.Duration // insert time so far
	rates  []float64     // inserts per second of each chunk
	digest string
}

// A cycle inserts chunksPerCycle chunks of buildChunk objects, so that a
// round of 200K objects is rebuilt, and its policy retrained, every five
// cycles.
const (
	buildChunk     = 10_000
	chunksPerCycle = 4
)

// startRound trains and distills a policy and starts an empty tree on it.
func startRound(in learnedInputs, tr *tracer) (*learnedRound, error) {
	pol, err := trainPolicy(in.sample)
	if err != nil {
		return nil, err
	}
	return &learnedRound{pol: pol, tree: rtree.New(policyOptions(pol.options(), tr))}, nil
}

// step inserts the next chunk and reports whether the build is complete.
func (r *learnedRound) step(in learnedInputs, tr *tracer) bool {
	hi := min(r.next+buildChunk, len(in.data))
	start := time.Now()
	for i := r.next; i < hi; i++ {
		t0, on := tr.begin()
		r.tree.Insert(in.data[i], in.payload[i])
		if on {
			tr.treeInsert.record(t0)
		}
	}
	d := time.Since(start)
	r.build += d
	r.rates = append(r.rates, perSecond(hi-r.next, d))
	r.next = hi
	return r.next == len(in.data)
}

// finish digests the round's policy once its build is complete.
func (r *learnedRound) finish(cfg config) (err error) {
	r.digest, err = r.pol.digest(cfg.workdir)
	return err
}

// buildRound trains, distills and builds in one go.
func buildRound(cfg config, in learnedInputs, tr *tracer) (*learnedRound, error) {
	r, err := startRound(in, tr)
	if err != nil {
		return nil, err
	}
	for !r.step(in, tr) {
	}
	return r, r.finish(cfg)
}

func runLearnedBuild(cfg config, led *ledger) (values, error) {
	v := values{}
	var in learnedInputs
	var setups []float64
	// Generating the inputs takes milliseconds, so it is repeated more
	// often than fleet's set-up.
	setupReps := 3 * cfg.size.setupReps
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		in = learnedSetup(cfg)
		setups = append(setups, time.Since(start).Seconds())
	}
	v["setup_s"] = median(setups)
	v["heap_mb"] = heapMiB()
	fingerprint(cfg, map[string]any{
		"objects": len(in.data), "dataset": "SKE", "train_sample": cfg.size.learnSample,
		"range_queries": len(in.ranges), "knn_queries": len(in.knnPts), "moves_per_cycle": cfg.size.moves, "setup_reps": setupReps,
	})

	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	first, err := buildRound(cfg, in, tr)
	if err != nil {
		return nil, err
	}
	progress(cfg, "learned-build: round 1: train+distill %.2fs, build %.2fs", first.pol.seconds(), first.build.Seconds())
	trains, inserts := []float64{first.pol.seconds()}, [][]float64{first.rates}
	splits, chooses := first.tree.Splits(), first.tree.ChooseCalls()
	learnedCompare(led, v, first.tree, in)
	rounds := 1
	finished := func(r *learnedRound) error {
		if err := r.finish(cfg); err != nil {
			return err
		}
		rounds++
		progress(cfg, "learned-build: round %d: train+distill %.2fs, build %.2fs", rounds, r.pol.seconds(), r.build.Seconds())
		led.check(r.digest == first.digest, "learned-build: policy digest %s differs from round 1's %s with the same seed", r.digest, first.digest)
		err := r.tree.Validate()
		led.check(err == nil, "learned-build: round %d tree invalid: %v", rounds, err)
		trains, inserts = append(trains, r.pol.seconds()), append(inserts, r.rates)
		return nil
	}
	if cfg.trace {
		tr.on.Store(true)
		r, err := buildRound(cfg, in, tr)
		tr.stop()
		if err != nil {
			return nil, err
		}
		if err := finished(r); err != nil {
			return nil, err
		}
		v["trace.overhead"] = ratio(r.build.Seconds(), first.build.Seconds()) - 1
	}

	m, err := newLearnedTimers(cfg, first)
	if err != nil {
		return nil, err
	}
	progress(cfg, "learned-build: compared with the R-Tree; cycles for %s", cfg.seconds)
	var cur *learnedRound
	cycles := 0
	deadline := time.Now().Add(cfg.seconds)
	for cycles == 0 || (!cfg.trace && time.Now().Before(deadline)) {
		if err := m.cycle(cfg, led, in); err != nil {
			return nil, err
		}
		cycles++
		if cfg.trace {
			continue
		}
		if cur == nil {
			if cur, err = startRound(in, nil); err != nil {
				return nil, err
			}
		}
		for i := 0; i < chunksPerCycle && cur != nil; i++ {
			if cur.step(in, nil) {
				if err := finished(cur); err != nil {
					return nil, err
				}
				cur = nil
			}
		}
	}
	m.check(led, in)
	v["train_s"], v["insert_per_s"] = fastTime(trains), buildRate(inserts)
	m.put(v)
	info(cfg, "determinism", map[string]any{
		"policy": first.digest, "queries": queryDigest(in), "splits": splits, "choose_calls": chooses,
		"query_nodes": v["query_nodes"], "rna": v["rna"], "rounds": rounds, "cycles": cycles,
	})
	if cfg.trace {
		n := float64(tr.treeInsert.n.Load())
		v["rtree.insert_self_us"] = ratio(tr.treeInsert.totalUS()-tr.policySelfUS(), n)
		v["rtree.splits_per_1k_inserts"] = 1000 * ratio(float64(splits), float64(len(in.data)))
		v["rtree.nodes_per_window"] = v["query_nodes"]
		policyLayers(v, tr, n, first.pol)
		for _, d := range perLayer {
			if _, ok := v[d.name]; !ok {
				v[d.name] = 0 // serving-stack layers are absent; the ladder fills its own rows
			}
		}
		return v, runLadder(cfg, led, first.pol, v)
	}
	return v, nil
}

// learnedCompare builds the classic R-Tree from the same sequence as t,
// validates both and compares them on the paper's batteries, filling
// query_nodes, rna and rtree.nodes_per_knn. The classic tree is dropped
// before the timed work starts.
func learnedCompare(led *ledger, v values, t *rtree.Tree, in learnedInputs) {
	classic := experiment.RTreeBuilder(rtree.DefaultMaxEntries, rtree.DefaultMinEntries).Build(in.data)
	err := t.Validate()
	led.check(err == nil, "learned-build: RLR-Tree invalid: %v", err)
	err = classic.Validate()
	led.check(err == nil, "learned-build: R-Tree invalid: %v", err)
	v["query_nodes"], v["rna"] = learnedBattery(led, t, classic, in)
	v["rtree.nodes_per_knn"] = learnedKNNNodes(t, in)
}

// learnedBattery compares the RLR-Tree with the classic R-Tree on the
// paper's batteries: identical range results (as object sets) and
// identical KNN distances, plus query_nodes and the paper's RNA.
func learnedBattery(led *ledger, t, classic *rtree.Tree, in learnedInputs) (float64, float64) {
	var nodes float64
	bad := 0
	for _, q := range in.ranges {
		a, sa := t.Search(q)
		b, _ := classic.Search(q)
		if !sameInts(a, b) {
			bad++
		}
		nodes += float64(sa.NodesAccessed)
	}
	led.check(bad == 0, "learned-build: %d of %d range queries differ between the RLR-Tree and the R-Tree", bad, len(in.ranges))
	bad = 0
	for i, p := range in.knnPts {
		a, _ := t.KNN(p, in.knnKs[i])
		b, _ := classic.KNN(p, in.knnKs[i])
		if len(a) != len(b) {
			bad++
			continue
		}
		for j := range a {
			if a[j].DistSq != b[j].DistSq {
				bad++
				break
			}
		}
	}
	led.check(bad == 0, "learned-build: %d of %d KNN queries differ between the RLR-Tree and the R-Tree", bad, len(in.knnPts))
	return nodes / float64(len(in.ranges)), experiment.MeasureRNA(t, classic, in.ranges)
}

func sameInts(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	x := make([]int, len(a))
	y := make([]int, len(b))
	for i := range a {
		x[i], y[i] = a[i].(int), b[i].(int)
	}
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}

func learnedKNNNodes(t *rtree.Tree, in learnedInputs) float64 {
	var nodes float64
	for i, p := range in.knnPts {
		_, st := t.KNN(p, in.knnKs[i])
		nodes += float64(st.NodesAccessed)
	}
	return ratio(nodes, float64(len(in.knnPts)))
}

// learnedTimers holds the finished trees the timed work of the cycles
// runs on, and what it measured.
type learnedTimers struct {
	query    *rtree.Tree // round 1's tree, never moved: the batteries
	moved    *rtree.Tree // a restored copy of it, walked by the moves
	enc      []byte      // its snapshot encoding, which the restores decode
	opts     rtree.Options
	restored *rtree.Tree // the latest restore
	cur      []geom.Rect // the moved tree's positions
	rng      *rand.Rand
	badMoves int

	win, knn, all []timer // one per battery pass
	moves         timer
	restores      []float64
	nbuf          []rtree.Neighbor
}

func newLearnedTimers(cfg config, r *learnedRound) (*learnedTimers, error) {
	var buf bytes.Buffer
	if err := r.tree.Encode(&buf); err != nil {
		return nil, err
	}
	m := &learnedTimers{query: r.tree, enc: buf.Bytes(), opts: r.pol.options(), rng: rand.New(rand.NewSource(cfg.seed + 11))}
	var err error
	if m.moved, err = rtree.Decode(bytes.NewReader(m.enc), m.opts); err != nil {
		return nil, err
	}
	return m, nil
}

// passesPerCycle is how many passes of the batteries a cycle times.
const passesPerCycle = 2

// cycle times one restore, passesPerCycle battery passes and one chunk
// of cfg.size.moves moves, after a full collection.
func (m *learnedTimers) cycle(cfg config, led *ledger, in learnedInputs) error {
	m.restored = nil
	runtime.GC()
	start := time.Now()
	got, err := rtree.Decode(bytes.NewReader(m.enc), m.opts)
	if err != nil {
		return err
	}
	m.restores = append(m.restores, time.Since(start).Seconds())
	m.restored = got
	for i := 0; i < passesPerCycle; i++ {
		m.pass(in)
	}
	m.move(cfg, led, in)
	return nil
}

// pass times every range and KNN query of the batteries on the query tree.
func (m *learnedTimers) pass(in learnedInputs) {
	var win, knn, all timer
	for _, q := range in.ranges {
		start := time.Now()
		m.query.SearchEach(q, func(geom.Rect, any) {})
		d := time.Since(start)
		win.record(d)
		all.record(d)
	}
	for i, p := range in.knnPts {
		start := time.Now()
		m.nbuf, _ = m.query.KNNAppend(p, in.knnKs[i], m.nbuf[:0])
		d := time.Since(start)
		knn.record(d)
		all.record(d)
	}
	m.win, m.knn, m.all = append(m.win, win), append(m.knn, knn), append(m.all, all)
}

// move moves cfg.size.moves objects of the moved tree: delete at the old
// position, reinsert through the table policy at the new one.
func (m *learnedTimers) move(cfg config, led *ledger, in learnedInputs) {
	if m.cur == nil {
		m.cur = append([]geom.Rect(nil), in.data...)
	}
	for j := 0; j < cfg.size.moves; j++ {
		i := m.rng.Intn(len(m.cur))
		to := walk(m.rng, m.cur[i])
		start := time.Now()
		ok := m.moved.Delete(m.cur[i], in.payload[i])
		m.moved.Insert(to, in.payload[i])
		m.moves.record(time.Since(start))
		m.cur[i] = to
		if !ok {
			m.badMoves++
		}
	}
	led.op(int64(cfg.size.moves), 0)
}

// check verifies the moved tree and the latest restore.
func (m *learnedTimers) check(led *ledger, in learnedInputs) {
	moves := m.moves.lat
	led.check(m.badMoves == 0, "learned-build: %d of %d moves found no object to delete", m.badMoves, len(moves))
	err := m.moved.Validate()
	led.check(err == nil && m.moved.Len() == len(in.data), "learned-build: tree invalid after moves (%d objects): %v", m.moved.Len(), err)
	err = m.restored.Validate()
	led.check(err == nil && m.restored.Len() == m.query.Len(), "learned-build: restored tree invalid (%d of %d objects): %v",
		m.restored.Len(), m.query.Len(), err)
}

// put fills the metrics of the timed work. Each battery pass is one part
// of the read figures, so every part holds the whole battery, all query
// sizes and K values.
func (m *learnedTimers) put(v values) {
	passFigures(m.win).put(v, "window")
	passFigures(m.knn).put(v, "knn")
	v["read_per_s"] = passFigures(m.all).rate
	f := m.moves.robust()
	f.put(v, "set")
	v["set_per_s"] = f.rate
	v["recover_s"] = fastTime(m.restores)
}
