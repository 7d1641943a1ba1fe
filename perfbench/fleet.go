package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/server"
	"github.com/rlr-tree/rlrtree/internal/shard"
	"github.com/rlr-tree/rlrtree/internal/wal"
)

// fleet: a durable moving-objects service. Every request is a keyed
// random-walk move (POST /set) acknowledged only once the WAL's group
// commit made it durable; about one in ten is a read centred on one of
// the connection's own vehicles. The work lands on HTTP decode, the
// collection key map, WAL append and fsync, shard routing, the epoch
// layer's apply-twice and the policy insert path.

const (
	fleetWithinShare = 0.10  // share of requests that are /within
	fleetKNNShare    = 0.06  // share of requests that are /knn
	fleetWindow      = 0.001 // /within window side: 0.0001% of the world
	knnK             = 10
	placeChunk       = 5_000 // placement rate is timed per chunk
	fleetSync        = wal.SyncNone
)

type fleetState struct {
	data   []geom.Rect
	keys   []string
	pol    *trained
	ix     server.Index
	st     *shard.ShardedTree
	coll   *collection.Collection
	w      *wal.WAL
	walDir string
	// placedDir holds a copy of the log as set-up left it, one SET per
	// vehicle: recover_s replays it, so the timed log has the same length
	// in every run.
	placedDir string
	// acked is each key's last acknowledged position; each load
	// connection writes only the keys it owns.
	acked []geom.Rect
}

// release closes the log, if still open, and deletes it.
func (fs *fleetState) release() {
	if fs.w != nil {
		fs.w.Close()
		fs.w = nil
	}
	os.RemoveAll(fs.walDir)
	os.RemoveAll(fs.placedDir)
}

// fleetSetup generates the fleet, trains the policy, and places every
// vehicle through the WAL and the collection, as a server replaying its
// log would. Placement logs without per-record fsync and syncs once at
// the end; the load phase reopens the log with the interval (group
// commit) policy that rlr-serve defaults to. It returns the placement
// rate of each chunk of placeChunk vehicles.
func fleetSetup(cfg config, rep int, tr *tracer) (*fleetState, []float64, error) {
	n := cfg.size.fleetObjects
	fs := &fleetState{
		data:      dataset.MustGenerate(dataset.CHI, n, dataSeed),
		keys:      make([]string, n),
		walDir:    filepath.Join(cfg.workdir, fmt.Sprintf("fleet-wal-%d", rep)),
		placedDir: filepath.Join(cfg.workdir, fmt.Sprintf("fleet-placed-%d", rep)),
	}
	for i := range fs.keys {
		fs.keys[i] = keyOf(i)
	}
	var err error
	if fs.pol, err = trainPolicy(dataset.Sample(fs.data, cfg.size.trainSample)); err != nil {
		return nil, nil, err
	}
	if fs.ix, fs.st, err = newIndex(policyOptions(fs.pol.options(), tr), tr); err != nil {
		return nil, nil, err
	}
	fs.coll = collection.New(fs.ix)
	w, err := wal.Open(wal.Options{Dir: fs.walDir, Sync: wal.SyncNone, Epoch: numShards})
	if err != nil {
		return nil, nil, err
	}
	var rates []float64
	for lo := 0; lo < n; lo += placeChunk {
		hi := min(lo+placeChunk, n)
		start := time.Now()
		for i := lo; i < hi; i++ {
			if _, err := w.AppendSet(fs.data[i], fs.keys[i]); err != nil {
				w.Close()
				return nil, nil, err
			}
			fs.coll.Set(fs.keys[i], fs.data[i])
		}
		rates = append(rates, perSecond(hi-lo, time.Since(start)))
	}
	if err := w.Close(); err != nil {
		return nil, nil, err
	}
	if err := copyDir(fs.placedDir, fs.walDir); err != nil {
		return nil, nil, err
	}
	if fs.w, err = wal.Open(wal.Options{Dir: fs.walDir, Sync: fleetSync, Epoch: numShards}); err != nil {
		return nil, nil, err
	}
	fs.acked = append([]geom.Rect(nil), fs.data...)
	return fs, rates, nil
}

func runFleet(cfg config, led *ledger) (values, error) {
	var tr *tracer
	reps := cfg.size.setupReps
	if cfg.trace {
		tr, reps = &tracer{}, 1
	}
	v := values{}
	var setups, trains []float64
	var inserts [][]float64
	// The first set-up places the served fleet. The others run between
	// the timed recoveries at the end, so that set-up samples the host at
	// both ends of the run.
	setUp := func(rep int, tr *tracer) (*fleetState, error) {
		runtime.GC() // every set-up starts from a collected heap
		start := time.Now()
		fs, rates, err := fleetSetup(cfg, rep, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		trains = append(trains, fs.pol.seconds())
		inserts = append(inserts, rates)
		return fs, nil
	}
	fs, err := setUp(0, tr)
	if err != nil {
		return nil, err
	}
	defer fs.release()
	fingerprint(cfg, map[string]any{
		"objects": len(fs.data), "dataset": "CHI", "shards": numShards, "wal_fsync": fleetSync.String(),
		"connections": connections, "pipeline": fleetPipeline, "setup_reps": reps,
	})
	if !cfg.trace {
		classic, err := shard.New(shard.Options{Shards: numShards, Tree: classicOptions()})
		if err != nil {
			return nil, err
		}
		for i, r := range fs.data {
			classic.Insert(r, fs.keys[i])
		}
		qs := paperBattery(fs.data, cfg.size.servedPerSize, cfg.seed, true)
		v["query_nodes"], v["rna"] = compareBattery(led, fs.st, classic, qs)
	}
	v["heap_mb"] = heapMiB()

	srv, err := startServer(server.Config{
		Index: fs.ix, IndexName: "RLR-Tree", WAL: fs.w, Collection: fs.coll, Policy: fs.pol.hot,
	}, tr)
	if err != nil {
		return nil, err
	}
	before, err := collectionStats(srv.addr)
	if err != nil {
		srv.stop()
		return nil, err
	}
	progress(cfg, "fleet: load window %s", cfg.seconds)
	w := fleetLoad(cfg, srv.addr, fs, led, cfg.seed)
	acked := len(w.set)
	if cfg.trace {
		c0 := readCounters(fs.st, fs.w)
		tr.on.Store(true)
		tw := fleetLoad(cfg, srv.addr, fs, led, cfg.seed+1)
		tr.on.Store(false)
		acked += len(tw.set)
		servingLayers(v, tr, tw, c0, readCounters(fs.st, fs.w), fs.pol)
		v["trace.overhead"] = ratio(tw.set.percentile(0.5), w.set.percentile(0.5)) - 1
	} else {
		servingMetrics(v, w, w)
	}
	after, err := collectionStats(srv.addr)
	if err != nil {
		srv.stop()
		return nil, err
	}
	led.check(after.Objects == int64(len(fs.data)), "fleet: /stats objects %d, want %d", after.Objects, len(fs.data))
	led.check(after.Sets-before.Sets == uint64(acked), "fleet: /stats sets grew %d, want the %d acknowledged SETs", after.Sets-before.Sets, acked)
	if err := srv.stop(); err != nil {
		return nil, err
	}
	err = fs.w.Close()
	fs.w = nil
	if err != nil {
		return nil, err
	}

	coll, _, replayRate, err := recoverLog(fs.walDir, fs.pol)
	if err != nil {
		return nil, err
	}
	checkRecovered(led, fs, coll)
	v["wal.replay_records_per_s"] = replayRate
	// The timed replays run on a heap without the served index, as in a
	// restarted server.
	fs.ix, fs.st, fs.coll = nil, nil, nil
	var took []float64
	for i := 0; i < recoverReps; i++ {
		if i > 0 && i < reps {
			extra, err := setUp(i, nil)
			if err != nil {
				return nil, err
			}
			extra.release()
		}
		dir := filepath.Join(cfg.workdir, fmt.Sprintf("fleet-recover-%d", i))
		if err := copyDir(dir, fs.placedDir); err != nil {
			return nil, err
		}
		runtime.GC()
		_, d, _, err := recoverLog(dir, fs.pol)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		took = append(took, d.Seconds())
	}
	v["setup_s"], v["train_s"], v["insert_per_s"] = median(setups), fastTime(trains), buildRate(inserts)
	v["recover_s"] = fastTime(took)
	if cfg.trace {
		return v, runLadder(cfg, led, fs.pol, v)
	}
	info(cfg, "fleet", map[string]any{
		"sets": len(w.set), "within": len(w.within), "knn": len(w.knn), "elapsed_s": w.elapsed.Seconds(),
	})
	return v, nil
}

// recoverReps is how often recover_s replays the placement log.
const recoverReps = 5

// recoverLog opens the log in dir and replays it into a fresh index and
// collection, as a restarted server does. It returns the collection, the
// wall time of opening and replaying the log, and the log's own replay
// rate in records/s.
func recoverLog(dir string, pol *trained) (*collection.Collection, time.Duration, float64, error) {
	start := time.Now()
	w, err := wal.Open(wal.Options{Dir: dir, Sync: fleetSync, Epoch: numShards})
	if err != nil {
		return nil, 0, 0, err
	}
	defer w.Close()
	ix, err := shard.New(shard.Options{Shards: numShards, Tree: pol.options()})
	if err != nil {
		return nil, 0, 0, err
	}
	coll := collection.New(ix)
	if _, err := server.Recover(w, 0, ix, coll, nil); err != nil {
		return nil, 0, 0, err
	}
	took := time.Since(start)
	m := w.Metrics()
	return coll, took, perSecond(int(m.ReplayRecords), m.ReplayDuration), nil
}

// checkRecovered checks that the collection recovered from the whole log
// holds every key at its last acknowledged position.
func checkRecovered(led *ledger, fs *fleetState, coll *collection.Collection) {
	bad := 0
	for i, key := range fs.keys {
		if r, ok := coll.Get(key); !ok || r != fs.acked[i] {
			bad++
		}
	}
	led.check(bad == 0, "fleet: %d of %d recovered keys differ from their last acknowledged position", bad, len(fs.keys))
	led.check(coll.Len() == len(fs.keys), "fleet: recovered %d keys, want %d", coll.Len(), len(fs.keys))
	err := coll.Validate()
	led.check(err == nil, "fleet: recovered collection invalid: %v", err)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(dst, src string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// fleetLoad runs the closed-loop fleet load for cfg.seconds.
func fleetLoad(cfg config, addr string, fs *fleetState, led *ledger, seed int64) window {
	deadline := time.Now().Add(cfg.seconds)
	per := make([]window, connections)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
			per[c] = fleetConn(addr, c, fs, led, rng, start, deadline)
		}(c)
	}
	wg.Wait()
	var w window
	for _, p := range per {
		w.merge(p)
	}
	w.elapsed = time.Since(start)
	return w
}

type fleetReq struct {
	kind byte // 's'et, 'w'ithin, 'k'nn
	v    int
	r    geom.Rect
}

// fleetConn drives one pipelined connection. It owns the vehicles
// v ≡ c (mod connections); every read is centred on one of them at its
// newest position, which the server must already reflect because it
// answers one connection's requests in order.
func fleetConn(addr string, c int, fs *fleetState, led *ledger, rng *rand.Rand, origin, deadline time.Time) window {
	var w window
	p, err := dialPipe(addr)
	if err != nil {
		led.op(1, 1)
		led.fail("fleet: dial: %v", err)
		return w
	}
	defer p.close()
	owned := (len(fs.keys) - c + connections - 1) / connections
	sent := make(map[int]geom.Rect) // positions sent but not yet acknowledged
	pos := func(v int) geom.Rect {
		if r, ok := sent[v]; ok {
			return r
		}
		return fs.acked[v]
	}
	batch := make([]fleetReq, 0, fleetPipeline)
	for time.Now().Before(deadline) {
		batch = batch[:0]
		clear(sent)
		for len(batch) < fleetPipeline {
			v := c + rng.Intn(owned)*connections
			cur := pos(v)
			switch u := rng.Float64(); {
			case u < fleetWithinShare:
				ctr := cur.Center()
				p.addWithin(geom.Square(ctr.X, ctr.Y, fleetWindow), 0)
				batch = append(batch, fleetReq{kind: 'w', v: v})
			case u < fleetWithinShare+fleetKNNShare:
				p.addKNN(cur.Center(), knnK)
				batch = append(batch, fleetReq{kind: 'k', v: v})
			default:
				r := walk(rng, cur)
				sent[v] = r
				p.addSet(fs.keys[v], r)
				batch = append(batch, fleetReq{kind: 's', v: v, r: r})
			}
		}
		if err := p.send(); err != nil {
			led.op(int64(len(batch)), int64(len(batch)))
			led.fail("fleet: send: %v", err)
			return w
		}
		start := time.Now()
		for i, q := range batch {
			status, body, err := p.read()
			done := time.Now()
			lat := done.Sub(start)
			if err != nil {
				led.op(int64(len(batch)-i), int64(len(batch)-i))
				led.fail("fleet: read response: %v", err)
				return w
			}
			ok := status == 200
			key := fs.keys[q.v]
			switch q.kind {
			case 's':
				if ok {
					fs.acked[q.v] = q.r
				}
			case 'w':
				ok = ok && containsKey(body, key)
				if !ok {
					led.fail("fleet: /within around %s (HTTP %d) does not contain it: %.200s", key, status, body)
				}
			case 'k':
				ok = ok && (containsKey(body, key) || knnTiedAtZero(body))
				if !ok {
					led.fail("fleet: /knn at %s (HTTP %d) does not return it: %.200s", key, status, body)
				}
			}
			led.op(1, 0)
			us := failedUS
			if ok {
				us = float64(lat.Nanoseconds()) / 1e3
			} else if q.kind == 's' {
				led.fail("fleet: SET %s: HTTP %d: %.200s", key, status, body)
			}
			at := done.Sub(origin)
			switch q.kind {
			case 's':
				w.set.add(at, us)
			case 'w':
				w.within.add(at, us)
			case 'k':
				w.knn.add(at, us)
			}
		}
	}
	return w
}

func containsKey(body []byte, key string) bool {
	var b [32]byte
	q := append(append(append(b[:0], '"'), key...), '"')
	return bytes.Contains(body, q)
}

// knnTiedAtZero reports whether a /knn answer is full of objects at
// distance zero, in which case the own vehicle may be tied out of it.
func knnTiedAtZero(body []byte) bool {
	var resp struct {
		Neighbors []struct {
			DistSq float64 `json:"distsq"`
		} `json:"neighbors"`
	}
	if json.Unmarshal(body, &resp) != nil || len(resp.Neighbors) < knnK {
		return false
	}
	return resp.Neighbors[knnK-1].DistSq == 0
}
