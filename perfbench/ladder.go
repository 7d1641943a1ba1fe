package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"github.com/rlr-tree/rlrtree/internal/collection"
	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
	"github.com/rlr-tree/rlrtree/internal/server"
	"github.com/rlr-tree/rlrtree/internal/shard"
	"github.com/rlr-tree/rlrtree/internal/wal"
)

// The layer ladder replays one fixed fleet move stream through each
// layer's public entry point in turn — Tree, ConcurrentTree,
// ShardedTree, Collection.Set, WAL.AppendSet + Collection.Set, the
// in-memory handler, and loopback HTTP — each over a freshly placed
// copy of the same objects, from one goroutine. A row is the mean time
// per move; the difference to the row before it is that layer's tax.

type ladderMove struct {
	i        int
	from, to geom.Rect
}

func runLadder(cfg config, led *ledger, pol *trained, v values) error {
	n := cfg.size.ladderObjects
	data := dataset.MustGenerate(dataset.CHI, n, cfg.seed+17)
	keys := make([]string, n)
	payloads := make([]any, n)
	pairs := make([]collection.KeyRect, n)
	for i := range keys {
		keys[i] = keyOf(i)
		payloads[i] = keys[i]
		pairs[i] = collection.KeyRect{Key: keys[i], Rect: data[i]}
	}
	rng := rand.New(rand.NewSource(cfg.seed + 23))
	cur := append([]geom.Rect(nil), data...)
	moves := make([]ladderMove, cfg.size.ladderMoves)
	for j := range moves {
		i := rng.Intn(n)
		to := walk(rng, cur[i])
		moves[j] = ladderMove{i: i, from: cur[i], to: to}
		cur[i] = to
	}
	opts := pol.options()

	row := func(name string, apply func(ladderMove) bool) {
		bad := 0
		start := time.Now()
		for _, mv := range moves {
			if !apply(mv) {
				bad++
			}
		}
		v["ladder."+name+"_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(moves))
		led.op(int64(len(moves)), 0)
		led.check(bad == 0, "ladder %s: %d of %d moves failed", name, bad, len(moves))
	}
	sharded := func() (*shard.ShardedTree, error) {
		st, err := shard.New(shard.Options{Shards: numShards, Tree: opts})
		if err == nil {
			st.InsertBatch(data, payloads)
		}
		return st, err
	}
	openWAL := func(name string) (*wal.WAL, error) {
		return wal.Open(wal.Options{Dir: filepath.Join(cfg.workdir, "ladder-"+name), Sync: wal.SyncInterval, Epoch: numShards})
	}

	t := rtree.New(opts)
	for i, r := range data {
		t.Insert(r, keys[i])
	}
	row("tree", func(mv ladderMove) bool {
		ok := t.Delete(mv.from, keys[mv.i])
		t.Insert(mv.to, keys[mv.i])
		return ok
	})

	ct := rtree.NewConcurrent(rtree.New(opts))
	ct.InsertBatch(data, payloads)
	row("concurrent", func(mv ladderMove) bool {
		ok := ct.Delete(mv.from, keys[mv.i])
		ct.Insert(mv.to, keys[mv.i])
		return ok
	})

	st, err := sharded()
	if err != nil {
		return err
	}
	row("sharded", func(mv ladderMove) bool {
		ok := st.Delete(mv.from, keys[mv.i])
		st.Insert(mv.to, keys[mv.i])
		return ok
	})

	if st, err = sharded(); err != nil {
		return err
	}
	coll := collection.Restore(st, pairs)
	row("collection", func(mv ladderMove) bool {
		return coll.Set(keys[mv.i], mv.to).Replaced
	})

	if st, err = sharded(); err != nil {
		return err
	}
	coll = collection.Restore(st, pairs)
	w, err := openWAL("wal")
	if err != nil {
		return err
	}
	row("wal", func(mv ladderMove) bool {
		_, err := w.AppendSet(mv.to, keys[mv.i])
		return err == nil && coll.Set(keys[mv.i], mv.to).Replaced
	})
	if err := w.Close(); err != nil {
		return err
	}

	if st, err = sharded(); err != nil {
		return err
	}
	if w, err = openWAL("handler"); err != nil {
		return err
	}
	srv, err := server.New(server.Config{Index: st, Collection: collection.Restore(st, pairs), WAL: w})
	if err != nil {
		return err
	}
	srv.Start() // no background loops are configured; Close waits for Start
	h := srv.Handler()
	var body []byte
	row("handler", func(mv ladderMove) bool {
		body = setBody(body[:0], keys[mv.i], mv.to)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/set", bytes.NewReader(body)))
		return rec.Code == http.StatusOK
	})
	srv.Close()
	if err := w.Close(); err != nil {
		return err
	}

	if st, err = sharded(); err != nil {
		return err
	}
	if w, err = openWAL("loopback"); err != nil {
		return err
	}
	s, err := startServer(server.Config{Index: st, Collection: collection.Restore(st, pairs), WAL: w}, nil)
	if err != nil {
		return err
	}
	p, err := dialPipe(s.addr)
	if err != nil {
		s.stop()
		return err
	}
	row("loopback", func(mv ladderMove) bool {
		p.addSet(keys[mv.i], mv.to)
		if p.send() != nil {
			return false
		}
		status, _, err := p.read()
		return err == nil && status == http.StatusOK
	})
	p.close()
	if err := s.stop(); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}

	for _, tax := range []struct{ name, row, below string }{
		{"rtree.epoch_tax_us", "concurrent", "tree"},
		{"shard.route_tax_us", "sharded", "concurrent"},
		{"collection.set_tax_us", "collection", "sharded"},
		{"wal.tax_us", "wal", "collection"},
		{"server.http_tax_us", "handler", "wal"},
		{"net.loopback_tax_us", "loopback", "handler"},
	} {
		v[tax.name] = v["ladder."+tax.row+"_us"] - v["ladder."+tax.below+"_us"]
	}
	info(cfg, "ladder", map[string]any{"objects": n, "moves": len(moves), "shards": numShards, "wal_fsync": wal.SyncInterval.String(),
		"rows_us": fmt.Sprintf("tree %.1f, concurrent %.1f, sharded %.1f, collection %.1f, wal %.1f, handler %.1f, loopback %.1f",
			v["ladder.tree_us"], v["ladder.concurrent_us"], v["ladder.sharded_us"], v["ladder.collection_us"],
			v["ladder.wal_us"], v["ladder.handler_us"], v["ladder.loopback_us"])})
	return nil
}
