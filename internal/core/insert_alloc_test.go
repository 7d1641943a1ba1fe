package core

import (
	"testing"

	"github.com/rlr-tree/rlrtree/internal/dataset"
	"github.com/rlr-tree/rlrtree/internal/policy"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// TestInsertPathZeroAlloc is the allocation-regression gate for the insert
// path: once a tree is warm, an insert that does not split allocates
// nothing, through the heuristic strategies and through the distilled
// table policy (featurize, walk the table, extend the ancestors' MBRs).
// CI runs it beside TestQueryKernelsZeroAlloc.
func TestInsertPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool caching; alloc counts are not meaningful")
	}
	pol := benchPolicy(t)
	bundle, _, err := Distill(pol, DistillConfig{Samples: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	items := dataset.MustGenerate(dataset.UNI, 12000, 41)
	payloads := make([]any, len(items))
	for i := range payloads {
		payloads[i] = i
	}
	const warm = 10000

	for _, kind := range []string{heuristicBackend, policy.KindTable} {
		var tr *rtree.Tree
		if kind == heuristicBackend {
			tr = (&Policy{K: pol.K, MaxEntries: pol.MaxEntries, MinEntries: pol.MinEntries}).NewTree()
		} else if tr, err = bundle.NewTreeKind(kind); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < warm; i++ {
			tr.Insert(items[i], payloads[i])
		}
		next, skipped := warm, 0
		insert := func() {
			// Skip objects whose insert would split: a split allocates the
			// new node's groups, which this gate does not cover.
			for tr.WouldSplit(items[next]) {
				next++
				skipped++
			}
			tr.Insert(items[next], payloads[next])
			next++
		}
		splits := tr.Splits()
		if avg := testing.AllocsPerRun(500, insert); avg != 0 {
			t.Errorf("%s: a non-splitting insert allocates %.2f times, want 0", kind, avg)
		}
		if tr.Splits() != splits {
			t.Fatalf("%s: the measured inserts split %d times", kind, tr.Splits()-splits)
		}
		if skipped > 100 {
			t.Fatalf("%s: skipped %d splitting objects; the gate measures too few real inserts", kind, skipped)
		}
	}
}
