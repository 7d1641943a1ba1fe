package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

// checkMBRBits verifies that every internal entry's rect is bit for bit its
// child's MBR. Validate compares with ==, which cannot tell -0 from +0.
func checkMBRBits(tr *Tree) error {
	for i := 1; i < len(tr.nodes); i++ {
		n := &tr.nodes[i]
		if n.id == NoNode || n.leaf {
			continue
		}
		for _, e := range n.entries {
			if got := tr.node(e.Child).MBR(); !sameRect(got, e.Rect) {
				return fmt.Errorf("node %d: entry for child %d is %v, child MBR %v (bits differ)", n.id, e.Child, e.Rect, got)
			}
		}
	}
	return nil
}

// entryRects snapshots every internal entry's rect, keyed by child id.
func entryRects(tr *Tree) map[NodeID]geom.Rect {
	out := make(map[NodeID]geom.Rect)
	for i := 1; i < len(tr.nodes); i++ {
		n := &tr.nodes[i]
		if n.id == NoNode || n.leaf {
			continue
		}
		for _, e := range n.entries {
			out[e.Child] = e.Rect
		}
	}
	return out
}

// dissolvesInternal reports whether deleting (r, data) will make
// condense-tree dissolve an internal node, whose entries are then
// reinserted at an internal level.
func dissolvesInternal(tr *Tree, r geom.Rect, data any) bool {
	n, _ := tr.findLeaf(tr.Root(), r, data)
	for n != nil && n.parent != NoNode && len(n.entries)-1 < tr.opts.MinEntries {
		if !n.leaf {
			return true
		}
		n = tr.node(n.parent)
	}
	return false
}

// upkeepRect draws rects that stress MBR upkeep: grid points, segments
// and cells straddling the axes with -0 and +0 coordinates and many exact
// duplicates, mixed with small random squares that spread the tree out.
func upkeepRect(rng *rand.Rand) geom.Rect {
	if rng.Intn(2) == 0 {
		return geom.Square(rng.Float64()*2-1, rng.Float64()*2-1, 0.01)
	}
	c := func() float64 {
		v := float64(rng.Intn(9)-4) / 4
		if v == 0 && rng.Intn(2) == 0 {
			v = math.Copysign(0, -1)
		}
		return v
	}
	x, y := c(), c()
	w, h := 0.0, 0.0
	if rng.Intn(2) == 0 {
		w = 0.25
	}
	if rng.Intn(2) == 0 {
		h = 0.25
	}
	return geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

// TestMBRUpkeepProperty runs random insert/delete sequences and checks,
// after every operation, Validate plus bit-exact parent entries. It also
// asserts that the sequences reached every MBR upkeep path: the extend
// walk stopping at each level of the tree, root splits, split cascades
// over several levels, R*'s forced reinsertion, and condense-tree
// reinsertion of internal entries.
func TestMBRUpkeepProperty(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"guttman-M4", Options{MaxEntries: 4, MinEntries: 2}},
		{"rstar-M6", Options{MaxEntries: 6, MinEntries: 2, Chooser: RStarChooser{}, Splitter: RStarSplit{}, ForcedReinsert: true}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			tr := New(cfg.opts)
			type obj struct {
				r    geom.Rect
				data any
			}
			var live []obj
			next := 0

			// stopDepth[d] counts non-splitting inserts whose extend walk
			// changed exactly d ancestor entries.
			stopDepth := map[int]int{}
			maxHeight, rootSplits, cascades, reinserts, internalOrphans := 0, 0, 0, 0, 0

			insert := func() {
				r := upkeepRect(rng)
				data := any(next)
				next++
				h0, s0 := tr.Height(), tr.Splits()
				reinsert := cfg.opts.ForcedReinsert && h0 > 1 && tr.WouldSplit(r)
				var before map[NodeID]geom.Rect
				if !reinsert {
					before = entryRects(tr)
				}
				tr.Insert(r, data)
				live = append(live, obj{r, data})
				if reinsert {
					reinserts++
				} else if tr.Splits() == s0 {
					changed := 0
					for child, rect := range entryRects(tr) {
						if !sameRect(rect, before[child]) {
							changed++
						}
					}
					stopDepth[changed]++
				}
				if tr.Splits()-s0 >= 2 {
					cascades++
				}
				if tr.Height() > h0 {
					rootSplits++
				}
				maxHeight = max(maxHeight, tr.Height())
			}
			del := func() {
				i := rng.Intn(len(live))
				o := live[i]
				if dissolvesInternal(tr, o.r, o.data) {
					internalOrphans++
				}
				if !tr.Delete(o.r, o.data) {
					t.Fatalf("Delete(%v, %v) found nothing", o.r, o.data)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}

			// Grow, shrink most of the way back down, then grow again:
			// inserts dominate, then deletes, so splits, condense-tree and
			// root shrinking all run repeatedly.
			phases := []struct{ ops, insertPct int }{{1500, 85}, {1500, 20}, {800, 75}}
			for _, ph := range phases {
				for op := 0; op < ph.ops; op++ {
					if len(live) == 0 || rng.Intn(100) < ph.insertPct {
						insert()
					} else {
						del()
					}
					if err := tr.Validate(); err != nil {
						t.Fatalf("after op %d: %v", op, err)
					}
					if err := checkMBRBits(tr); err != nil {
						t.Fatalf("after op %d: %v", op, err)
					}
				}
			}

			t.Logf("height<=%d stop depths %v, root splits %d, cascades %d, forced reinserts %d, internal orphans %d",
				maxHeight, stopDepth, rootSplits, cascades, reinserts, internalOrphans)
			for d := 0; d < maxHeight-1; d++ {
				if stopDepth[d] == 0 {
					t.Errorf("no insert's extend walk stopped after %d of up to %d levels", d, maxHeight-1)
				}
			}
			if maxHeight < 4 {
				t.Errorf("tree reached height %d; the walk needs at least 4 levels", maxHeight)
			}
			if rootSplits == 0 || cascades == 0 {
				t.Errorf("root splits %d, multi-level cascades %d; want both > 0", rootSplits, cascades)
			}
			if cfg.opts.ForcedReinsert && reinserts == 0 {
				t.Errorf("forced reinsertion never ran")
			}
			if internalOrphans == 0 {
				t.Errorf("condense-tree never reinserted internal entries")
			}
		})
	}
}
