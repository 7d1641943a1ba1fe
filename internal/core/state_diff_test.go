package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// refChooseState is the ChooseSubtree featurizer as it was written before
// top-k selection: stable-sort every candidate child by (ΔArea, current
// area), then truncate to k. It is the oracle for chooseStateInto.
func refChooseState(n *rtree.Node, r geom.Rect, k, maxEntries int, padded bool) chooseCandidates {
	entries := n.Entries()
	cc := chooseCandidates{Contained: -1}
	bestArea := 0.0
	var feats []childFeature
	for i := range entries {
		er := entries[i].Rect
		if er.Contains(r) {
			if a := er.Area(); cc.Contained < 0 || a < bestArea {
				cc.Contained, bestArea = i, a
			}
			continue
		}
		if cc.Contained >= 0 {
			continue
		}
		feats = append(feats, childFeature{
			idx:       i,
			dArea:     er.Enlargement(r),
			dPeri:     er.PerimeterIncrease(r),
			occupancy: float64(n.ChildAt(i).NumEntries()) / float64(maxEntries),
		})
	}
	if cc.Contained >= 0 {
		return cc
	}
	areas := make([]float64, len(entries))
	for i := range entries {
		areas[i] = entries[i].Rect.Area()
	}
	sort.SliceStable(feats, func(a, b int) bool {
		if feats[a].dArea != feats[b].dArea {
			return feats[a].dArea < feats[b].dArea
		}
		return areas[feats[a].idx] < areas[feats[b].idx]
	})
	keep := k
	if padded {
		keep = len(feats)
	}
	if keep > len(feats) {
		keep = len(feats)
	}
	feats = feats[:keep]
	for i := range feats {
		grown := entries[feats[i].idx].Rect.Union(r)
		var d float64
		for j := range entries {
			if j == feats[i].idx {
				continue
			}
			d += grown.OverlapArea(entries[j].Rect) - entries[feats[i].idx].Rect.OverlapArea(entries[j].Rect)
		}
		feats[i].dOvlp = d
	}
	var maxA, maxP, maxO float64
	for _, f := range feats {
		maxA = maxf(maxA, f.dArea)
		maxP = maxf(maxP, f.dPeri)
		maxO = maxf(maxO, f.dOvlp)
	}
	dim := 4 * k
	if padded {
		dim = 4 * maxEntries
	}
	cc.State = make([]float64, dim)
	cc.Children = make([]int, len(feats))
	for i, f := range feats {
		cc.Children[i] = f.idx
		cc.State[4*i+0] = norm(f.dArea, maxA)
		cc.State[4*i+1] = norm(f.dPeri, maxP)
		cc.State[4*i+2] = norm(f.dOvlp, maxO)
		cc.State[4*i+3] = f.occupancy
	}
	return cc
}

// tieHeavyRect draws from a coarse grid so that children share MBRs,
// areas and enlargements: points, axis segments, unit cells and
// duplicates, with -0 standing in for 0 half the time.
func tieHeavyRect(rng *rand.Rand) geom.Rect {
	c := func() float64 {
		v := float64(rng.Intn(5)) / 4
		if v == 0 && rng.Intn(2) == 0 {
			v = math.Copysign(0, -1)
		}
		return v
	}
	x, y := c(), c()
	switch rng.Intn(4) {
	case 0: // point: zero area, zero enlargement against collinear children
		return geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}
	case 1: // horizontal segment
		return geom.Rect{MinX: x, MinY: y, MaxX: x + 0.25, MaxY: y}
	case 2: // vertical segment
		return geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y + 0.25}
	default: // grid cell: equal areas everywhere
		return geom.Rect{MinX: x, MinY: y, MaxX: x + 0.25, MaxY: y + 0.25}
	}
}

// internalNodes returns every internal node of tr.
func internalNodes(tr *rtree.Tree) []*rtree.Node {
	var out []*rtree.Node
	var walk func(n *rtree.Node)
	walk = func(n *rtree.Node) {
		if n.IsLeaf() {
			return
		}
		out = append(out, n)
		for i := 0; i < n.NumEntries(); i++ {
			walk(n.ChildAt(i))
		}
	}
	walk(tr.Root())
	return out
}

// TestChooseStateMatchesStableSortReference checks the top-k selection in
// chooseStateInto against the stable-sort-then-truncate reference on
// tie-heavy nodes, for k in {1, 2, 5, M}, padded and unpadded. Children
// and State must be identical bit for bit, including on a reused scratch.
func TestChooseStateMatchesStableSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sc := new(chooseScratch)
	compared := 0
	for _, maxEntries := range []int{8, 16} {
		tr := rtree.New(rtree.Options{MaxEntries: maxEntries, MinEntries: maxEntries / 3})
		for i := 0; i < 1500; i++ {
			tr.Insert(tieHeavyRect(rng), i)
		}
		nodes := internalNodes(tr)
		if len(nodes) < 5 {
			t.Fatalf("M=%d: only %d internal nodes; the test needs a deeper tree", maxEntries, len(nodes))
		}
		for _, k := range []int{1, 2, 5, maxEntries} {
			for _, padded := range []bool{false, true} {
				for _, n := range nodes {
					for q := 0; q < 20; q++ {
						r := tieHeavyRect(rng)
						if q%5 == 0 { // a duplicate of one of the node's children
							r = n.Entries()[rng.Intn(n.NumEntries())].Rect
						}
						want := refChooseState(n, r, k, maxEntries, padded)
						got := chooseStateInto(sc, n, r, k, maxEntries, padded)
						if got.Contained != want.Contained {
							t.Fatalf("M=%d k=%d padded=%v r=%v: Contained %d, want %d", maxEntries, k, padded, r, got.Contained, want.Contained)
						}
						if len(got.Children) != len(want.Children) || len(got.State) != len(want.State) {
							t.Fatalf("M=%d k=%d padded=%v r=%v: %d children/%d state, want %d/%d",
								maxEntries, k, padded, r, len(got.Children), len(got.State), len(want.Children), len(want.State))
						}
						for i := range want.Children {
							if got.Children[i] != want.Children[i] {
								t.Fatalf("M=%d k=%d padded=%v r=%v: Children %v, want %v", maxEntries, k, padded, r, got.Children, want.Children)
							}
						}
						for i := range want.State {
							if math.Float64bits(got.State[i]) != math.Float64bits(want.State[i]) {
								t.Fatalf("M=%d k=%d padded=%v r=%v: State %v, want %v", maxEntries, k, padded, r, got.State, want.State)
							}
						}
						if want.Contained < 0 {
							compared++
						}
					}
				}
			}
		}
	}
	if compared < 1000 {
		t.Fatalf("only %d featurized decisions compared; the generator is too containment-heavy", compared)
	}
}
