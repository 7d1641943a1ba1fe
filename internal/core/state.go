package core

import (
	"slices"

	"github.com/rlr-tree/rlrtree/internal/geom"
	"github.com/rlr-tree/rlrtree/internal/rtree"
)

// chooseCandidates describes the shortlisted children of one ChooseSubtree
// decision.
type chooseCandidates struct {
	// State is the 4k-dimensional feature vector (or 4M when padded).
	State []float64
	// Children holds the child entry indices, best (smallest ΔArea) first.
	Children []int
	// Contained is the index of a child whose MBR fully contains the new
	// object, or -1. When >= 0 the paper's shortcut applies: descend there
	// directly and consult no model.
	Contained int
}

// childFeature holds the raw per-child features of the ChooseSubtree state:
// area enlargement, perimeter increase, overlap increase, occupancy rate.
type childFeature struct {
	idx                 int
	dArea, dPeri, dOvlp float64
	occupancy           float64
}

// chooseScratch holds the working buffers of one chooseState computation so
// hot insert paths can reuse them across decisions. The chooseCandidates
// returned by chooseStateInto alias these buffers and are valid only until
// the scratch's next use.
type chooseScratch struct {
	feats    []childFeature
	areas    []float64
	state    []float64
	children []int
}

// chooseState computes the ChooseSubtree MDP state for inserting an object
// with rectangle r at node n (Section 4.1.1 of the paper):
//
//  1. if some child fully contains r, report it via Contained (shortcut);
//  2. otherwise rank children by area enlargement and keep the top k;
//  3. featurize each kept child as [ΔArea, ΔPeri, ΔOvlp, OR], normalizing
//     the three deltas by their maximum over the kept children;
//  4. concatenate into a 4k vector, zero-padding when the node has fewer
//     than k children.
//
// With padded set (the rejected state design kept as an ablation), step 2
// keeps *all* children and the vector is zero-padded to 4·maxEntries.
//
// The returned slices are freshly allocated and may be retained; the
// recording paths (training, harvesting) rely on that. The serving insert
// path uses chooseStateInto with a pooled scratch instead.
func chooseState(n *rtree.Node, r geom.Rect, k, maxEntries int, padded bool) chooseCandidates {
	return chooseStateInto(new(chooseScratch), n, r, k, maxEntries, padded)
}

// chooseStateInto is chooseState computing into sc's reusable buffers.
func chooseStateInto(sc *chooseScratch, n *rtree.Node, r geom.Rect, k, maxEntries int, padded bool) chooseCandidates {
	entries := n.Entries()
	cc := chooseCandidates{Contained: -1}

	// Containment shortcut (the paper's remark): if children fully contain
	// the new object, no MBR grows — descend into the smallest such child
	// (Guttman's zero-enlargement tie-break) without consulting the model.
	bestArea := 0.0
	feats := sc.feats[:0]
	for i := range entries {
		er := entries[i].Rect
		if er.Contains(r) {
			if a := er.Area(); cc.Contained < 0 || a < bestArea {
				cc.Contained, bestArea = i, a
			}
			continue
		}
		if cc.Contained >= 0 {
			continue // shortcut will fire; skip featurizing
		}
		feats = append(feats, childFeature{
			idx:       i,
			dArea:     er.Enlargement(r),
			dPeri:     er.PerimeterIncrease(r),
			occupancy: float64(n.ChildAt(i).NumEntries()) / float64(maxEntries),
		})
	}
	sc.feats = feats // retain grown capacity for the next call
	if cc.Contained >= 0 {
		return cc
	}

	// Rank by ΔArea ascending, breaking ties by the child's current MBR
	// area — Guttman's tie-break — and then by entry position. Ties are
	// frequent with small objects (many children need zero or equal
	// enlargement), and without the secondary key the shortlist order, and
	// therefore action 0, would be arbitrary among tied children.
	areas := growFloats(sc.areas, len(entries))
	sc.areas = areas
	for i := range entries {
		areas[i] = entries[i].Rect.Area()
	}
	before := func(a, b *childFeature) bool {
		if a.dArea != b.dArea {
			return a.dArea < b.dArea
		}
		if areas[a.idx] != areas[b.idx] {
			return areas[a.idx] < areas[b.idx]
		}
		return a.idx < b.idx
	}

	keep := min(k, len(feats))
	if padded {
		keep = len(feats)
		slices.SortStableFunc(feats, func(a, b childFeature) int {
			switch {
			case before(&a, &b):
				return -1
			case before(&b, &a):
				return 1
			}
			return 0
		})
	} else {
		// Select the k best in k passes. feats starts in entry order and
		// the key ends in the entry index, so on finite rects (NaN-free
		// keys) the result is exactly the first k of a stable sort,
		// without sorting the other M-k.
		for i := 0; i < keep; i++ {
			best := i
			for j := i + 1; j < len(feats); j++ {
				if before(&feats[j], &feats[best]) {
					best = j
				}
			}
			feats[i], feats[best] = feats[best], feats[i]
		}
	}
	feats = feats[:keep]

	// Overlap increase is O(M) per candidate, so it is computed only for
	// the shortlisted children.
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

	// Normalize by the maxima over the shortlist so every dimension is in
	// [0, 1] and states are comparable across nodes.
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
	cc.State = growFloats(sc.state, dim)
	sc.state = cc.State
	for i := range cc.State {
		cc.State[i] = 0 // a reused buffer must present clean zero padding
	}
	cc.Children = growInts(sc.children, len(feats))
	sc.children = cc.Children
	for i, f := range feats {
		cc.Children[i] = f.idx
		cc.State[4*i+0] = norm(f.dArea, maxA)
		cc.State[4*i+1] = norm(f.dPeri, maxP)
		cc.State[4*i+2] = norm(f.dOvlp, maxO)
		cc.State[4*i+3] = f.occupancy
	}
	return cc
}

// splitCandidates describes the shortlisted splits of one overflowing node.
type splitCandidates struct {
	// State is the 4k-dimensional feature vector.
	State []float64
	// Cands holds the shortlisted candidates, smallest total area first.
	Cands []rtree.SplitCandidate
	// Enum is the full enumeration, needed to materialize the chosen
	// candidate.
	Enum *rtree.SplitEnumeration
	// UseModel reports whether the RL agent should decide. Per the paper's
	// remark, the model is consulted only when more than one candidate
	// split yields non-overlapping groups; otherwise the caller falls back
	// to the minimum-overlap heuristic.
	UseModel bool
}

// splitState computes the Split MDP state for an overflowing node
// (Section 4.2.1): enumerate R*-style candidate splits, discard those whose
// groups overlap, sort the rest (by total margin by default, by total area
// when byArea is set — the paper's literal wording, kept as an ablation),
// keep the top k, and featurize each as [area1, area2, peri1, peri2]
// normalized by the maxima over the shortlist.
func splitState(entries []rtree.Entry, minFill, k int, byArea bool) splitCandidates {
	enum := rtree.EnumerateSplits(entries, minFill)
	var top []rtree.SplitCandidate
	if byArea {
		top = enum.TopKByArea(k, true)
	} else {
		top = enum.TopKByMargin(k, true)
	}
	sc := splitCandidates{Enum: enum, Cands: top, UseModel: len(top) > 1}
	if !sc.UseModel {
		return sc
	}

	var maxA, maxP float64
	for _, c := range top {
		maxA = maxf(maxA, maxf(c.MBR1.Area(), c.MBR2.Area()))
		maxP = maxf(maxP, maxf(c.MBR1.Perimeter(), c.MBR2.Perimeter()))
	}
	sc.State = make([]float64, 4*k)
	for i, c := range top {
		sc.State[4*i+0] = norm(c.MBR1.Area(), maxA)
		sc.State[4*i+1] = norm(c.MBR2.Area(), maxA)
		sc.State[4*i+2] = norm(c.MBR1.Perimeter(), maxP)
		sc.State[4*i+3] = norm(c.MBR2.Perimeter(), maxP)
	}
	return sc
}

// growFloats returns a slice of length n, reusing buf's storage when it is
// large enough.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// growInts is growFloats for []int.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// norm divides v by max, mapping everything to [0,1]; a zero max (all
// candidates identical or degenerate) yields 0.
func norm(v, max float64) float64 {
	if max <= 0 {
		return 0
	}
	return v / max
}
