package rtree

import (
	"slices"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

// SplitCandidate is one axis-sorted distribution of an overflowing node's
// entries into two groups, in the style of the R*-Tree split algorithm: the
// entries are sorted along one axis (by lower or upper coordinate) and the
// first Index entries form group 1, the remainder group 2.
//
// Candidates carry the geometric metrics every split heuristic in this
// package — and the RLR-Tree's learned Split policy — ranks them by.
type SplitCandidate struct {
	// Seq identifies the sorted sequence: 0 = by MinX, 1 = by MaxX,
	// 2 = by MinY, 3 = by MaxY.
	Seq int
	// Index is the split position: entries [0, Index) of the sequence form
	// group 1, entries [Index, n) group 2.
	Index int
	// MBR1 and MBR2 are the bounding rectangles of the two groups.
	MBR1, MBR2 geom.Rect
	// Overlap is the overlap area of MBR1 and MBR2.
	Overlap float64
}

// Axis returns 0 when the candidate's sequence is sorted along x, 1 for y.
func (c SplitCandidate) Axis() int { return c.Seq / 2 }

// TotalArea returns Area(MBR1) + Area(MBR2).
func (c SplitCandidate) TotalArea() float64 { return c.MBR1.Area() + c.MBR2.Area() }

// TotalMargin returns Margin(MBR1) + Margin(MBR2).
func (c SplitCandidate) TotalMargin() float64 { return c.MBR1.Margin() + c.MBR2.Margin() }

// SplitEnumeration holds the four sorted orders of an overflowing node's
// entries together with every legal split candidate. Build it with
// EnumerateSplits and turn a chosen candidate into entry groups with
// Materialize. Internally only index permutations are sorted — entries are
// never moved — which keeps enumeration cheap on the split-heavy training
// paths.
type SplitEnumeration struct {
	entries []Entry
	// order[s] is the permutation of entry indices sorted by sequence s.
	order [4][]int32
	// Cands lists all candidates with both groups meeting the minimum fill.
	Cands []SplitCandidate
}

// Sorted returns the entries in the order of sequence s (0 = by MinX,
// 1 = by MaxX, 2 = by MinY, 3 = by MaxY). The slice is freshly allocated.
func (e *SplitEnumeration) Sorted(s int) []Entry {
	out := make([]Entry, len(e.entries))
	for i, idx := range e.order[s] {
		out[i] = e.entries[idx]
	}
	return out
}

// EnumerateSplits generates all R*-style split candidates for the given
// entries: for each of the four sorted sequences (lower/upper coordinate on
// each axis), every split position that leaves at least minFill entries in
// both groups. Group MBRs are computed with prefix/suffix unions, so the
// whole enumeration costs O(n log n + n) per sequence.
func EnumerateSplits(entries []Entry, minFill int) *SplitEnumeration {
	n := len(entries)
	enum := &SplitEnumeration{entries: entries}
	if per := n - 2*minFill + 1; per > 0 {
		enum.Cands = make([]SplitCandidate, 0, 4*per)
	}
	orders := make([]int32, 4*n)
	// key and tie hold each entry's sort key and tie-break for the current
	// sequence, so the comparator reads two flat arrays.
	keys := make([]float64, 2*n)
	key, tie := keys[:n], keys[n:]

	prefix := make([]geom.Rect, n+1)
	suffix := make([]geom.Rect, n+1)
	for s := 0; s < 4; s++ {
		for i := range entries {
			key[i], tie[i] = seqKeys(entries[i].Rect, s)
		}
		order := orders[s*n : (s+1)*n : (s+1)*n]
		for i := range order {
			order[i] = int32(i)
		}
		// Plain < comparisons: cmp.Compare would order NaN keys
		// differently and change the split candidates.
		slices.SortStableFunc(order, func(a, b int32) int {
			ka, kb := key[a], key[b]
			if ka == kb {
				ka, kb = tie[a], tie[b]
			}
			switch {
			case ka < kb:
				return -1
			case kb < ka:
				return 1
			}
			return 0
		})
		enum.order[s] = order

		prefix[1] = entries[order[0]].Rect
		for i := 2; i <= n; i++ {
			prefix[i] = prefix[i-1].Union(entries[order[i-1]].Rect)
		}
		suffix[n] = entries[order[n-1]].Rect
		for i := n - 1; i >= 1; i-- {
			suffix[i] = suffix[i+1].Union(entries[order[i-1]].Rect)
		}

		for i := minFill; i <= n-minFill; i++ {
			mbr1, mbr2 := prefix[i], suffix[i+1]
			enum.Cands = append(enum.Cands, SplitCandidate{
				Seq:     s,
				Index:   i,
				MBR1:    mbr1,
				MBR2:    mbr2,
				Overlap: mbr1.OverlapArea(mbr2),
			})
		}
	}
	return enum
}

// seqKeys returns r's sort key in sequence s and the tie-break that keeps
// the order independent of sort stability: the opposite coordinate on the
// same axis.
func seqKeys(r geom.Rect, s int) (key, tie float64) {
	switch s {
	case 0:
		return r.MinX, r.MaxX
	case 1:
		return r.MaxX, r.MinX
	case 2:
		return r.MinY, r.MaxY
	default:
		return r.MaxY, r.MinY
	}
}

// Materialize converts a candidate into the two entry groups it describes.
// The returned slices are freshly allocated.
func (e *SplitEnumeration) Materialize(c SplitCandidate) (group1, group2 []Entry) {
	order := e.order[c.Seq]
	group1 = make([]Entry, c.Index)
	for i := 0; i < c.Index; i++ {
		group1[i] = e.entries[order[i]]
	}
	group2 = make([]Entry, len(order)-c.Index)
	for i := c.Index; i < len(order); i++ {
		group2[i-c.Index] = e.entries[order[i]]
	}
	return group1, group2
}

// TopKByArea returns up to k candidates ordered by ascending total area
// (ties: total margin), optionally keeping only candidates whose two
// groups do not overlap. This is the literal candidate shortlist of the
// RLR-Tree paper's Split MDP, which sorts the overlap-free splits by total
// area and featurizes the top k. Beware the sliver pathology documented on
// TopKByMargin: with small objects, the smallest-area distributions are
// often degenerate slivers.
func (e *SplitEnumeration) TopKByArea(k int, overlapFreeOnly bool) []SplitCandidate {
	return e.topK(k, overlapFreeOnly, func(c SplitCandidate) (float64, float64) {
		return c.TotalArea(), c.TotalMargin()
	})
}

// TopKByMargin returns up to k candidates ordered by ascending total
// margin (ties: total area), optionally keeping only overlap-free
// candidates. Margin ordering is the default shortlist of this
// implementation's Split MDP: ordering purely by area favours sliver
// distributions — one long, thin group with near-zero area but enormous
// perimeter — which intersect far more queries than their area suggests
// and leave the agent choosing between two equally bad candidates. The
// R*-Tree's split uses margin for its axis selection for the same reason.
func (e *SplitEnumeration) TopKByMargin(k int, overlapFreeOnly bool) []SplitCandidate {
	return e.topK(k, overlapFreeOnly, func(c SplitCandidate) (float64, float64) {
		return c.TotalMargin(), c.TotalArea()
	})
}

// topK returns the k candidates that come first in ascending (primary,
// secondary) key order, ties kept in enumeration order. On finite rects
// (NaN-free keys) that is exactly the first k of a stable sort. It selects
// them by insertion into a k-long buffer instead of sorting every
// candidate.
func (e *SplitEnumeration) topK(k int, overlapFreeOnly bool, key func(SplitCandidate) (float64, float64)) []SplitCandidate {
	if k <= 0 {
		return nil
	}
	before := func(a, b SplitCandidate) bool {
		pa, sa := key(a)
		pb, sb := key(b)
		if pa != pb {
			return pa < pb
		}
		return sa < sb
	}
	top := make([]SplitCandidate, 0, min(k, len(e.Cands)))
	for _, c := range e.Cands {
		if overlapFreeOnly && c.Overlap > 0 {
			continue
		}
		if len(top) == k && !before(c, top[k-1]) {
			continue
		}
		if len(top) < k {
			top = append(top, c)
		}
		// Shift c left past every kept candidate it strictly precedes; it
		// stays behind the equal ones, which were enumerated earlier.
		i := len(top) - 1
		for ; i > 0 && before(c, top[i-1]); i-- {
			top[i] = top[i-1]
		}
		top[i] = c
	}
	return top
}
