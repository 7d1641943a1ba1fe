package rtree

import (
	"fmt"
	"math"
	"sort"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

// Insert adds an object with the given bounding rectangle to the tree. The
// rectangle must be valid (Min <= Max, no NaN); Insert panics otherwise,
// since an invalid MBR silently corrupts every ancestor MBR above it.
//
// The insertion path is Guttman's: descend from the root choosing one child
// per level with the tree's SubtreeChooser, place the entry in the reached
// leaf, then resolve overflows bottom-up with the tree's Splitter (or, when
// ForcedReinsert is enabled, the R*-Tree's reinsertion treatment).
func (t *Tree) Insert(r geom.Rect, data any) {
	if !r.Valid() {
		panic(fmt.Sprintf("rtree: Insert with invalid rect %v", r))
	}
	var reins map[int]bool
	if t.opts.ForcedReinsert {
		reins = make(map[int]bool)
	}
	t.insertAtLevel(Entry{Rect: r, Data: data}, 1, reins)
	t.size++
}

// insertAtLevel places e into a node at the given level (leaves are level
// 1). It is shared by Insert, forced reinsertion, and delete's condense-tree
// pass, which must reinsert orphaned subtrees at their original level to
// keep all leaves at uniform depth. reins tracks the levels at which forced
// reinsertion already ran during the current top-level insertion; it may be
// nil when reinsertion is disabled.
func (t *Tree) insertAtLevel(e Entry, level int, reins map[int]bool) {
	n := t.chooseNodeAtLevel(e.Rect, level)
	id := n.id
	// The append stays inside the node's slab slot: len <= MaxEntries here
	// and the slot's capacity is MaxEntries+1 (the three-index slice caps it).
	n.entries = append(n.entries, e)
	if e.Child != NoNode {
		t.nodes[e.Child].parent = id
	}
	t.extendMBRsUp(n, e.Rect)
	t.overflowTreatment(id, level, reins)
}

// chooseNodeAtLevel descends from the root, invoking the ChooseSubtree
// strategy once per level, and returns the node at the requested level.
func (t *Tree) chooseNodeAtLevel(r geom.Rect, level int) *Node {
	n := t.node(t.root)
	for lvl := t.height; lvl > level; lvl-- {
		t.chooses++
		i := t.opts.Chooser.Choose(t, n, r)
		if i < 0 || i >= len(n.entries) {
			panic(fmt.Sprintf("rtree: chooser %q returned out-of-range child index %d (node has %d entries)",
				t.opts.Chooser.Name(), i, len(n.entries)))
		}
		n = n.child(i)
	}
	return n
}

// WouldSplit reports whether inserting an object with bounding rectangle r
// right now would overflow the leaf selected by the tree's ChooseSubtree
// strategy. The tree is not modified. The RLR-Tree's Split training
// (Algorithm 2 of the paper) uses this to divert split-causing objects into
// the training pool while building its "almost full" base trees.
func (t *Tree) WouldSplit(r geom.Rect) bool {
	n := t.chooseNodeAtLevel(r, 1)
	return len(n.entries) >= t.opts.MaxEntries
}

// extendMBRsUp grows the parent entry rectangle of n and of each ancestor
// to also cover r, after r was added to n. It stops at the first ancestor
// whose entry does not change: that entry already covered r, so every
// entry above it does too. Extending is exact, not an approximation.
// Union selects coordinates under a total order (see geom.Rect.Union), so
// the extended entry is bit for bit the MBR a full recomputation over the
// node's entries would give. This is the insert path's only MBR upkeep.
func (t *Tree) extendMBRsUp(n *Node, r geom.Rect) {
	for w := n; w.parent != NoNode; {
		p := &t.nodes[w.parent]
		e := &p.entries[p.indexOfChild(w.id)]
		grown := e.Rect.Union(r)
		if sameRect(grown, e.Rect) {
			return
		}
		e.Rect = grown
		w = p
	}
}

// adjustMBRsUp recomputes the parent entry rectangle of n from n's
// entries, then does the same for each ancestor in turn. Recomputation,
// unlike extendMBRsUp, is also correct after entries were removed or
// redistributed, which can shrink MBRs; splits and forced reinsertion use
// it. It stops at the first ancestor whose recomputed entry is unchanged,
// since every entry above is a union that includes the unchanged one.
func (t *Tree) adjustMBRsUp(n *Node) {
	for w := n; w.parent != NoNode; {
		p := &t.nodes[w.parent]
		e := &p.entries[p.indexOfChild(w.id)]
		mbr := w.MBR()
		if sameRect(mbr, e.Rect) {
			return
		}
		e.Rect = mbr
		w = p
	}
}

// sameRect reports whether a and b are identical bit for bit. Plain ==
// would treat -0 and +0 as equal and stop MBR upkeep before a sign-of-zero
// change reached the ancestors.
func sameRect(a, b geom.Rect) bool {
	return math.Float64bits(a.MinX) == math.Float64bits(b.MinX) &&
		math.Float64bits(a.MinY) == math.Float64bits(b.MinY) &&
		math.Float64bits(a.MaxX) == math.Float64bits(b.MaxX) &&
		math.Float64bits(a.MaxY) == math.Float64bits(b.MaxY)
}

// indexOfChild returns the index of the entry of n referring to the child
// with the given id. It panics if the id is not among n's entries, which
// would indicate a corrupt parent index.
func (n *Node) indexOfChild(id NodeID) int {
	for i := range n.entries {
		if n.entries[i].Child == id {
			return i
		}
	}
	panic("rtree: node is not a child of its recorded parent")
}

// overflowTreatment resolves overflow of the node with the given id (at the
// given level) and propagates splits toward the root. It walks by NodeID:
// splits allocate, which may relocate the arena and stale any *Node.
func (t *Tree) overflowTreatment(id NodeID, level int, reins map[int]bool) {
	cur, lvl := id, level
	for cur != NoNode && len(t.node(cur).entries) > t.opts.MaxEntries {
		if t.opts.ForcedReinsert && t.node(cur).parent != NoNode && reins != nil && !reins[lvl] {
			// R*-Tree: the first overflow at each level during one
			// insertion is treated by reinsertion rather than a split.
			reins[lvl] = true
			t.forcedReinsert(cur, lvl, reins)
			return
		}
		t.splitNode(cur)
		cur = t.node(cur).parent
		lvl++
	}
	// Without a split, extendMBRsUp already left every ancestor exact.
	if cur != id && cur != NoNode {
		t.adjustMBRsUp(t.node(cur))
	}
}

// splitNode splits the overflowing node with the tree's Splitter. The first
// group replaces the node's entries; the second group becomes a new sibling
// registered in the node's parent (creating a new root when the node is the
// root). It returns the new sibling's id.
func (t *Tree) splitNode(id NodeID) NodeID {
	n := t.node(id)
	total := len(n.entries)
	g1, g2 := t.opts.Splitter.Split(t, n)
	if len(g1)+len(g2) != total || len(g1) < t.opts.MinEntries || len(g2) < t.opts.MinEntries {
		panic(fmt.Sprintf("rtree: splitter %q produced invalid groups %d/%d from %d entries (min fill %d)",
			t.opts.Splitter.Name(), len(g1), len(g2), total, t.opts.MinEntries))
	}
	t.splits++

	sib := t.alloc(n.leaf) // may relocate the arena; n is stale now
	// Materialize the sibling before shrinking the split node: g1/g2 may
	// alias the split node's own slab slot, which setEntries(id, g1) below
	// partially clears.
	t.setEntries(sib, g2)
	t.reparentChildren(sib)
	t.setEntries(id, g1)
	t.reparentChildren(id)
	n = t.node(id)

	if n.parent == NoNode {
		rid := t.alloc(false) // may relocate; re-resolve below
		n = t.node(id)
		sn := t.node(sib)
		rn := t.node(rid)
		rn.entries = append(rn.entries,
			Entry{Rect: n.MBR(), Child: id},
			Entry{Rect: sn.MBR(), Child: sib},
		)
		n.parent, sn.parent = rid, rid
		t.root = rid
		t.height++
		return sib
	}
	p := t.node(n.parent)
	p.entries[p.indexOfChild(id)].Rect = n.MBR()
	p.entries = append(p.entries, Entry{Rect: t.node(sib).MBR(), Child: sib})
	t.node(sib).parent = n.parent
	return sib
}

// forcedReinsert implements the R*-Tree overflow treatment: remove the
// ReinsertFraction of the node's entries whose centers are farthest from the
// center of its MBR, shrink the ancestors' MBRs, and reinsert the removed
// entries closest-first ("close reinsert") at the same level.
func (t *Tree) forcedReinsert(id NodeID, level int, reins map[int]bool) {
	n := t.node(id)
	c := n.MBR().Center()
	k := int(t.opts.ReinsertFraction * float64(len(n.entries)))
	if k < 1 {
		k = 1
	}
	if max := len(n.entries) - t.opts.MinEntries; k > max {
		k = max
	}

	type distEntry struct {
		e Entry
		d float64
	}
	ds := make([]distEntry, len(n.entries))
	for i, e := range n.entries {
		ds[i] = distEntry{e: e, d: e.Rect.Center().DistSq(c)}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].d < ds[j].d })

	kept := make([]Entry, 0, len(ds)-k)
	for _, de := range ds[:len(ds)-k] {
		kept = append(kept, de.e)
	}
	removed := ds[len(ds)-k:]
	t.setEntries(id, kept)
	t.adjustMBRsUp(t.node(id))

	// Close reinsert: nearest removed entries first. The entries were
	// copied into ds above, so reinsertion-driven arena growth cannot
	// invalidate them.
	for _, de := range removed {
		t.insertAtLevel(de.e, level, reins)
	}
}
