package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

func randEntries(rng *rand.Rand, n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Rect: geom.Square(rng.Float64(), rng.Float64(), 0.02+0.05*rng.Float64()), Data: i}
	}
	return es
}

func TestEnumerateSplitsCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, m int }{{9, 3}, {11, 4}, {51, 20}} {
		es := randEntries(rng, tc.n)
		enum := EnumerateSplits(es, tc.m)
		perSeq := tc.n - 2*tc.m + 1
		if want := 4 * perSeq; len(enum.Cands) != want {
			t.Fatalf("n=%d m=%d: %d candidates, want %d", tc.n, tc.m, len(enum.Cands), want)
		}
		for s := 0; s < 4; s++ {
			if len(enum.Sorted(s)) != tc.n {
				t.Fatalf("sorted seq %d has %d entries, want %d", s, len(enum.Sorted(s)), tc.n)
			}
		}
	}
}

func TestEnumerateSplitsSortedOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	es := randEntries(rng, 20)
	enum := EnumerateSplits(es, 3)
	keys := [4]func(Entry) float64{
		func(e Entry) float64 { return e.Rect.MinX },
		func(e Entry) float64 { return e.Rect.MaxX },
		func(e Entry) float64 { return e.Rect.MinY },
		func(e Entry) float64 { return e.Rect.MaxY },
	}
	for s := 0; s < 4; s++ {
		seq := enum.Sorted(s)
		for i := 1; i < len(seq); i++ {
			if keys[s](seq[i-1]) > keys[s](seq[i]) {
				t.Fatalf("sequence %d not sorted at %d", s, i)
			}
		}
	}
}

// TestQuickSplitCandidateMBRsExact verifies, for random entry sets, that
// each candidate's stored MBRs and overlap equal those recomputed from the
// materialized groups, and that the groups partition the input.
func TestQuickSplitCandidateMBRsExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 9 + rng.Intn(20)
		m := 2 + rng.Intn(n/4)
		es := randEntries(rng, n)
		enum := EnumerateSplits(es, m)
		for _, c := range enum.Cands {
			g1, g2 := enum.Materialize(c)
			if len(g1) != c.Index || len(g1)+len(g2) != n {
				return false
			}
			if len(g1) < m || len(g2) < m {
				return false
			}
			mbr1 := g1[0].Rect
			for _, e := range g1[1:] {
				mbr1 = mbr1.Union(e.Rect)
			}
			mbr2 := g2[0].Rect
			for _, e := range g2[1:] {
				mbr2 = mbr2.Union(e.Rect)
			}
			if mbr1 != c.MBR1 || mbr2 != c.MBR2 {
				return false
			}
			if c.Overlap != mbr1.OverlapArea(mbr2) {
				return false
			}
			// The groups together hold each input entry exactly once.
			seen := make(map[int]bool, n)
			for _, e := range append(append([]Entry{}, g1...), g2...) {
				id := e.Data.(int)
				if seen[id] {
					return false
				}
				seen[id] = true
			}
			if len(seen) != n {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTopKByArea(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	es := randEntries(rng, 15)
	enum := EnumerateSplits(es, 3)

	top := enum.TopKByArea(5, false)
	if len(top) != 5 {
		t.Fatalf("TopKByArea returned %d, want 5", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].TotalArea() > top[i].TotalArea() {
			t.Fatalf("TopKByArea not sorted by area")
		}
	}

	free := enum.TopKByArea(100, true)
	for _, c := range free {
		if c.Overlap != 0 {
			t.Fatalf("overlapFreeOnly returned candidate with overlap %v", c.Overlap)
		}
	}

	// Asking for more than exist returns all.
	all := enum.TopKByArea(1_000_000, false)
	if len(all) != len(enum.Cands) {
		t.Fatalf("TopKByArea(all) = %d, want %d", len(all), len(enum.Cands))
	}
}

func TestSplitCandidateDerivedMetrics(t *testing.T) {
	c := SplitCandidate{
		Seq:  2,
		MBR1: geom.NewRect(0, 0, 1, 1),
		MBR2: geom.NewRect(2, 0, 4, 1),
	}
	if c.Axis() != 1 {
		t.Fatalf("Seq 2 should be axis 1 (y)")
	}
	if c.TotalArea() != 3 {
		t.Fatalf("TotalArea = %v, want 3", c.TotalArea())
	}
	if c.TotalMargin() != 5 {
		t.Fatalf("TotalMargin = %v, want 5", c.TotalMargin())
	}
}

// TestQuickInsertionInvariants builds trees from random workloads under every
// splitter and checks the full invariant set plus query correctness.
func TestQuickInsertionInvariants(t *testing.T) {
	splitters := []Splitter{LinearSplit{}, QuadraticSplit{}, GreeneSplit{}, RStarSplit{}, MinOverlapSplit{}, RRStarSplit{}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := splitters[rng.Intn(len(splitters))]
		opts := Options{MaxEntries: 4 + rng.Intn(8), Splitter: sp}
		opts.MinEntries = 2
		if opts.MaxEntries/2 > 2 {
			opts.MinEntries = 2 + rng.Intn(opts.MaxEntries/2-1)
		}
		tr := New(opts)
		n := 50 + rng.Intn(300)
		rects := make([]geom.Rect, n)
		for i := 0; i < n; i++ {
			rects[i] = geom.Square(rng.Float64(), rng.Float64(), 0.03*rng.Float64())
			tr.Insert(rects[i], i)
		}
		if err := tr.Validate(); err != nil {
			t.Logf("seed %d splitter %s: %v", seed, sp.Name(), err)
			return false
		}
		q := geom.Square(rng.Float64(), rng.Float64(), 0.3)
		got, _ := tr.Search(q)
		return len(got) == len(bruteRange(rects, q))
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// tieEntries draws n entries from a coarse grid, so sort keys, total
// areas and total margins tie often.
func tieEntries(rng *rand.Rand, n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		x, y := float64(rng.Intn(4))/4, float64(rng.Intn(4))/4
		w, h := float64(rng.Intn(2))/4, float64(rng.Intn(2))/4
		es[i] = Entry{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}, Data: i}
	}
	return es
}

// TestSplitOrderAndTopKMatchStableSort checks the enumeration's sorted
// orders and the top-k shortlists against the stable sorts they replace,
// on tie-heavy entry sets: ties must keep enumeration order exactly.
func TestSplitOrderAndTopKMatchStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := [4][2]func(Entry) float64{
		{func(e Entry) float64 { return e.Rect.MinX }, func(e Entry) float64 { return e.Rect.MaxX }},
		{func(e Entry) float64 { return e.Rect.MaxX }, func(e Entry) float64 { return e.Rect.MinX }},
		{func(e Entry) float64 { return e.Rect.MinY }, func(e Entry) float64 { return e.Rect.MaxY }},
		{func(e Entry) float64 { return e.Rect.MaxY }, func(e Entry) float64 { return e.Rect.MinY }},
	}
	refTopK := func(cands []SplitCandidate, k int, overlapFreeOnly bool, key func(SplitCandidate) (float64, float64)) []SplitCandidate {
		var out []SplitCandidate
		for _, c := range cands {
			if !overlapFreeOnly || c.Overlap <= 0 {
				out = append(out, c)
			}
		}
		sort.SliceStable(out, func(i, j int) bool {
			pi, si := key(out[i])
			pj, sj := key(out[j])
			if pi != pj {
				return pi < pj
			}
			return si < sj
		})
		return out[:min(k, len(out))]
	}
	byArea := func(c SplitCandidate) (float64, float64) { return c.TotalArea(), c.TotalMargin() }
	byMargin := func(c SplitCandidate) (float64, float64) { return c.TotalMargin(), c.TotalArea() }

	for trial := 0; trial < 300; trial++ {
		n := 5 + rng.Intn(47)
		es := tieEntries(rng, n)
		enum := EnumerateSplits(es, 1+rng.Intn(n/2))
		for s := 0; s < 4; s++ {
			want := append([]Entry(nil), es...)
			key, sec := keys[s][0], keys[s][1]
			sort.SliceStable(want, func(i, j int) bool {
				if ka, kb := key(want[i]), key(want[j]); ka != kb {
					return ka < kb
				}
				return sec(want[i]) < sec(want[j])
			})
			for i, e := range enum.Sorted(s) {
				if e.Data != want[i].Data {
					t.Fatalf("trial %d seq %d: position %d holds entry %v, want %v", trial, s, i, e.Data, want[i].Data)
				}
			}
		}
		for _, k := range []int{1, 2, 5, len(enum.Cands)} {
			for _, free := range []bool{false, true} {
				for name, got := range map[string][]SplitCandidate{
					"area":   enum.TopKByArea(k, free),
					"margin": enum.TopKByMargin(k, free),
				} {
					key := byArea
					if name == "margin" {
						key = byMargin
					}
					want := refTopK(enum.Cands, k, free, key)
					if len(got) != len(want) {
						t.Fatalf("trial %d TopKBy%s(%d, %v): %d candidates, want %d", trial, name, k, free, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("trial %d TopKBy%s(%d, %v)[%d] = %+v, want %+v", trial, name, k, free, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
