package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The reference kernels below are Union, Intersection and OverlapArea as
// written with math.Min and math.Max. The real kernels use the builtin min
// and max; these tests pin down exactly where the two agree.

func refUnion(r, s Rect) Rect {
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

func refIntersection(r, s Rect) (Rect, bool) {
	if !r.Intersects(s) {
		return Rect{}, false
	}
	return Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}, true
}

func refOverlapArea(r, s Rect) float64 {
	w := math.Min(r.MaxX, s.MaxX) - math.Max(r.MinX, s.MinX)
	if w <= 0 {
		return 0
	}
	h := math.Min(r.MaxY, s.MaxY) - math.Max(r.MinY, s.MinY)
	if h <= 0 {
		return 0
	}
	return w * h
}

// diverges reports whether builtin min (absorbing = -Inf) or max
// (absorbing = +Inf) may differ in bits from math.Min or math.Max on
// (a, b). That happens only with a NaN argument. The builtins then return
// a NaN whose sign and payload are unspecified; math returns its canonical
// NaN, or the absorbing infinity when that is the other argument.
func diverges(a, b float64) bool { return math.IsNaN(a) || math.IsNaN(b) }

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkMinMax compares one coordinate of a builtin result with the math
// reference: bit for bit on NaN-free arguments, and NaN whenever an
// argument is NaN. The reference is then NaN too, unless the other
// argument is the infinity that math.Min or math.Max lets win.
func checkMinMax(t *testing.T, what string, got, ref, a, b, absorbing float64) {
	t.Helper()
	if !diverges(a, b) {
		if !sameBits(got, ref) {
			t.Fatalf("%s(%v, %v) = %#x, reference %#x", what, a, b, math.Float64bits(got), math.Float64bits(ref))
		}
		return
	}
	if !math.IsNaN(got) {
		t.Fatalf("%s(%v, %v) = %v, want NaN", what, a, b, got)
	}
	if !math.IsNaN(ref) && ref != absorbing {
		t.Fatalf("reference %s(%v, %v) = %v, want NaN or %v", what, a, b, ref, absorbing)
	}
}

// checkKernels runs all three kernels on (r, s) against the reference.
func checkKernels(t *testing.T, r, s Rect) {
	t.Helper()
	inf := math.Inf(1)

	u, ru := r.Union(s), refUnion(r, s)
	checkMinMax(t, "Union.MinX", u.MinX, ru.MinX, r.MinX, s.MinX, -inf)
	checkMinMax(t, "Union.MinY", u.MinY, ru.MinY, r.MinY, s.MinY, -inf)
	checkMinMax(t, "Union.MaxX", u.MaxX, ru.MaxX, r.MaxX, s.MaxX, inf)
	checkMinMax(t, "Union.MaxY", u.MaxY, ru.MaxY, r.MaxY, s.MaxY, inf)

	// Intersection never reaches min/max with a NaN coordinate: every
	// comparison in Intersects is false, so both return the zero Rect.
	in, ok := r.Intersection(s)
	rin, rok := refIntersection(r, s)
	if ok != rok || !sameBits(in.MinX, rin.MinX) || !sameBits(in.MinY, rin.MinY) ||
		!sameBits(in.MaxX, rin.MaxX) || !sameBits(in.MaxY, rin.MaxY) {
		t.Fatalf("%v.Intersection(%v) = %v,%v, reference %v,%v", r, s, in, ok, rin, rok)
	}

	if diverges(r.MinX, r.MaxX) || diverges(r.MinY, r.MaxY) ||
		diverges(s.MinX, s.MaxX) || diverges(s.MinY, s.MaxY) {
		return // a NaN coordinate: the overlap's bits are unspecified
	}
	if got, ref := r.OverlapArea(s), refOverlapArea(r, s); !sameBits(got, ref) {
		t.Fatalf("%v.OverlapArea(%v) = %#x, reference %#x", r, s, math.Float64bits(got), math.Float64bits(ref))
	}
}

var (
	finiteSpecials = []float64{
		0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.MaxFloat64, -math.MaxFloat64,
		1, -1, 0.5,
	}
	nans = []float64{
		math.NaN(),
		math.Float64frombits(0x7ff8000000000000), // quiet NaN, zero payload
		math.Float64frombits(0xfff8000000000000), // x86's default NaN, as from 0/0
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
	}
)

// TestMinMaxKernelsMatchMathReference pins the equivalence that lets geom
// use the builtin min and max: on every NaN-free pair of special values,
// in every coordinate slot, Union, Intersection and OverlapArea are bit
// for bit what math.Min/math.Max give; with NaN they differ only as
// checkMinMax describes.
func TestMinMaxKernelsMatchMathReference(t *testing.T) {
	values := append(append([]float64{}, finiteSpecials...), nans...)
	base1 := Rect{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1}
	base2 := Rect{MinX: -0.5, MinY: -2, MaxX: 0.5, MaxY: 2}
	set := func(r Rect, slot int, v float64) Rect {
		switch slot {
		case 0:
			r.MinX = v
		case 1:
			r.MinY = v
		case 2:
			r.MaxX = v
		default:
			r.MaxY = v
		}
		return r
	}
	for _, a := range values {
		for _, b := range values {
			for slot := 0; slot < 4; slot++ {
				checkKernels(t, set(base1, slot, a), set(base2, slot, b))
				checkKernels(t, set(base1, slot, a), set(base1, slot, b))
			}
			checkKernels(t, Rect{a, a, a, a}, Rect{b, b, b, b})
			checkKernels(t, Rect{a, b, a, b}, Rect{b, a, b, a})
			checkKernels(t, Rect{a, a, b, b}, Rect{b, b, a, a})
		}
	}
}

// TestMinMaxKernelsRandom compares the kernels with the reference on 100K
// random pairs mixing ordinary values, signed zeros, subnormals,
// infinities and NaNs, plus arbitrary bit patterns.
func TestMinMaxKernelsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	coord := func() float64 {
		switch p := rng.Intn(20); {
		case p < 12:
			return rng.NormFloat64()
		case p < 14:
			return finiteSpecials[rng.Intn(len(finiteSpecials))]
		case p < 16: // subnormal of either sign
			return math.Float64frombits(rng.Uint64() & 0x800fffffffffffff)
		case p < 17:
			return nans[rng.Intn(len(nans))]
		default:
			return math.Float64frombits(rng.Uint64())
		}
	}
	rect := func() Rect {
		if rng.Intn(2) == 0 { // a well-formed rect, the tree's case
			return NewRect(coord(), coord(), coord(), coord())
		}
		return Rect{coord(), coord(), coord(), coord()}
	}
	for i := 0; i < 100_000; i++ {
		checkKernels(t, rect(), rect())
	}
}
