// Package geom provides the 2-D geometric primitives used throughout the
// RLR-Tree: axis-aligned rectangles and points, together with the area,
// perimeter, overlap and enlargement computations that R-Tree insertion
// heuristics and the RLR-Tree's MDP state features are built from.
//
// All coordinates are float64. Rectangles are closed: a rectangle contains
// its boundary, and two rectangles that share only an edge are considered
// intersecting (with zero overlap area). This matches the conventions of
// Guttman's original R-Tree paper and of the R*-Tree.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Rect is an axis-aligned rectangle identified by its lower-left (MinX,
// MinY) and upper-right (MaxX, MaxY) corners. A point is represented as a
// degenerate rectangle with Min == Max.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanning the two corner coordinates,
// normalizing the corner order so that Min <= Max on both axes.
func NewRect(x1, y1, x2, y2 float64) Rect {
	if x2 < x1 {
		x1, x2 = x2, x1
	}
	if y2 < y1 {
		y1, y2 = y2, y1
	}
	return Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

// Pt returns the point (x, y).
func Pt(x, y float64) Point {
	return Point{X: x, Y: y}
}

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p Point) Rect {
	return Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
}

// Square returns the axis-aligned square of the given side length centered
// at (cx, cy).
func Square(cx, cy, side float64) Rect {
	h := side / 2
	return Rect{MinX: cx - h, MinY: cy - h, MaxX: cx + h, MaxY: cy + h}
}

// Valid reports whether r is a well-formed rectangle: Min <= Max on both
// axes and no NaN coordinates.
func (r Rect) Valid() bool {
	if math.IsNaN(r.MinX) || math.IsNaN(r.MinY) || math.IsNaN(r.MaxX) || math.IsNaN(r.MaxY) {
		return false
	}
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Width returns the extent of r along the x axis.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the extent of r along the y axis.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r. Degenerate rectangles (points, segments) have
// zero area.
func (r Rect) Area() float64 {
	return (r.MaxX - r.MinX) * (r.MaxY - r.MinY)
}

// Perimeter returns the full perimeter 2*(w+h) of r. R-Tree literature often
// works with the half-perimeter ("margin"); the factor of two is irrelevant
// to every comparison the strategies make, so the full perimeter is used
// uniformly.
func (r Rect) Perimeter() float64 {
	return 2 * ((r.MaxX - r.MinX) + (r.MaxY - r.MinY))
}

// Margin returns the half-perimeter w+h of r, the quantity the R*-Tree split
// algorithm sums over candidate distributions.
func (r Rect) Margin() float64 {
	return (r.MaxX - r.MinX) + (r.MaxY - r.MinY)
}

// Intersects reports whether r and s share at least one point (boundaries
// included).
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Contains reports whether s lies entirely inside r (boundaries included).
func (r Rect) Contains(s Rect) bool {
	return r.MinX <= s.MinX && s.MaxX <= r.MaxX && r.MinY <= s.MinY && s.MaxY <= r.MaxY
}

// ContainsPoint reports whether p lies inside r (boundaries included).
func (r Rect) ContainsPoint(p Point) bool {
	return r.MinX <= p.X && p.X <= r.MaxX && r.MinY <= p.Y && p.Y <= r.MaxY
}

// Union returns the minimum bounding rectangle of r and s.
//
// Union, Intersection and OverlapArea use the builtin min and max, which
// the compiler inlines. On NaN-free input they return exactly what
// math.Min and math.Max return, down to the bit: min(-0, +0) is -0 and
// max(-0, +0) is +0. They differ only when a coordinate is NaN. The
// builtins then always return a NaN, of unspecified sign and payload,
// whereas math.Max(NaN, +Inf) is +Inf, math.Min(NaN, -Inf) is -Inf, and
// math's other NaN results are its one canonical NaN. A rect with a NaN
// coordinate is not Valid, and the tree rejects it on insert.
//
// On valid rects, union is thus a pure selection under a total order in
// which -0 < +0. It is associative and commutative bit for bit, which lets
// the tree extend ancestor MBRs incrementally and still match a full
// recomputation exactly.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: min(r.MinX, s.MinX),
		MinY: min(r.MinY, s.MinY),
		MaxX: max(r.MaxX, s.MaxX),
		MaxY: max(r.MaxY, s.MaxY),
	}
}

// Intersection returns the overlap rectangle of r and s and whether it is
// non-empty. When the rectangles do not intersect the zero Rect and false
// are returned.
func (r Rect) Intersection(s Rect) (Rect, bool) {
	if !r.Intersects(s) {
		return Rect{}, false
	}
	return Rect{
		MinX: max(r.MinX, s.MinX),
		MinY: max(r.MinY, s.MinY),
		MaxX: min(r.MaxX, s.MaxX),
		MaxY: min(r.MaxY, s.MaxY),
	}, true
}

// OverlapArea returns the area of the intersection of r and s, zero when
// they are disjoint or touch only at an edge or corner.
func (r Rect) OverlapArea(s Rect) float64 {
	w := min(r.MaxX, s.MaxX) - max(r.MinX, s.MinX)
	if w <= 0 {
		return 0
	}
	h := min(r.MaxY, s.MaxY) - max(r.MinY, s.MinY)
	if h <= 0 {
		return 0
	}
	return w * h
}

// Enlargement returns the increase in area of r needed to also cover s:
// Area(r ∪ s) − Area(r). It is always >= 0.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// PerimeterIncrease returns the increase in perimeter of r needed to also
// cover s: Perimeter(r ∪ s) − Perimeter(r). It is always >= 0.
func (r Rect) PerimeterIncrease(s Rect) float64 {
	return r.Union(s).Perimeter() - r.Perimeter()
}

// MinDistSq returns the squared minimum Euclidean distance from p to r
// (zero when p lies inside r). This is the MINDIST bound of Roussopoulos,
// Kelley and Vincent used to prune R-Tree subtrees during KNN search; the
// squared form avoids a sqrt on the hot path and preserves ordering.
func (r Rect) MinDistSq(p Point) float64 {
	var dx, dy float64
	switch {
	case p.X < r.MinX:
		dx = r.MinX - p.X
	case p.X > r.MaxX:
		dx = p.X - r.MaxX
	}
	switch {
	case p.Y < r.MinY:
		dy = r.MinY - p.Y
	case p.Y > r.MaxY:
		dy = p.Y - r.MaxY
	}
	return dx*dx + dy*dy
}

// DistSq returns the squared Euclidean distance between two points.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g x %g,%g]", r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%g,%g)", p.X, p.Y)
}
