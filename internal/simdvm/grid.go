package simdvm

import (
	"fmt"
	"slices"

	"regiongrow/internal/pixmap"
)

// Grid is a two-dimensional parallel array of int32, one virtual processor
// per element, stored row-major. It models a CM Fortran 2-D array with a
// NEWS grid geometry.
type Grid struct {
	m    *Machine
	W, H int
	v    []int32
}

// BoolGrid is a two-dimensional parallel array of booleans, used for
// context masks (the CM's WHERE construct).
type BoolGrid struct {
	m    *Machine
	W, H int
	v    []bool
}

// NewGrid allocates a w×h grid of zeros.
func (m *Machine) NewGrid(w, h int) *Grid {
	return &Grid{m: m, W: w, H: h, v: make([]int32, w*h)}
}

// NewBoolGrid allocates a w×h mask of false.
func (m *Machine) NewBoolGrid(w, h int) *BoolGrid {
	return &BoolGrid{m: m, W: w, H: h, v: make([]bool, w*h)}
}

// GridFromImage loads an image's pixels into a fresh grid (a front-end to
// CM array transfer; charged as one elementwise op).
func (m *Machine) GridFromImage(im *pixmap.Image) *Grid {
	g := m.NewGrid(im.W, im.H)
	m.chargeElem(len(g.v))
	m.parFor(len(g.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g.v[i] = int32(im.Pix[i])
		}
	})
	return g
}

// RowIndex returns a grid whose every element holds its row (y) coordinate
// — CM Fortran's processor self-address along axis 0.
func (m *Machine) RowIndex(w, h int) *Grid {
	g := m.NewGrid(w, h)
	m.chargeElem(len(g.v))
	m.parFor(len(g.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g.v[i] = int32(i / w)
		}
	})
	return g
}

// ColIndex returns a grid whose every element holds its column (x)
// coordinate.
func (m *Machine) ColIndex(w, h int) *Grid {
	g := m.NewGrid(w, h)
	m.chargeElem(len(g.v))
	m.parFor(len(g.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g.v[i] = int32(i % w)
		}
	})
	return g
}

// SelfIndex returns a grid whose every element holds its linear index —
// the region-ID encoding of the paper.
func (m *Machine) SelfIndex(w, h int) *Grid {
	g := m.NewGrid(w, h)
	m.chargeElem(len(g.v))
	m.parFor(len(g.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g.v[i] = int32(i)
		}
	})
	return g
}

// At reads one element from the front end (no parallel cost).
func (g *Grid) At(x, y int) int32 { return g.v[y*g.W+x] }

// Data exposes the backing slice for result extraction by the front end.
// Callers must not mutate it mid-computation.
func (g *Grid) Data() []int32 { return g.v }

// Clone returns an element-for-element copy.
func (g *Grid) Clone() *Grid {
	out := g.m.NewGrid(g.W, g.H)
	g.m.chargeElem(len(g.v))
	g.m.parFor(len(g.v), func(lo, hi int) {
		copy(out.v[lo:hi], g.v[lo:hi])
	})
	return out
}

// Fill sets every element to c.
func (g *Grid) Fill(c int32) {
	g.m.chargeElem(len(g.v))
	g.m.parFor(len(g.v), func(lo, hi int) { fill(g.v[lo:hi], c) })
}

// AssignWhere copies src into g at positions where mask is true — the CM
// WHERE-assignment.
func (g *Grid) AssignWhere(mask *BoolGrid, src *Grid) {
	g.m.sameMachine(mask.m)
	g.m.sameMachine(src.m)
	checkLen("AssignWhere", len(g.v), len(mask.v))
	checkLen("AssignWhere", len(g.v), len(src.v))
	g.m.chargeElem(len(g.v))
	g.m.parFor(len(g.v), func(lo, hi int) { assignWhere(g.v[lo:hi], mask.v[lo:hi], src.v[lo:hi]) })
}

// FillWhere sets elements to c where mask is true.
func (g *Grid) FillWhere(mask *BoolGrid, c int32) {
	g.m.sameMachine(mask.m)
	checkLen("FillWhere", len(g.v), len(mask.v))
	g.m.chargeElem(len(g.v))
	g.m.parFor(len(g.v), func(lo, hi int) { fillWhere(g.v[lo:hi], mask.v[lo:hi], c) })
}

// binOp applies op elementwise over g and other into a fresh grid.
func (g *Grid) binOp(name string, op arith, other *Grid) *Grid {
	g.m.sameMachine(other.m)
	checkLen(name, len(g.v), len(other.v))
	out := g.m.NewGrid(g.W, g.H)
	g.m.chargeElem(len(g.v))
	g.m.parFor(len(g.v), func(lo, hi int) { arithVV(op, out.v[lo:hi], g.v[lo:hi], other.v[lo:hi]) })
	return out
}

// Min returns the elementwise minimum of two grids.
func (g *Grid) Min(other *Grid) *Grid { return g.binOp("Min", opMin, other) }

// Max returns the elementwise maximum of two grids.
func (g *Grid) Max(other *Grid) *Grid { return g.binOp("Max", opMax, other) }

// Sub returns the elementwise difference g − other.
func (g *Grid) Sub(other *Grid) *Grid { return g.binOp("Sub", opSub, other) }

// Add returns the elementwise sum.
func (g *Grid) Add(other *Grid) *Grid { return g.binOp("Add", opAdd, other) }

// MulC returns the grid scaled by constant c.
func (g *Grid) MulC(c int32) *Grid { return g.constOp(opMul, c) }

// AddC returns the grid plus constant c.
func (g *Grid) AddC(c int32) *Grid { return g.constOp(opAdd, c) }

// ModC returns the grid modulo constant c (c > 0).
func (g *Grid) ModC(c int32) *Grid {
	if c <= 0 {
		panic(fmt.Sprintf("simdvm: ModC(%d)", c))
	}
	return g.constOp(opMod, c)
}

func (g *Grid) constOp(op arith, c int32) *Grid {
	out := g.m.NewGrid(g.W, g.H)
	g.m.chargeElem(len(g.v))
	g.m.parFor(len(g.v), func(lo, hi int) { arithVC(op, out.v[lo:hi], g.v[lo:hi], c) })
	return out
}

// cmpOp applies a comparison elementwise producing a mask.
func (g *Grid) cmpOp(name string, op rel, other *Grid) *BoolGrid {
	g.m.sameMachine(other.m)
	checkLen(name, len(g.v), len(other.v))
	out := g.m.NewBoolGrid(g.W, g.H)
	g.m.chargeElem(len(g.v))
	g.m.parFor(len(g.v), func(lo, hi int) { cmpVV(op, out.v[lo:hi], g.v[lo:hi], other.v[lo:hi]) })
	return out
}

// Eq returns the elementwise equality mask.
func (g *Grid) Eq(other *Grid) *BoolGrid { return g.cmpOp("Eq", opEq, other) }

// Ne returns the elementwise inequality mask.
func (g *Grid) Ne(other *Grid) *BoolGrid { return g.cmpOp("Ne", opNe, other) }

func (g *Grid) cmpConst(op rel, c int32) *BoolGrid {
	out := g.m.NewBoolGrid(g.W, g.H)
	g.m.chargeElem(len(g.v))
	g.m.parFor(len(g.v), func(lo, hi int) { cmpVC(op, out.v[lo:hi], g.v[lo:hi], c) })
	return out
}

// EqC returns the mask of elements equal to c.
func (g *Grid) EqC(c int32) *BoolGrid { return g.cmpConst(opEq, c) }

// LeC returns the mask of elements ≤ c.
func (g *Grid) LeC(c int32) *BoolGrid { return g.cmpConst(opLe, c) }

// EOShiftX returns the grid shifted along x by dist (CM Fortran EOSHIFT):
// out(x,y) = in(x−dist, y), with fill where the source is off-grid.
// The NEWS cost is proportional to |dist| hops.
func (g *Grid) EOShiftX(dist int, fill int32) *Grid {
	out := g.m.NewGrid(g.W, g.H)
	g.m.chargeNews(len(g.v), dist)
	w := g.W
	g.m.parFor(g.H, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			row := g.v[y*w : (y+1)*w]
			orow := out.v[y*w : (y+1)*w]
			for x := 0; x < w; x++ {
				sx := x - dist
				if sx < 0 || sx >= w {
					orow[x] = fill
				} else {
					orow[x] = row[sx]
				}
			}
		}
	})
	return out
}

// EOShiftY returns the grid shifted along y by dist: out(x,y) = in(x, y−dist).
func (g *Grid) EOShiftY(dist int, fill int32) *Grid {
	out := g.m.NewGrid(g.W, g.H)
	g.m.chargeNews(len(g.v), dist)
	w, h := g.W, g.H
	g.m.parFor(h, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			sy := y - dist
			if sy < 0 || sy >= h {
				for x := 0; x < w; x++ {
					out.v[y*w+x] = fill
				}
			} else {
				copy(out.v[y*w:(y+1)*w], g.v[sy*w:(sy+1)*w])
			}
		}
	})
	return out
}

// GatherXY performs a general router get: out(i) = g(xs(i), ys(i)).
// Coordinates must be in range.
func (g *Grid) GatherXY(xs, ys *Grid) *Grid {
	g.m.sameMachine(xs.m)
	g.m.sameMachine(ys.m)
	checkLen("GatherXY", len(xs.v), len(ys.v))
	out := g.m.NewGrid(xs.W, xs.H)
	g.m.chargeRouter(len(xs.v))
	w := int32(g.W)
	g.m.parFor(len(xs.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.v[i] = g.v[ys.v[i]*w+xs.v[i]]
		}
	})
	return out
}

// MaxValue reduces the grid to its maximum element (MAXVAL). The grid must
// be non-empty.
func (g *Grid) MaxValue() int32 {
	if len(g.v) == 0 {
		panic("simdvm: MaxValue of empty grid")
	}
	g.m.chargeScan(len(g.v))
	return reduceMax(g.m, g.v)
}

// MinValue reduces the grid to its minimum element (MINVAL).
func (g *Grid) MinValue() int32 {
	if len(g.v) == 0 {
		panic("simdvm: MinValue of empty grid")
	}
	g.m.chargeScan(len(g.v))
	return reduceMin(g.m, g.v)
}

// BoolGrid operations.

// At reads one mask element from the front end.
func (b *BoolGrid) At(x, y int) bool { return b.v[y*b.W+x] }

// Data exposes the backing slice for front-end extraction.
func (b *BoolGrid) Data() []bool { return b.v }

// Fill sets every element.
func (b *BoolGrid) Fill(c bool) {
	b.m.chargeElem(len(b.v))
	b.m.parFor(len(b.v), func(lo, hi int) { fill(b.v[lo:hi], c) })
}

func (b *BoolGrid) binOp(name string, op logic, other *BoolGrid) *BoolGrid {
	b.m.sameMachine(other.m)
	checkLen(name, len(b.v), len(other.v))
	out := b.m.NewBoolGrid(b.W, b.H)
	b.m.chargeElem(len(b.v))
	b.m.parFor(len(b.v), func(lo, hi int) { logicVV(op, out.v[lo:hi], b.v[lo:hi], other.v[lo:hi]) })
	return out
}

// And returns the elementwise conjunction.
func (b *BoolGrid) And(other *BoolGrid) *BoolGrid { return b.binOp("And", opAnd, other) }

// Or returns the elementwise disjunction.
func (b *BoolGrid) Or(other *BoolGrid) *BoolGrid { return b.binOp("Or", opOr, other) }

// AndNot returns x ∧ ¬y elementwise.
func (b *BoolGrid) AndNot(other *BoolGrid) *BoolGrid { return b.binOp("AndNot", opAndNot, other) }

// Not returns the elementwise negation.
func (b *BoolGrid) Not() *BoolGrid {
	out := b.m.NewBoolGrid(b.W, b.H)
	b.m.chargeElem(len(b.v))
	b.m.parFor(len(b.v), func(lo, hi int) { not(out.v[lo:hi], b.v[lo:hi]) })
	return out
}

// EOShiftX shifts the mask along x with fill (see Grid.EOShiftX).
func (b *BoolGrid) EOShiftX(dist int, fill bool) *BoolGrid {
	out := b.m.NewBoolGrid(b.W, b.H)
	b.m.chargeNews(len(b.v), dist)
	w := b.W
	b.m.parFor(b.H, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			for x := 0; x < w; x++ {
				sx := x - dist
				if sx < 0 || sx >= w {
					out.v[y*w+x] = fill
				} else {
					out.v[y*w+x] = b.v[y*w+sx]
				}
			}
		}
	})
	return out
}

// EOShiftY shifts the mask along y with fill.
func (b *BoolGrid) EOShiftY(dist int, fill bool) *BoolGrid {
	out := b.m.NewBoolGrid(b.W, b.H)
	b.m.chargeNews(len(b.v), dist)
	w, h := b.W, b.H
	b.m.parFor(h, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			sy := y - dist
			if sy < 0 || sy >= h {
				for x := 0; x < w; x++ {
					out.v[y*w+x] = fill
				}
			} else {
				copy(out.v[y*w:(y+1)*w], b.v[sy*w:(sy+1)*w])
			}
		}
	})
	return out
}

// ToInt returns a 0/1 grid from the mask.
func (b *BoolGrid) ToInt() *Grid {
	out := b.m.NewGrid(b.W, b.H)
	b.m.chargeElem(len(b.v))
	b.m.parFor(len(b.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if b.v[i] {
				out.v[i] = 1
			}
		}
	})
	return out
}

// Count reduces the mask to the number of true elements.
func (b *BoolGrid) Count() int {
	b.m.chargeScan(len(b.v))
	return countTiled(b.m, b.v)
}

// Any reduces the mask to whether any element is true.
func (b *BoolGrid) Any() bool { return b.Count() > 0 }

// countTiled counts the set elements of v, tiled with per-chunk partials
// combined on the front end.
func countTiled(m *Machine, v []bool) int {
	if len(v) == 0 {
		return 0
	}
	return reduce(m, len(v), func(lo, hi int) int { return count(v[lo:hi]) }, func(a, b int) int { return a + b })
}

// reduceMax/reduceMin combine tiled partial reductions of a non-empty v.
func reduceMax(m *Machine, v []int32) int32 {
	return reduce(m, len(v), func(lo, hi int) int32 { return slices.Max(v[lo:hi]) }, func(a, b int32) int32 { return max(a, b) })
}

func reduceMin(m *Machine, v []int32) int32 {
	return reduce(m, len(v), func(lo, hi int) int32 { return slices.Min(v[lo:hi]) }, func(a, b int32) int32 { return min(a, b) })
}
