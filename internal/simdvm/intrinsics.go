package simdvm

import "slices"

// Additional CM Fortran intrinsics: circular shifts (CSHIFT), axis
// reductions (MINVAL/MAXVAL/SUM with DIM=), SPREAD, and TRANSPOSE. The
// region growing engines use the end-off shift family; these complete the
// array vocabulary for other VM clients and for the VM's own test suite.

// CShiftX returns the grid circularly shifted along x (CM Fortran CSHIFT
// with DIM=1 in row-major terms): out(x, y) = in((x−dist) mod W, y).
func (g *Grid) CShiftX(dist int) *Grid {
	out := g.m.NewGrid(g.W, g.H)
	g.m.chargeNews(len(g.v), dist)
	w := g.W
	if w == 0 {
		return out
	}
	d := ((dist % w) + w) % w
	g.m.parFor(g.H, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			row := g.v[y*w : (y+1)*w]
			orow := out.v[y*w : (y+1)*w]
			for x := 0; x < w; x++ {
				sx := x - d
				if sx < 0 {
					sx += w
				}
				orow[x] = row[sx]
			}
		}
	})
	return out
}

// CShiftY returns the grid circularly shifted along y:
// out(x, y) = in(x, (y−dist) mod H).
func (g *Grid) CShiftY(dist int) *Grid {
	out := g.m.NewGrid(g.W, g.H)
	g.m.chargeNews(len(g.v), dist)
	w, h := g.W, g.H
	if h == 0 {
		return out
	}
	d := ((dist % h) + h) % h
	g.m.parFor(h, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			sy := y - d
			if sy < 0 {
				sy += h
			}
			copy(out.v[y*w:(y+1)*w], g.v[sy*w:(sy+1)*w])
		}
	})
	return out
}

// Transpose returns the transposed grid (H×W from W×H).
func (g *Grid) Transpose() *Grid {
	out := g.m.NewGrid(g.H, g.W)
	g.m.chargeRouter(len(g.v)) // general permutation traffic
	w, h := g.W, g.H
	g.m.parFor(h, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			for x := 0; x < w; x++ {
				out.v[x*h+y] = g.v[y*w+x]
			}
		}
	})
	return out
}

// ReduceRowsMin returns a length-H vector of per-row minima
// (MINVAL(a, DIM=1)). The grid must have at least one column.
func (g *Grid) ReduceRowsMin() *Vec { return g.reduceRows("ReduceRowsMin", opMin) }

// ReduceRowsMax returns a length-H vector of per-row maxima.
func (g *Grid) ReduceRowsMax() *Vec { return g.reduceRows("ReduceRowsMax", opMax) }

// ReduceRowsSum returns a length-H vector of per-row sums.
func (g *Grid) ReduceRowsSum() *Vec { return g.reduceRows("ReduceRowsSum", opAdd) }

func (g *Grid) reduceRows(name string, op arith) *Vec {
	if g.W == 0 {
		panic("simdvm: " + name + " of zero-width grid")
	}
	out := g.m.NewVec(g.H)
	g.m.chargeScan(len(g.v))
	w := g.W
	g.m.parFor(g.H, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			row := g.v[y*w : (y+1)*w]
			switch op {
			case opMin:
				out.v[y] = slices.Min(row)
			case opMax:
				out.v[y] = slices.Max(row)
			default:
				var sum int32
				for _, x := range row {
					sum += x
				}
				out.v[y] = sum
			}
		}
	})
	return out
}

// ReduceColsMin returns a length-W vector of per-column minima
// (computed via the transpose, as the CM runtime did for the slow axis).
func (g *Grid) ReduceColsMin() *Vec { return g.Transpose().ReduceRowsMin() }

// ReduceColsMax returns a length-W vector of per-column maxima.
func (g *Grid) ReduceColsMax() *Vec { return g.Transpose().ReduceRowsMax() }

// ReduceColsSum returns a length-W vector of per-column sums.
func (g *Grid) ReduceColsSum() *Vec { return g.Transpose().ReduceRowsSum() }

// SpreadRows broadcasts a length-H vector across the columns of a fresh
// W×H grid: out(x, y) = v(y) (CM Fortran SPREAD).
func (m *Machine) SpreadRows(v *Vec, w int) *Grid {
	m.sameMachine(v.m)
	dense("SpreadRows", v)
	out := m.NewGrid(w, v.Len())
	m.chargeElem(w * v.Len())
	m.parFor(v.Len(), func(lo, hi int) {
		for y := lo; y < hi; y++ {
			row := out.v[y*w : (y+1)*w]
			val := v.v[y]
			for x := range row {
				row[x] = val
			}
		}
	})
	return out
}

// SpreadCols broadcasts a length-W vector down the rows of a fresh W×H
// grid: out(x, y) = v(x).
func (m *Machine) SpreadCols(v *Vec, h int) *Grid {
	m.sameMachine(v.m)
	dense("SpreadCols", v)
	w := v.Len()
	out := m.NewGrid(w, h)
	m.chargeElem(w * h)
	m.parFor(h, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			copy(out.v[y*w:(y+1)*w], v.v)
		}
	})
	return out
}

// SegScanMaxBroadcast is the max-combining sibling of SegMinBroadcast.
func (a *Vec) SegScanMaxBroadcast(starts *BoolVec, mask *BoolVec, sentinel int32) *Vec {
	conform("SegScanMaxBroadcast", a, starts, mask)
	dense("SegScanMaxBroadcast", a)
	out := a.m.NewVec(len(a.v))
	a.m.chargeScan(len(a.v))
	a.m.chargeScan(len(a.v))
	n := len(a.v)
	cur := sentinel
	for i := 0; i < n; i++ {
		if starts.v[i] {
			cur = sentinel
		}
		if mask.v[i] && a.v[i] > cur {
			cur = a.v[i]
		}
		out.v[i] = cur
	}
	for i := n - 1; i >= 0; i-- {
		if i+1 < n && !starts.v[i+1] {
			out.v[i] = out.v[i+1]
		}
	}
	return out
}

// SegScanAddBroadcast computes per-segment sums of masked elements,
// broadcast to every element of the segment.
func (a *Vec) SegScanAddBroadcast(starts *BoolVec, mask *BoolVec) *Vec {
	conform("SegScanAddBroadcast", a, starts, mask)
	dense("SegScanAddBroadcast", a)
	out := a.m.NewVec(len(a.v))
	a.m.chargeScan(len(a.v))
	a.m.chargeScan(len(a.v))
	n := len(a.v)
	var cur int32
	for i := 0; i < n; i++ {
		if starts.v[i] {
			cur = 0
		}
		if mask.v[i] {
			cur += a.v[i]
		}
		out.v[i] = cur
	}
	for i := n - 1; i >= 0; i-- {
		if i+1 < n && !starts.v[i+1] {
			out.v[i] = out.v[i+1]
		}
	}
	return out
}
