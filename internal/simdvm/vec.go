package simdvm

import "regiongrow/internal/prand"

// Vec is a one-dimensional parallel array of int32 — the representation the
// paper uses for graph vertices and edges ("one-dimensional arrays were
// used to store information about the vertices and edges"). A Vec is dense
// (one element per position) unless it was made on a sparse Layout.
type Vec struct {
	m   *Machine
	lay *Layout // nil when dense
	v   []int32 // stored elements: one per position, or one per slot of lay
}

// BoolVec is a one-dimensional parallel mask, dense or on a Layout.
type BoolVec struct {
	m   *Machine
	lay *Layout
	v   []bool
}

// NewVec allocates a zeroed vector of length n.
func (m *Machine) NewVec(n int) *Vec { return &Vec{m: m, v: make([]int32, n)} }

// NewBoolVec allocates a false mask of length n.
func (m *Machine) NewBoolVec(n int) *BoolVec { return &BoolVec{m: m, v: make([]bool, n)} }

// like allocates a zeroed vector with a's layout and length.
func (a *Vec) like() *Vec { return &Vec{m: a.m, lay: a.lay, v: make([]int32, len(a.v))} }

// likeBool allocates a false mask with a's layout and length.
func (a *Vec) likeBool() *BoolVec { return &BoolVec{m: a.m, lay: a.lay, v: make([]bool, len(a.v))} }

// VecFromSlice loads front-end data into a fresh vector.
func (m *Machine) VecFromSlice(data []int32) *Vec {
	out := m.NewVec(len(data))
	m.chargeElem(len(data))
	m.parFor(len(data), func(lo, hi int) { copy(out.v[lo:hi], data[lo:hi]) })
	return out
}

// IotaVec returns [0, 1, ..., n−1].
func (m *Machine) IotaVec(n int) *Vec {
	out := m.NewVec(n)
	m.chargeElem(n)
	m.parFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.v[i] = int32(i)
		}
	})
	return out
}

// Len returns the vector length: the number of positions, which for a
// sparse vector is its layout's domain size, not its slot count.
func (a *Vec) Len() int {
	if a.lay != nil {
		return a.lay.n
	}
	return len(a.v)
}

// At reads the element at position i from the front end.
func (a *Vec) At(i int) int32 {
	if a.lay != nil {
		return a.v[a.lay.slotOf(int32(i))]
	}
	return a.v[i]
}

// Data exposes the backing slice for front-end extraction: one element
// per position, or for a sparse vector one per stored slot in ascending
// position order.
func (a *Vec) Data() []int32 { return a.v }

// Clone returns a copy.
func (a *Vec) Clone() *Vec {
	out := a.like()
	a.m.chargeElem(a.Len())
	a.m.parFor(len(a.v), func(lo, hi int) { copy(out.v[lo:hi], a.v[lo:hi]) })
	return out
}

// Fill sets every element to c.
func (a *Vec) Fill(c int32) {
	a.m.chargeElem(a.Len())
	a.m.parFor(len(a.v), func(lo, hi int) { fill(a.v[lo:hi], c) })
}

// FillWhere sets elements to c where mask holds.
func (a *Vec) FillWhere(mask *BoolVec, c int32) {
	conform("FillWhere", a, mask)
	a.m.chargeElem(a.Len())
	a.m.parFor(len(a.v), func(lo, hi int) { fillWhere(a.v[lo:hi], mask.v[lo:hi], c) })
}

// AssignWhere copies src where mask holds.
func (a *Vec) AssignWhere(mask *BoolVec, src *Vec) {
	conform("AssignWhere", a, mask, src)
	a.m.chargeElem(a.Len())
	a.m.parFor(len(a.v), func(lo, hi int) { assignWhere(a.v[lo:hi], mask.v[lo:hi], src.v[lo:hi]) })
}

func (a *Vec) binOp(name string, op arith, other *Vec) *Vec {
	conform(name, a, other)
	out := a.like()
	a.m.chargeElem(a.Len())
	a.m.parFor(len(a.v), func(lo, hi int) { arithVV(op, out.v[lo:hi], a.v[lo:hi], other.v[lo:hi]) })
	return out
}

// Min returns the elementwise minimum.
func (a *Vec) Min(other *Vec) *Vec { return a.binOp("Min", opMin, other) }

// Max returns the elementwise maximum.
func (a *Vec) Max(other *Vec) *Vec { return a.binOp("Max", opMax, other) }

// Sub returns the elementwise difference a − other.
func (a *Vec) Sub(other *Vec) *Vec { return a.binOp("Sub", opSub, other) }

// Add returns the elementwise sum.
func (a *Vec) Add(other *Vec) *Vec { return a.binOp("Add", opAdd, other) }

func (a *Vec) constOp(op arith, c int32) *Vec {
	out := a.like()
	a.m.chargeElem(a.Len())
	a.m.parFor(len(a.v), func(lo, hi int) { arithVC(op, out.v[lo:hi], a.v[lo:hi], c) })
	return out
}

// MulC returns the vector scaled by constant c.
func (a *Vec) MulC(c int32) *Vec { return a.constOp(opMul, c) }

// AddC returns the vector plus constant c.
func (a *Vec) AddC(c int32) *Vec { return a.constOp(opAdd, c) }

// MaxC returns the elementwise maximum with constant c — used to clamp
// sentinel indices before a Gather.
func (a *Vec) MaxC(c int32) *Vec { return a.constOp(opMax, c) }

// ModC returns the vector modulo constant c (c > 0).
func (a *Vec) ModC(c int32) *Vec {
	if c <= 0 {
		panic("simdvm: Vec.ModC with non-positive modulus")
	}
	return a.constOp(opMod, c)
}

func (a *Vec) cmpOp(name string, op rel, other *Vec) *BoolVec {
	conform(name, a, other)
	out := a.likeBool()
	a.m.chargeElem(a.Len())
	a.m.parFor(len(a.v), func(lo, hi int) { cmpVV(op, out.v[lo:hi], a.v[lo:hi], other.v[lo:hi]) })
	return out
}

// Eq returns the elementwise equality mask.
func (a *Vec) Eq(other *Vec) *BoolVec { return a.cmpOp("Eq", opEq, other) }

// Ne returns the elementwise inequality mask.
func (a *Vec) Ne(other *Vec) *BoolVec { return a.cmpOp("Ne", opNe, other) }

// Lt returns the elementwise less-than mask.
func (a *Vec) Lt(other *Vec) *BoolVec { return a.cmpOp("Lt", opLt, other) }

func (a *Vec) cmpConst(op rel, c int32) *BoolVec {
	out := a.likeBool()
	a.m.chargeElem(a.Len())
	a.m.parFor(len(a.v), func(lo, hi int) { cmpVC(op, out.v[lo:hi], a.v[lo:hi], c) })
	return out
}

// EqC returns the mask of elements equal to c.
func (a *Vec) EqC(c int32) *BoolVec { return a.cmpConst(opEq, c) }

// NeC returns the mask of elements not equal to c.
func (a *Vec) NeC(c int32) *BoolVec { return a.cmpConst(opNe, c) }

// LeC returns the mask of elements ≤ c.
func (a *Vec) LeC(c int32) *BoolVec { return a.cmpConst(opLe, c) }

// Gather performs a router get: out(i) = a(idx(i)), with out on idx's
// layout. Indices must be in range and, when a is sparse, name stored
// slots of a.
func (a *Vec) Gather(idx *Vec) *Vec {
	a.m.sameMachine(idx.m)
	out := idx.like()
	a.m.chargeRouter(idx.Len())
	a.m.parFor(len(idx.v), func(lo, hi int) {
		if a.lay == nil {
			for i := lo; i < hi; i++ {
				out.v[i] = a.v[idx.v[i]]
			}
			return
		}
		for i := lo; i < hi; i++ {
			out.v[i] = a.v[a.lay.slotOf(idx.v[i])]
		}
	})
	return out
}

// dest translates a router destination position to its index in a.v.
func (a *Vec) dest(p int32) int32 {
	if a.lay != nil {
		return a.lay.slotOf(p)
	}
	return p
}

// ScatterWhere performs a router send: for each i with mask(i),
// a(idx(i)) = vals(i). Destinations must be distinct where mask holds
// (no-collision contract; use ScatterMin/ScatterMax for combining sends)
// and, when a is sparse, name stored slots of a.
func (a *Vec) ScatterWhere(mask *BoolVec, idx, vals *Vec) {
	a.m.sameMachine(idx.m)
	conform("ScatterWhere", idx, vals, mask)
	a.m.chargeRouter(idx.Len())
	// Collision-free by contract, so tiles write disjoint destinations;
	// run serially anyway: scattered writes gain little from tiling.
	for i, p := range idx.v {
		if mask.v[i] {
			a.v[a.dest(p)] = vals.v[i]
		}
	}
}

// ScatterMinWhere performs a combining router send with minimum:
// a(idx(i)) = min(a(idx(i)), vals(i)) for each i with mask(i). The CM-2
// router supported combining sends in hardware.
func (a *Vec) ScatterMinWhere(mask *BoolVec, idx, vals *Vec) {
	a.m.sameMachine(idx.m)
	conform("ScatterMinWhere", idx, vals, mask)
	a.m.chargeRouter(idx.Len())
	for i, p := range idx.v {
		if mask.v[i] {
			d := a.dest(p)
			a.v[d] = min(a.v[d], vals.v[i])
		}
	}
}

// ScatterMaxWhere is ScatterMinWhere with maximum combining.
func (a *Vec) ScatterMaxWhere(mask *BoolVec, idx, vals *Vec) {
	a.m.sameMachine(idx.m)
	conform("ScatterMaxWhere", idx, vals, mask)
	a.m.chargeRouter(idx.Len())
	for i, p := range idx.v {
		if mask.v[i] {
			d := a.dest(p)
			a.v[d] = max(a.v[d], vals.v[i])
		}
	}
}

// HashChoice computes, elementwise, Hash3(seed, iter, a(i)) mod mod(i) —
// the per-region pseudo-random draw of the Random tie policy, evaluated on
// every virtual processor at once. Elements where mod(i) ≤ 0 yield 0.
func (a *Vec) HashChoice(seed uint64, iter int, mod *Vec) *Vec {
	conform("HashChoice", a, mod)
	out := a.like()
	a.m.chargeElem(a.Len())
	a.m.parFor(len(a.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if mod.v[i] > 0 {
				out.v[i] = int32(prand.Hash3(seed, uint64(iter), uint64(uint32(a.v[i]))) % uint64(mod.v[i]))
			}
		}
	})
	return out
}

// BoolVec operations.

// Len returns the mask length (see Vec.Len).
func (b *BoolVec) Len() int {
	if b.lay != nil {
		return b.lay.n
	}
	return len(b.v)
}

// At reads the element at position i from the front end.
func (b *BoolVec) At(i int) bool {
	if b.lay != nil {
		return b.v[b.lay.slotOf(int32(i))]
	}
	return b.v[i]
}

// Data exposes the backing slice (see Vec.Data).
func (b *BoolVec) Data() []bool { return b.v }

func (b *BoolVec) like() *BoolVec { return &BoolVec{m: b.m, lay: b.lay, v: make([]bool, len(b.v))} }

func (b *BoolVec) binOp(name string, op logic, other *BoolVec) *BoolVec {
	conform(name, b, other)
	out := b.like()
	b.m.chargeElem(b.Len())
	b.m.parFor(len(b.v), func(lo, hi int) { logicVV(op, out.v[lo:hi], b.v[lo:hi], other.v[lo:hi]) })
	return out
}

// And returns the elementwise conjunction.
func (b *BoolVec) And(other *BoolVec) *BoolVec { return b.binOp("And", opAnd, other) }

// Or returns the elementwise disjunction.
func (b *BoolVec) Or(other *BoolVec) *BoolVec { return b.binOp("Or", opOr, other) }

// AndNot returns x ∧ ¬y.
func (b *BoolVec) AndNot(other *BoolVec) *BoolVec { return b.binOp("AndNot", opAndNot, other) }

// Not returns the negation.
func (b *BoolVec) Not() *BoolVec {
	out := b.like()
	b.m.chargeElem(b.Len())
	b.m.parFor(len(b.v), func(lo, hi int) { not(out.v[lo:hi], b.v[lo:hi]) })
	return out
}

// Fill sets every mask element to c.
func (b *BoolVec) Fill(c bool) {
	b.m.chargeElem(b.Len())
	b.m.parFor(len(b.v), func(lo, hi int) { fill(b.v[lo:hi], c) })
}

// Count reduces the mask to its number of true elements. On a sparse
// mask it counts the stored slots, charged as the dense reduction.
func (b *BoolVec) Count() int {
	b.m.chargeScan(b.Len())
	return countTiled(b.m, b.v)
}

// Any reduces the mask to whether any element is set.
func (b *BoolVec) Any() bool { return b.Count() > 0 }
