package simdvm

import "fmt"

// Layout is a sparse storage layout for an n-VP domain: the sorted
// positions that hold live data (the stored slots) and a position→slot
// table. A vector on a layout keeps one element per slot. Its ops run over
// the slots only but are charged exactly as the dense n-element op, so a
// program's simulated time does not depend on how its arrays are stored.
// Positions without a slot are undefined: reading one panics.
type Layout struct {
	m    *Machine
	n    int
	pos  []int32 // stored positions, ascending
	slot []int32 // slot of each position; -1 where none is stored
}

// SparseLayout returns the layout that stores, in row-major order, the
// positions of a w×h domain where mask holds. Building it is front-end
// bookkeeping, not a parallel op, so it is not charged.
func (m *Machine) SparseLayout(mask *BoolGrid) *Layout {
	m.sameMachine(mask.m)
	l := &Layout{m: m, n: len(mask.v), slot: make([]int32, len(mask.v))}
	for p, set := range mask.v {
		l.slot[p] = -1
		if set {
			l.slot[p] = int32(len(l.pos))
			l.pos = append(l.pos, int32(p))
		}
	}
	return l
}

// slotOf translates a position to its slot, panicking where none is
// stored.
func (l *Layout) slotOf(p int32) int32 {
	if s := l.slot[p]; s >= 0 {
		return s
	}
	panic(fmt.Sprintf("simdvm: position %d holds no slot of the sparse layout", p))
}

// NewVec allocates a zeroed vector on the layout.
func (l *Layout) NewVec() *Vec { return &Vec{m: l.m, lay: l, v: make([]int32, len(l.pos))} }

// NewBoolVec allocates a false mask on the layout.
func (l *Layout) NewBoolVec() *BoolVec { return &BoolVec{m: l.m, lay: l, v: make([]bool, len(l.pos))} }

// IotaVec is Machine.IotaVec on the layout: every stored slot holds its
// own position.
func (l *Layout) IotaVec() *Vec {
	out := l.NewVec()
	l.m.chargeElem(l.n)
	copy(out.v, l.pos)
	return out
}

// operand is a vector or mask as conform and dense see it: its machine,
// its layout (nil when dense) and its stored length.
type operand interface {
	shape() (*Machine, *Layout, int)
}

func (a *Vec) shape() (*Machine, *Layout, int)     { return a.m, a.lay, len(a.v) }
func (b *BoolVec) shape() (*Machine, *Layout, int) { return b.m, b.lay, len(b.v) }

// conform panics unless every operand lives on a's machine and layout and
// has its length — the elementwise-op contract.
func conform(op string, a operand, others ...operand) {
	m, lay, n := a.shape()
	for _, o := range others {
		om, olay, on := o.shape()
		m.sameMachine(om)
		if olay != lay {
			panic(fmt.Sprintf("simdvm: %s: operands have different layouts", op))
		}
		checkLen(op, n, on)
	}
}

// dense panics if any operand is stored sparsely: scans, sorts and
// compactions depend on every position's neighbours.
func dense(op string, vs ...operand) {
	for _, v := range vs {
		if _, lay, _ := v.shape(); lay != nil {
			panic(fmt.Sprintf("simdvm: %s needs dense operands", op))
		}
	}
}
