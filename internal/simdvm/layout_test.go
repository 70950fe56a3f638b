package simdvm

import (
	"slices"
	"testing"

	"regiongrow/internal/machine"
	"regiongrow/internal/prand"
)

// domain is one side of the sparse-vs-dense differential test: the same
// n-VP domain stored densely (lay == nil) or on a sparse layout.
type domain struct {
	m   *Machine
	lay *Layout
	n   int
}

// vec loads n-length data uncharged; the sparse side keeps the slots only.
func (d domain) vec(data []int32) *Vec {
	if d.lay == nil {
		return &Vec{m: d.m, v: slices.Clone(data)}
	}
	out := d.lay.NewVec()
	for s, p := range d.lay.pos {
		out.v[s] = data[p]
	}
	return out
}

func (d domain) mask(data []bool) *BoolVec {
	if d.lay == nil {
		return &BoolVec{m: d.m, v: slices.Clone(data)}
	}
	out := d.lay.NewBoolVec()
	for s, p := range d.lay.pos {
		out.v[s] = data[p]
	}
	return out
}

// sparseCase is one random domain with its slot set and op inputs. Every
// index vector names positions that hold slots where a sparse operand
// reads or writes through it.
type sparseCase struct {
	n            int
	live         []bool
	pos          []int32 // live positions, ascending; always holds 0
	a, b, mods   []int32
	m1, m2       []bool
	edgeIdx      []int32 // edge-domain indices into the slot set
	edgeMask     []bool
	slotIdx      []int32 // vertex-domain indices into the slot set
	anyIdx       []int32 // vertex-domain indices anywhere in [0, n)
	vals         []int32 // edge-domain values
	dests, sends []int32 // distinct slot positions and values to send there
	sendMask     []bool
	rep          []int32 // a forest over the slot set; identity elsewhere
	seed         uint64
	iter         int
}

func newSparseCase(g *prand.Gen, n int) *sparseCase {
	c := &sparseCase{n: n, live: make([]bool, n), seed: g.Uint64(), iter: g.Intn(100)}
	density := 1 + g.Intn(100)
	for p := range c.live {
		c.live[p] = p == 0 || g.Intn(100) < density
		if c.live[p] {
			c.pos = append(c.pos, int32(p))
		}
	}
	small := func(k, lo, span int) []int32 {
		out := make([]int32, k)
		for i := range out {
			out[i] = int32(lo + g.Intn(span))
		}
		return out
	}
	bits := func(k int) []bool {
		out := make([]bool, k)
		for i := range out {
			out[i] = g.Intn(2) == 0
		}
		return out
	}
	live := func(k int) []int32 {
		out := make([]int32, k)
		for i := range out {
			out[i] = c.pos[g.Intn(len(c.pos))]
		}
		return out
	}
	c.a, c.b, c.mods = small(n, -5, 11), small(n, -5, 11), small(n, -1, 5)
	// Masks are false off the slots, as the masks a sparse program
	// reduces are, so their dense and sparse Counts agree.
	c.m1, c.m2 = bits(n), bits(n)
	for p, l := range c.live {
		c.m1[p], c.m2[p] = c.m1[p] && l, c.m2[p] && l
	}
	edges := g.Intn(3 * n)
	c.edgeIdx, c.edgeMask, c.vals = live(edges), bits(edges), small(edges, -50, 100)
	c.slotIdx, c.anyIdx = live(n), small(n, 0, n)
	perm := slices.Clone(c.pos)
	for i := len(perm) - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	c.dests = perm[:g.Intn(len(perm)+1)]
	c.sendMask, c.sends = bits(len(c.dests)), small(len(c.dests), -50, 100)
	c.rep = make([]int32, n)
	for p := range c.rep {
		c.rep[p] = int32(p)
	}
	for s, p := range c.pos {
		c.rep[p] = c.pos[g.Intn(s+1)]
	}
	return c
}

// run issues one fixed op sequence on the domain and returns every
// result: vertex-domain vectors and masks, edge-domain vectors, counts.
func (c *sparseCase) run(d domain) []any {
	m := d.m
	a, b, mods := d.vec(c.a), d.vec(c.b), d.vec(c.mods)
	m1, m2 := d.mask(c.m1), d.mask(c.m2)
	edgeIdx := &Vec{m: m, v: slices.Clone(c.edgeIdx)}
	edgeMask := &BoolVec{m: m, v: slices.Clone(c.edgeMask)}
	vals := &Vec{m: m, v: slices.Clone(c.vals)}
	dests := &Vec{m: m, v: slices.Clone(c.dests)}
	sendMask := &BoolVec{m: m, v: slices.Clone(c.sendMask)}
	sends := &Vec{m: m, v: slices.Clone(c.sends)}
	dense := domain{m: m, n: c.n}
	anyIdx := d.vec(c.anyIdx)
	slotIdx := d.vec(c.slotIdx)

	var iota *Vec
	if d.lay == nil {
		iota = m.IotaVec(c.n)
	} else {
		iota = d.lay.IotaVec()
	}
	out := []any{iota, a.Clone(),
		a.Min(b), a.Max(b), a.Sub(b), a.Add(b),
		a.MulC(3), a.AddC(-2), a.MaxC(0), b.ModC(3),
		a.Eq(b), a.Ne(b), a.Lt(b), a.EqC(1), a.NeC(-1), a.LeC(0),
		a.HashChoice(c.seed, c.iter, mods),
		m1.And(m2), m1.Or(m2), m1.AndNot(m2), m1.Not(),
		m1.Count(), m1.And(m2).Any(),
		a.Gather(edgeIdx), a.Gather(slotIdx), dense.vec(c.a).Gather(anyIdx),
	}
	f := a.Clone()
	f.Fill(9)
	f.FillWhere(m1, -4)
	f.AssignWhere(m2, b)
	g := b.Clone()
	g.ScatterWhere(sendMask, dests, sends)
	lo := d.vec(c.a)
	lo.Fill(1 << 20)
	lo.ScatterMinWhere(edgeMask, edgeIdx, vals)
	hi := d.vec(c.a)
	hi.Fill(-1 << 20)
	hi.ScatterMaxWhere(edgeMask, edgeIdx, vals)
	rep := d.vec(c.rep)
	rounds := rep.PointerJump()
	bm := d.mask(c.m1)
	bm.Fill(true)
	return append(out, f, g, lo, hi, rep, rounds, bm)
}

// TestSparseMatchesDense is the sparse layout's differential test: on
// random domains and random slot sets (always holding position 0), every
// op on the layout equals the dense op restricted to the slots, and the
// clock and counters after the sequence equal the dense run's exactly.
func TestSparseMatchesDense(t *testing.T) {
	g := prand.New(20261018)
	prof := machine.Get(machine.CM2_8K)
	sizes := []int{1, 2, 3, 17, 64, 300, 2 * parTile}
	for trial := 0; trial < 120; trial++ {
		n := sizes[trial%len(sizes)]
		if trial >= len(sizes) && n < parTile {
			n = 1 + g.Intn(400)
		}
		c := newSparseCase(g, n)
		dm, sm := New(prof), New(prof)
		mask := sm.NewBoolGrid(n, 1)
		copy(mask.v, c.live)
		lay := sm.SparseLayout(mask)
		if lay.n != n || !slices.Equal(lay.pos, c.pos) {
			t.Fatalf("n=%d: layout holds %v, want %v", n, lay.pos, c.pos)
		}
		want := c.run(domain{m: dm, n: n})
		got := c.run(domain{m: sm, lay: lay, n: n})
		for k := range want {
			if msg := sameRestricted(want[k], got[k], c.pos); msg != "" {
				t.Fatalf("n=%d slots=%d: result %d: %s", n, len(c.pos), k, msg)
			}
		}
		if dm.Clock() != sm.Clock() || dm.Counts() != sm.Counts() {
			t.Fatalf("n=%d: sparse charged %v %+v, dense %v %+v", n, sm.Clock(), sm.Counts(), dm.Clock(), dm.Counts())
		}
	}
}

// sameRestricted compares a dense result with its sparse counterpart:
// at the slot positions when the sparse one lives on a layout, entirely
// otherwise.
func sameRestricted(want, got any, pos []int32) string {
	switch w := want.(type) {
	case *Vec:
		gv := got.(*Vec)
		if gv.lay == nil {
			if !slices.Equal(w.v, gv.v) {
				return "dense results differ"
			}
			return ""
		}
		for _, p := range pos {
			if w.At(int(p)) != gv.At(int(p)) {
				return "differs at a slot"
			}
		}
	case *BoolVec:
		gv := got.(*BoolVec)
		for _, p := range pos {
			if w.At(int(p)) != gv.At(int(p)) {
				return "mask differs at a slot"
			}
		}
	default:
		if want != got {
			return "value differs"
		}
	}
	return ""
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestSparseLayoutPanics(t *testing.T) {
	m := New(machine.Get(machine.CM2_8K))
	const n = 3 * parTile // tiled, so panics cross goroutines
	mask := m.NewBoolGrid(n, 1)
	for p := 0; p < n; p += 2 {
		mask.v[p] = true
	}
	lay := m.SparseLayout(mask)
	v := lay.NewVec()
	idx := m.NewVec(n)
	idx.v[n-1] = 1 // position 1 holds no slot
	mustPanic(t, "At of a position with no slot", func() { v.At(1) })
	mustPanic(t, "BoolVec.At of a position with no slot", func() { lay.NewBoolVec().At(3) })
	mustPanic(t, "Gather through a position with no slot", func() { v.Gather(idx) })
	all := m.NewBoolVec(n)
	all.Fill(true)
	mustPanic(t, "ScatterWhere to a position with no slot", func() { v.ScatterWhere(all, idx, idx) })
	mustPanic(t, "ScatterMinWhere to a position with no slot", func() { v.ScatterMinWhere(all, idx, idx) })

	other := m.SparseLayout(mask)
	mustPanic(t, "sparse op with a dense operand", func() { v.Add(m.NewVec(n)) })
	mustPanic(t, "sparse op on another layout", func() { v.Add(other.NewVec()) })
	mustPanic(t, "mask op on another layout", func() { lay.NewBoolVec().And(other.NewBoolVec()) })
	mustPanic(t, "assignment across layouts", func() { v.AssignWhere(all, v) })
	mustPanic(t, "sparse op on another machine", func() {
		v.Add(New(machine.Get(machine.CM2_8K)).SparseLayout(mask).NewVec())
	})
	mustPanic(t, "scan of a sparse vector", func() { v.SegStarts() })
	mustPanic(t, "sort of a sparse vector", func() { m.SortPairs(v, v) })
}
