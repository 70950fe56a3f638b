package simdvm

// Scans, segmented scans, sorting, and stream compaction. On the CM these
// are the library primitives (scan, rank, pack) CM Fortran programs lean
// on; here they execute sequentially or tiled on the host but are charged
// at their parallel cost (log-depth for scans, log²-depth for sort).

// ScanAddExclusive returns the exclusive prefix sum: out(i) = Σ_{j<i} a(j).
func (a *Vec) ScanAddExclusive() *Vec {
	dense("ScanAddExclusive", a)
	out := a.m.NewVec(len(a.v))
	a.m.chargeScan(len(a.v))
	var sum int32
	for i, x := range a.v {
		out.v[i] = sum
		sum += x
	}
	return out
}

// SumValue reduces the vector to the sum of its elements.
func (a *Vec) SumValue() int32 {
	dense("SumValue", a)
	a.m.chargeScan(len(a.v))
	var sum int32
	for _, x := range a.v {
		sum += x
	}
	return sum
}

// MaxValue reduces to the maximum element. Panics on empty vectors.
func (a *Vec) MaxValue() int32 {
	dense("MaxValue", a)
	if len(a.v) == 0 {
		panic("simdvm: MaxValue of empty vec")
	}
	a.m.chargeScan(len(a.v))
	return reduceMax(a.m, a.v)
}

// SegStarts derives the segment-start mask of a vector sorted by segment
// key: start(i) = i==0 ∨ key(i)≠key(i−1).
func (a *Vec) SegStarts() *BoolVec {
	dense("SegStarts", a)
	out := a.m.NewBoolVec(len(a.v))
	a.m.chargeElem(len(a.v))
	a.m.parFor(len(a.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.v[i] = i == 0 || a.v[i] != a.v[i-1]
		}
	})
	return out
}

// SegMinBroadcast computes, for every element, the minimum of vals over
// the elements of its segment where mask holds; elements of segments with
// no masked member receive sentinel. Segments are delimited by starts.
// This is a forward segmented min-scan followed by a backward broadcast,
// charged as two scan operations.
func (a *Vec) SegMinBroadcast(starts *BoolVec, mask *BoolVec, sentinel int32) *Vec {
	conform("SegMinBroadcast", a, starts, mask)
	dense("SegMinBroadcast", a)
	out := a.m.NewVec(len(a.v))
	a.m.chargeScan(len(a.v))
	a.m.chargeScan(len(a.v))
	n := len(a.v)
	cur := sentinel
	for i := 0; i < n; i++ {
		if starts.v[i] {
			cur = sentinel
		}
		if mask.v[i] && a.v[i] < cur {
			cur = a.v[i]
		}
		out.v[i] = cur
	}
	// Backward pass: broadcast each segment's total (held at its last
	// element) to the whole segment.
	for i := n - 1; i >= 0; i-- {
		if i+1 < n && !starts.v[i+1] {
			out.v[i] = out.v[i+1]
		}
	}
	return out
}

// SegRankCount returns, for every element, the exclusive count of masked
// elements before it within its segment (rank) and the total masked count
// of its segment (count). Two segmented scans.
func (m *Machine) SegRankCount(starts *BoolVec, mask *BoolVec) (rank, count *Vec) {
	m.sameMachine(starts.m)
	conform("SegRankCount", starts, mask)
	dense("SegRankCount", starts)
	n := len(starts.v)
	rank = m.NewVec(n)
	count = m.NewVec(n)
	m.chargeScan(n)
	m.chargeScan(n)
	var r int32
	for i := 0; i < n; i++ {
		if starts.v[i] {
			r = 0
		}
		rank.v[i] = r
		if mask.v[i] {
			r++
		}
	}
	cur := int32(0)
	for i := n - 1; i >= 0; i-- {
		if i+1 == n || starts.v[i+1] {
			cur = rank.v[i]
			if mask.v[i] {
				cur++
			}
		}
		count.v[i] = cur
	}
	return rank, count
}

// SortPairs sorts (key1, key2) pairs lexicographically, returning the
// permutation as an index vector: out(i) is the position in the input of
// the i-th smallest pair. Equal pairs keep their input order. Apply it
// with Gather to reorder companion vectors. Charged as one parallel sort
// (bitonic cost).
func (m *Machine) SortPairs(key1, key2 *Vec) *Vec {
	m.sameMachine(key1.m)
	conform("SortPairs", key1, key2)
	dense("SortPairs", key1)
	n := len(key1.v)
	m.chargeSort(n)
	// One ordered 64-bit key per pair: flipping the sign bit maps int32
	// order onto uint32 order.
	ks := make([]keyed, n)
	for i := range ks {
		ks[i] = keyed{uint64(uint32(key1.v[i])^1<<31)<<32 | uint64(uint32(key2.v[i])^1<<31), int32(i)}
	}
	perm := m.NewVec(n)
	for i, k := range radixSort(ks, make([]keyed, n)) {
		perm.v[i] = k.at
	}
	return perm
}

// keyed is a sort key with the input position it came from.
type keyed struct {
	key uint64
	at  int32
}

// radixSort sorts ks by key, stably, with one least-significant-digit
// pass per key byte; it skips the bytes every key shares. tmp is scratch
// of ks's length. It returns whichever of the two holds the result.
func radixSort(ks, tmp []keyed) []keyed {
	var diff uint64
	for _, k := range ks {
		diff |= k.key ^ ks[0].key
	}
	for shift := 0; shift < 64; shift += 8 {
		if diff>>shift&0xff == 0 {
			continue
		}
		var start [257]int
		for _, k := range ks {
			start[k.key>>shift&0xff+1]++
		}
		for d := 1; d < len(start); d++ {
			start[d] += start[d-1]
		}
		for _, k := range ks {
			d := k.key >> shift & 0xff
			tmp[start[d]] = k
			start[d]++
		}
		ks, tmp = tmp, ks
	}
	return ks
}

// Pack compacts the elements of each vector in vs selected by mask,
// preserving order — the CM PACK intrinsic. All vectors must have the
// mask's length. It returns the compacted vectors (all of the same,
// possibly zero, length). Charged as an enumerate scan plus one router
// send per vector.
func (m *Machine) Pack(mask *BoolVec, vs ...*Vec) []*Vec {
	m.sameMachine(mask.m)
	dense("Pack", mask)
	n := len(mask.v)
	for _, v := range vs {
		conform("Pack", mask, v)
	}
	m.chargeScan(n) // enumerate
	total := 0
	pos := make([]int32, n)
	for i, set := range mask.v {
		if set {
			pos[i] = int32(total)
			total++
		}
	}
	out := make([]*Vec, len(vs))
	for k, v := range vs {
		m.chargeRouter(total)
		dst := m.NewVec(total)
		for i, set := range mask.v {
			if set {
				dst.v[pos[i]] = v.v[i]
			}
		}
		out[k] = dst
	}
	return out
}

// PackGrid compacts grid elements selected by a grid mask into vectors,
// in row-major order. Used to convert 2-D boundary masks into the 1-D edge
// arrays of the merge stage.
func (m *Machine) PackGrid(mask *BoolGrid, gs ...*Grid) []*Vec {
	m.sameMachine(mask.m)
	n := len(mask.v)
	for _, g := range gs {
		m.sameMachine(g.m)
		checkLen("PackGrid", n, len(g.v))
	}
	m.chargeScan(n)
	total := 0
	pos := make([]int32, n)
	for i, set := range mask.v {
		if set {
			pos[i] = int32(total)
			total++
		}
	}
	out := make([]*Vec, len(gs))
	for k, g := range gs {
		m.chargeRouter(total)
		dst := m.NewVec(total)
		for i, set := range mask.v {
			if set {
				dst.v[pos[i]] = g.v[i]
			}
		}
		out[k] = dst
	}
	return out
}

// Concat concatenates vectors into a fresh one (front-end array assembly,
// charged elementwise).
func (m *Machine) Concat(vs ...*Vec) *Vec {
	total := 0
	for _, v := range vs {
		m.sameMachine(v.m)
		dense("Concat", v)
		total += len(v.v)
	}
	out := m.NewVec(total)
	m.chargeElem(total)
	off := 0
	for _, v := range vs {
		copy(out.v[off:off+len(v.v)], v.v)
		off += len(v.v)
	}
	return out
}

// Flatten copies a grid into a 1-D vector in row-major order (a CM array
// reshape; charged elementwise).
func (g *Grid) Flatten() *Vec {
	out := g.m.NewVec(len(g.v))
	g.m.chargeElem(len(g.v))
	g.m.parFor(len(g.v), func(lo, hi int) { copy(out.v[lo:hi], g.v[lo:hi]) })
	return out
}

// PairDup returns the mask of positions whose (a, b) pair equals the
// previous position's pair — the duplicate-edge detector run after sorting
// edge arrays.
func (m *Machine) PairDup(a, b *Vec) *BoolVec {
	m.sameMachine(a.m)
	conform("PairDup", a, b)
	dense("PairDup", a)
	out := m.NewBoolVec(len(a.v))
	m.chargeElem(len(a.v))
	m.parFor(len(a.v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.v[i] = i > 0 && a.v[i] == a.v[i-1] && b.v[i] == b.v[i-1]
		}
	})
	return out
}

// PointerJump resolves representative chains in place: rep = rep[rep]
// applied until a fixed point, each round charged as a router gather, an
// elementwise comparison and a reduction. Classic data-parallel pointer jumping; converges in
// O(log chain length) rounds. It returns the number of rounds executed.
func (a *Vec) PointerJump() int {
	rounds := 0
	for {
		next := a.Gather(a)
		if !a.Ne(next).Any() {
			return rounds
		}
		copy(a.v, next.v)
		rounds++
	}
}
