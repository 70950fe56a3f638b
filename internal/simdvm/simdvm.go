package simdvm

import (
	"fmt"
	"runtime"
	"sync"

	"regiongrow/internal/machine"
)

// Machine is the data-parallel execution context: it owns the cost profile,
// the simulated clock, operation counters, and the goroutine-tiling width.
type Machine struct {
	prof    *machine.Profile
	workers int
	clock   float64
	counts  Counters
}

// Counters tallies the primitive operations a machine has executed,
// mirroring the cost categories of machine.Profile.
type Counters struct {
	ElemOps   int64 // elementwise operations
	NewsOps   int64 // grid shifts
	RouterOps int64 // gathers/scatters
	ScanOps   int64 // scans, segmented scans, reductions
	SortOps   int64 // sort operations
	Elements  int64 // total elements touched by elementwise ops
	Routed    int64 // total elements moved through the router
}

// New returns a machine with the given cost profile, tiling work across
// up to GOMAXPROCS goroutines.
func New(prof *machine.Profile) *Machine {
	return &Machine{prof: prof, workers: runtime.GOMAXPROCS(0)}
}

// NewSerial returns a machine that executes without goroutine tiling;
// useful for tests that need deterministic profiling of host behaviour.
func NewSerial(prof *machine.Profile) *Machine {
	return &Machine{prof: prof, workers: 1}
}

// Profile returns the machine's cost profile.
func (m *Machine) Profile() *machine.Profile { return m.prof }

// Clock returns the simulated seconds elapsed since construction or the
// last ResetClock.
func (m *Machine) Clock() float64 { return m.clock }

// ResetClock zeroes the simulated clock and counters.
func (m *Machine) ResetClock() {
	m.clock = 0
	m.counts = Counters{}
}

// Counts returns a copy of the operation counters.
func (m *Machine) Counts() Counters { return m.counts }

// ChargeScalar adds front-end scalar work (n operations) to the clock.
// The CM front end executes scalar control code between parallel ops.
func (m *Machine) ChargeScalar(n int) {
	m.clock += float64(n) * m.prof.TElem
}

func (m *Machine) chargeElem(n int) {
	m.clock += m.prof.ElemOp(n)
	m.counts.ElemOps++
	m.counts.Elements += int64(n)
}

func (m *Machine) chargeNews(n, dist int) {
	m.clock += m.prof.NewsOp(n, dist)
	m.counts.NewsOps++
	m.counts.Elements += int64(n)
}

func (m *Machine) chargeRouter(n int) {
	m.clock += m.prof.RouterOp(n)
	m.counts.RouterOps++
	m.counts.Routed += int64(n)
}

func (m *Machine) chargeScan(n int) {
	m.clock += m.prof.ScanOp(n)
	m.counts.ScanOps++
	m.counts.Elements += int64(n)
}

func (m *Machine) chargeSort(n int) {
	m.clock += m.prof.SortOp(n)
	m.counts.SortOps++
	m.counts.Elements += int64(n)
}

// parTile is the minimum number of elements per operation before the
// machine bothers spinning up goroutines; below this, loop overhead
// dominates and a single goroutine is faster.
const parTile = 8192

// tile returns the chunk length parFor splits n elements into: n itself
// when the op runs on one goroutine.
func (m *Machine) tile(n int) int {
	w := min(m.workers, n)
	if w <= 1 || n < parTile {
		return n
	}
	return (n + w - 1) / w
}

// parFor executes f over [0, n) split into contiguous chunks, one per
// worker goroutine. Chunks never overlap, so f may write disjoint slices
// of shared arrays without synchronization. A panic in any chunk is
// raised again on the calling goroutine once every chunk has finished.
func (m *Machine) parFor(n int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunk := m.tile(n)
	if chunk == n {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	var once sync.Once
	var fault any
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { fault = r })
				}
			}()
			f(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
	if fault != nil {
		panic(fault)
	}
}

// reduce runs part over parFor's chunks of [0, n), n > 0, and folds the
// partials in chunk order with combine.
func reduce[T any](m *Machine, n int, part func(lo, hi int) T, combine func(a, b T) T) T {
	chunk := m.tile(n)
	parts := make([]T, (n+chunk-1)/chunk)
	m.parFor(n, func(lo, hi int) { parts[lo/chunk] = part(lo, hi) })
	acc := parts[0]
	for _, p := range parts[1:] {
		acc = combine(acc, p)
	}
	return acc
}

func (m *Machine) sameMachine(other *Machine) {
	if m != other {
		panic("simdvm: operands belong to different machines")
	}
}

func checkLen(op string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("simdvm: %s: length mismatch %d vs %d", op, a, b))
	}
}
