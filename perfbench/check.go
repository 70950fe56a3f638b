package main

import (
	"fmt"
	"slices"
	"sync"

	"regiongrow"
)

// maxLogged caps how many failing ops a run describes; the rest are only
// counted.
const maxLogged = 5

// opErr logs the first few op failures as problems and passes err on.
func (r *report) opErr(err error) error {
	if err == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < maxLogged {
		r.problems = append(r.problems, err.Error())
	}
	return err
}

// counts are the exact numbers a segmentation reports besides its labels.
// The same input under the same seed must reproduce them exactly.
type counts struct {
	layer                              string
	splitIters, mergeIters             int
	squares, regions                   int
	mergesPerIter                      string
	splitSim, mergeSim                 float64
	messages, words, collectives, hops int64
}

func countsOf(layer string, seg *regiongrow.Segmentation) counts {
	c := counts{
		layer:         layer,
		splitIters:    seg.SplitIterations,
		mergeIters:    seg.MergeIterations,
		squares:       seg.SquaresAfterSplit,
		regions:       seg.FinalRegions,
		mergesPerIter: fmt.Sprint(seg.MergesPerIter),
		splitSim:      seg.SplitSim,
		mergeSim:      seg.MergeSim,
	}
	if cs := seg.Comm; cs != nil {
		c.messages, c.words = cs.Messages, cs.Words
		c.collectives = cs.Barriers + cs.Gathers + cs.Reduces + cs.Exchanges
		c.hops = cs.LPSteps
	}
	return c
}

// ledger remembers the counts of each input's first run and compares
// every repeat against them.
type ledger struct {
	mu       sync.Mutex
	first    map[int]counts
	reps     int
	simDrift int
}

func newLedger() *ledger { return &ledger{first: make(map[int]counts)} }

// check records or compares the counts of input key. A difference in any
// count fails the op, with one exception: the simulated merge time of
// mpengine, which depends on the order in which its simulated nodes'
// any-source receives are served by the Go scheduler. That known program
// defect is counted (machine.merge_sim_mismatch) and printed, not failed,
// so that the benchmark stays usable until the program is fixed.
func (l *ledger) check(key int, name, layer string, seg *regiongrow.Segmentation) error {
	c := countsOf(layer, seg)
	l.mu.Lock()
	defer l.mu.Unlock()
	f, seen := l.first[key]
	if !seen {
		l.first[key] = c
		return nil
	}
	l.reps++
	if layer == "mpengine" && c.mergeSim != f.mergeSim {
		l.simDrift++
		c.mergeSim = f.mergeSim
	}
	if c != f {
		return fmt.Errorf("%s: exact counts did not repeat: first %+v, now %+v", name, f, c)
	}
	return nil
}

// firsts returns the counts of every input's first run, in key order.
func (l *ledger) firsts() []counts {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]int, 0, len(l.first))
	for k := range l.first {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]counts, len(keys))
	for i, k := range keys {
		out[i] = l.first[k]
	}
	return out
}

func (l *ledger) repeats() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reps
}

func (l *ledger) simMismatches() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.simDrift
}
