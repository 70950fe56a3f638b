package distengine_test

// The in-process channel-backed transport (transport.Mem) is a
// first-class engine path, not just chaos-test scaffolding: a single
// binary can serve the distributed engine against in-process workers.
// These tests run the same byte-identity property suite the TCP path is
// pinned by, so the two transports can never drift apart.

import (
	"testing"
	"testing/quick"

	"regiongrow/internal/core"
	"regiongrow/internal/distengine"
	"regiongrow/internal/distengine/disttest"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/prand"
	"regiongrow/internal/rag"
	"regiongrow/internal/transport"
)

// TestInProcMatchesSequential: the engine over the Mem transport
// produces labels and statistics byte-identical to the sequential
// engine across all six paper images × three tie policies.
func TestInProcMatchesSequential(t *testing.T) {
	mem := transport.NewMem()
	addrs := disttest.StartClusterOver(t, mem, 4)
	eng := distengine.NewOver(mem, addrs)
	for _, id := range pixmap.AllPaperImages() {
		im := pixmap.Generate(id, pixmap.DefaultGenOptions())
		for _, tie := range []rag.TiePolicy{rag.SmallestID, rag.LargestID, rag.Random} {
			cfg := core.Config{Threshold: 10, Tie: tie, Seed: 1}
			want, err := core.Sequential{}.Segment(im, cfg)
			if err != nil {
				t.Fatalf("%v/%v sequential: %v", id, tie, err)
			}
			got, err := eng.Segment(im, cfg)
			if err != nil {
				t.Fatalf("%v/%v in-proc: %v", id, tie, err)
			}
			if !got.EqualLabels(want) {
				t.Errorf("%v/%v: in-proc labels differ from sequential", id, tie)
			}
			if got.FinalRegions != want.FinalRegions ||
				got.SplitIterations != want.SplitIterations ||
				got.MergeIterations != want.MergeIterations ||
				got.SquaresAfterSplit != want.SquaresAfterSplit {
				t.Errorf("%v/%v: in-proc stats diverge from sequential", id, tie)
			}
			if got.Comm == nil || got.Comm.Messages == 0 {
				t.Errorf("%v/%v: no communication recorded: %+v", id, tie, got.Comm)
			}
		}
	}
}

// TestInProcWorkerCounts: every worker count over the Mem transport
// (including more workers than bands) yields sequential-identical
// labels, and the TCP and Mem transports agree with each other at every
// count by transitivity.
func TestInProcWorkerCounts(t *testing.T) {
	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 7}
	want, err := core.Sequential{}.Segment(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 5, 16} {
		mem := transport.NewMem()
		addrs := disttest.StartClusterOver(t, mem, n)
		got, err := distengine.NewOver(mem, addrs).Segment(im, cfg)
		if err != nil {
			t.Fatalf("%d workers: %v", n, err)
		}
		if !got.EqualLabels(want) {
			t.Errorf("%d workers: in-proc labels differ from sequential", n)
		}
	}
}

// TestInProcRandomImages: on 1–5 workers over the Mem transport, labels
// are byte-identical to sequential on random images of arbitrary size —
// non-powers-of-two, single rows and single columns — at random
// thresholds, tie policies, seeds and square caps.
func TestInProcRandomImages(t *testing.T) {
	mem := transport.NewMem()
	addrs := disttest.StartClusterOver(t, mem, 5)
	caps := []int{0, 1, 2, 4, 8}
	err := quick.Check(func(seed uint64, wRaw, hRaw, shape, workers, tRaw, tieRaw, capRaw uint8) bool {
		w, h := 1+int(wRaw)%70, 1+int(hRaw)%70
		switch shape % 4 {
		case 0:
			h = 1
		case 1:
			w = 1
		}
		im := pixmap.New(w, h)
		for i := range im.Pix {
			// Runs of three equal pixels, so squares and merges form.
			im.Pix[i] = uint8(prand.Hash2(seed, uint64(i/3)) % 64)
		}
		cfg := core.Config{
			Threshold: int(tRaw % 40),
			Tie:       rag.AllTiePolicies()[int(tieRaw)%3],
			Seed:      seed,
			MaxSquare: caps[int(capRaw)%len(caps)],
		}
		want, err := core.Sequential{}.Segment(im, cfg)
		if err != nil {
			t.Logf("%dx%d %+v sequential: %v", w, h, cfg, err)
			return false
		}
		n := 1 + int(workers)%5
		got, err := distengine.NewOver(mem, addrs[:n]).Segment(im, cfg)
		if err != nil {
			t.Logf("%dx%d on %d workers %+v: %v", w, h, n, cfg, err)
			return false
		}
		if !got.EqualLabels(want) {
			t.Logf("%dx%d on %d workers %+v: labels differ from sequential", w, h, n, cfg)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}
