package dpengine

import (
	"slices"
	"testing"
	"testing/quick"

	"regiongrow/internal/core"
	"regiongrow/internal/homog"
	"regiongrow/internal/machine"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/prand"
	"regiongrow/internal/rag"
)

func newEngine(t *testing.T, cfg machine.ConfigID) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRejectsMessagePassingConfig(t *testing.T) {
	if _, err := New(machine.CM5_LP); err == nil {
		t.Fatal("accepted an MP configuration")
	}
}

func TestName(t *testing.T) {
	e := newEngine(t, machine.CM2_8K)
	if e.Name() != "data-parallel/CM2-8K" {
		t.Fatalf("Name = %q", e.Name())
	}
	if e.Config() != machine.CM2_8K {
		t.Fatal("Config wrong")
	}
}

// assertMatchesSequential runs both engines and requires identical
// segmentations and statistics.
func assertMatchesSequential(t *testing.T, e *Engine, im *pixmap.Image, cfg core.Config) {
	t.Helper()
	want, err := core.Sequential{}.Segment(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Segment(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !want.EqualLabels(got) {
		t.Fatalf("%dx%d: labels differ from sequential (tie=%v seed=%d T=%d cap=%d)", im.W, im.H, cfg.Tie, cfg.Seed, cfg.Threshold, cfg.MaxSquare)
	}
	if want.SplitIterations != got.SplitIterations {
		t.Fatalf("split iterations %d vs %d", want.SplitIterations, got.SplitIterations)
	}
	if want.SquaresAfterSplit != got.SquaresAfterSplit {
		t.Fatalf("squares %d vs %d", want.SquaresAfterSplit, got.SquaresAfterSplit)
	}
	if want.MergeIterations != got.MergeIterations {
		t.Fatalf("merge iterations %d vs %d", want.MergeIterations, got.MergeIterations)
	}
	if want.FinalRegions != got.FinalRegions {
		t.Fatalf("final regions %d vs %d", want.FinalRegions, got.FinalRegions)
	}
	if !slices.Equal(want.MergesPerIter, got.MergesPerIter) {
		t.Fatalf("merges per iteration %v vs %v", want.MergesPerIter, got.MergesPerIter)
	}
	if err := core.Validate(got, im, cfg.Criterion()); err != nil {
		t.Fatal(err)
	}
}

func TestMatchesSequentialOnPaperImages(t *testing.T) {
	e := newEngine(t, machine.CM2_8K)
	for _, id := range pixmap.AllPaperImages() {
		if testing.Short() && id.Size() == 256 {
			continue
		}
		im := pixmap.Generate(id, pixmap.DefaultGenOptions())
		for _, tie := range []rag.TiePolicy{rag.SmallestID, rag.LargestID, rag.Random} {
			assertMatchesSequential(t, e, im, core.Config{Threshold: 10, Tie: tie, Seed: 99})
		}
	}
}

func TestMatchesSequentialAcrossConfigs(t *testing.T) {
	im := pixmap.Generate(pixmap.Image2Rects128, pixmap.DefaultGenOptions())
	for _, mc := range []machine.ConfigID{machine.CM2_8K, machine.CM2_16K, machine.CM5_CMF} {
		assertMatchesSequential(t, newEngine(t, mc), im, core.Config{Threshold: 10, Tie: rag.Random, Seed: 5})
	}
}

// TestMatchesSequentialProperty checks byte-identity with the sequential
// engine on random w×h images from 1 to 70 on a side (1-row and 1-column
// strips included), any threshold, tie policy, seed and square cap.
func TestMatchesSequentialProperty(t *testing.T) {
	e := newEngine(t, machine.CM2_8K)
	caps := []int{0, 1, 2, 4, 8, 16, -1}
	ties := []rag.TiePolicy{rag.SmallestID, rag.LargestID, rag.Random}
	levels := []int{1, 2, 3, 4, 8, 16, 64, 256}
	err := quick.Check(func(seed uint64, wRaw, hRaw, shape, grey, tRaw, tie, capRaw uint8) bool {
		w, h := 1+int(wRaw)%70, 1+int(hRaw)%70
		switch shape % 4 {
		case 0:
			h = 1
		case 1:
			w = 1
		}
		// Few grey levels make homogeneous squares and merges likely.
		q := levels[int(grey)%len(levels)]
		g := prand.New(seed)
		im := pixmap.New(w, h)
		for i := range im.Pix {
			im.Pix[i] = uint8(g.Intn(q) * (256 / q))
		}
		cfg := core.Config{Threshold: int(tRaw), Tie: ties[int(tie)%len(ties)], Seed: g.Uint64(), MaxSquare: caps[int(capRaw)%len(caps)]}
		assertMatchesSequential(t, e, im, cfg)
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnboundedCapAndThresholdExtremes(t *testing.T) {
	e := newEngine(t, machine.CM2_16K)
	im := pixmap.Random(32, 3)
	assertMatchesSequential(t, e, im, core.Config{Threshold: 255, MaxSquare: -1})
	assertMatchesSequential(t, e, im, core.Config{Threshold: 0})
	assertMatchesSequential(t, e, pixmap.Uniform(32, 9), core.Config{Threshold: 0, MaxSquare: -1})
	assertMatchesSequential(t, e, pixmap.Checkerboard(32, 0, 255), core.Config{Threshold: 10})
}

func TestNonSquareImages(t *testing.T) {
	e := newEngine(t, machine.CM2_8K)
	im := pixmap.New(48, 16)
	im.FillRect(0, 0, 48, 16, 30)
	im.FillRect(10, 3, 37, 11, 90)
	assertMatchesSequential(t, e, im, core.Config{Threshold: 5})
}

func TestSimulatedClocksPopulated(t *testing.T) {
	e := newEngine(t, machine.CM2_8K)
	im := pixmap.Generate(pixmap.Image2Rects128, pixmap.DefaultGenOptions())
	seg, err := e.Segment(im, core.Config{Threshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if seg.SplitSim <= 0 || seg.MergeSim <= 0 {
		t.Fatalf("simulated clocks not populated: split=%v merge=%v", seg.SplitSim, seg.MergeSim)
	}
	if seg.SplitWall <= 0 || seg.MergeWall <= 0 {
		t.Fatal("wall clocks not populated")
	}
}

func TestMoreProcessorsNotSlower(t *testing.T) {
	// Scaling ablation: the same program on the 16K profile must not be
	// slower than on the 8K profile in simulated time.
	im := pixmap.Generate(pixmap.Image1NestedRects128, pixmap.DefaultGenOptions())
	cfg := core.Config{Threshold: 10, Tie: rag.SmallestID}
	s8, err := newEngine(t, machine.CM2_8K).Segment(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s16, err := newEngine(t, machine.CM2_16K).Segment(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s16.SplitSim >= s8.SplitSim {
		t.Fatalf("split: 16K %.4f not faster than 8K %.4f", s16.SplitSim, s8.SplitSim)
	}
	if s16.MergeSim >= s8.MergeSim {
		t.Fatalf("merge: 16K %.4f not faster than 8K %.4f", s16.MergeSim, s8.MergeSim)
	}
}

func TestNewWithProfile(t *testing.T) {
	p := machine.Get(machine.CM2_8K)
	p.PE = 1024
	e := NewWithProfile(machine.CM2_8K, p)
	im := pixmap.Uniform(32, 5)
	seg, err := e.Segment(im, core.Config{Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Validate(seg, im, homog.NewRange(0)); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyImage(t *testing.T) {
	e := newEngine(t, machine.CM2_8K)
	seg, err := e.Segment(pixmap.New(0, 0), core.Config{Threshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if seg.FinalRegions != 0 {
		t.Fatalf("empty image: %d regions", seg.FinalRegions)
	}
}

// TestPaperTablePins pins what the paper tables report for the
// data-parallel rows: simulated split and merge times, bit for bit, on
// CM-2 8K, CM-2 16K and CM-5 CM Fortran, plus the split and merge counts
// behind them, for all six paper images. A change that moves any of them
// changes the tables and must say why.
func TestPaperTablePins(t *testing.T) {
	machines := []machine.ConfigID{machine.CM2_8K, machine.CM2_16K, machine.CM5_CMF}
	cases := []struct {
		id                  pixmap.PaperImageID
		splitIters, squares int
		mergeIters, regions int
		mergesPerIter       []int
		sim                 [3][2]float64 // {SplitSim, MergeSim} per entry of machines
	}{
		{pixmap.Image1NestedRects128, 4, 532, 31, 2,
			[]int{62, 66, 55, 48, 49, 30, 22, 34, 26, 16, 11, 12, 14, 12, 11, 9, 9, 3, 5, 5, 6, 5, 3, 3, 2, 4, 2, 1, 2, 2, 1},
			[3][2]float64{{0.19988700000000015, 9.356113000000049}, {0.11197000000000017, 8.474094000000106}, {0.5158483999999984, 22.599796850000146}}},
		{pixmap.Image2Rects128, 4, 208, 17, 7,
			[]int{46, 27, 21, 22, 20, 15, 12, 9, 9, 7, 2, 3, 3, 2, 1, 1, 1},
			[3][2]float64{{0.19988700000000015, 4.517580999999999}, {0.11197000000000017, 4.011821000000015}, {0.5158483999999984, 12.456947349999844}}},
		{pixmap.Image3Circles128, 4, 1735, 44, 11,
			[]int{231, 206, 148, 150, 116, 117, 95, 84, 88, 61, 57, 51, 46, 37, 27, 29, 28, 20, 22, 18, 17, 13, 8, 10, 8, 4, 5, 2, 2, 4, 2, 1, 1, 4, 1, 3, 0, 4, 2, 0, 0, 0, 1, 1},
			[3][2]float64{{0.19988700000000015, 14.495371000000437}, {0.11197000000000017, 12.824590000000045}, {0.5158483999999984, 33.83796810000049}}},
		{pixmap.Image4NestedRects256, 5, 1096, 42, 2,
			[]int{135, 124, 100, 101, 79, 76, 58, 58, 42, 35, 33, 30, 27, 22, 21, 23, 16, 13, 14, 8, 11, 11, 5, 7, 6, 5, 4, 4, 3, 6, 1, 5, 1, 2, 2, 1, 1, 0, 1, 1, 1, 1},
			[3][2]float64{{1.0073680000000023, 18.010197999999978}, {0.5287079999999994, 14.571606000000093}, {2.1731234000000055, 37.26386020000031}}},
		{pixmap.Image5Rects256, 5, 208, 20, 7,
			[]int{41, 29, 27, 20, 13, 17, 12, 8, 9, 7, 4, 2, 3, 3, 1, 1, 1, 1, 1, 1},
			[3][2]float64{{1.0073680000000023, 7.538143000000006}, {0.5287079999999994, 5.634821000000037}, {2.1731234000000055, 17.600730549999824}}},
		{pixmap.Image6Tool256, 5, 1306, 33, 4,
			[]int{168, 143, 128, 127, 90, 80, 67, 74, 56, 42, 47, 43, 33, 37, 24, 21, 25, 12, 13, 13, 12, 8, 6, 5, 4, 5, 8, 3, 1, 2, 2, 2, 1},
			[3][2]float64{{1.0073680000000023, 15.001523000000036}, {0.5287079999999994, 12.17430900000008}, {2.1731234000000055, 30.301055200000178}}},
	}
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 7}
	for _, c := range cases {
		im := pixmap.Generate(c.id, pixmap.DefaultGenOptions())
		for k, mc := range machines {
			seg, err := newEngine(t, mc).Segment(im, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if seg.SplitSim != c.sim[k][0] || seg.MergeSim != c.sim[k][1] {
				t.Errorf("%v/%v: sim %v/%v, want %v/%v", mc, c.id, seg.SplitSim, seg.MergeSim, c.sim[k][0], c.sim[k][1])
			}
			if seg.SplitIterations != c.splitIters || seg.SquaresAfterSplit != c.squares {
				t.Errorf("%v/%v: split %d iterations, %d squares; want %d, %d", mc, c.id, seg.SplitIterations, seg.SquaresAfterSplit, c.splitIters, c.squares)
			}
			if seg.MergeIterations != c.mergeIters || seg.FinalRegions != c.regions || !slices.Equal(seg.MergesPerIter, c.mergesPerIter) {
				t.Errorf("%v/%v: merge %d iterations, %d regions, merges %v; want %d, %d, %v", mc, c.id,
					seg.MergeIterations, seg.FinalRegions, seg.MergesPerIter, c.mergeIters, c.regions, c.mergesPerIter)
			}
		}
	}
}
