package core_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"regiongrow/internal/core"
	"regiongrow/internal/dpengine"
	"regiongrow/internal/homog"
	"regiongrow/internal/machine"
	"regiongrow/internal/mpengine"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/prand"
	"regiongrow/internal/rag"
)

// fillRegionsOracle is the map-based definition of FillRegions: area and
// interval keyed by label, sorted by ID at the end.
func fillRegionsOracle(im *pixmap.Image, labels []int32) []core.RegionInfo {
	info := make(map[int32]*core.RegionInfo)
	for i, lab := range labels {
		ri, ok := info[lab]
		if !ok {
			ri = &core.RegionInfo{ID: lab, IV: homog.Empty()}
			info[lab] = ri
		}
		ri.Area++
		ri.IV = ri.IV.Union(homog.Point(im.Pix[i]))
	}
	var out []core.RegionInfo
	for _, ri := range info {
		out = append(out, *ri)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// tileImage draws a w×h image of random tiles of side 1 to 8 from seed,
// with intensities in [0, 64) so that thresholds up to 63 merge some of
// them and not others.
func tileImage(w, h int, seed uint64) *pixmap.Image {
	tile := 1 + int(seed%8)
	im := pixmap.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			im.Pix[y*w+x] = uint8(prand.Hash3(seed, uint64(x/tile), uint64(y/tile)) % 64)
		}
	}
	return im
}

func TestFillRegionsMatchesOracleOnEngines(t *testing.T) {
	dp, err := dpengine.New(machine.CM5_CMF)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := mpengine.New(machine.CM5_LP)
	if err != nil {
		t.Fatal(err)
	}
	// mpengine needs the width to divide by 8 and the height by 4 (its
	// 32 nodes form a 4×8 grid) and its tiles to align with the square
	// cap: it gets the size rounded up and single-pixel squares.
	engines := []struct {
		e                       core.Engine
		wStep, hStep, maxSquare int
	}{{core.Sequential{}, 1, 1, 0}, {dp, 1, 1, 0}, {mp, 8, 4, 1}}
	err = quick.Check(func(seed uint64, wRaw, hRaw, tRaw uint8) bool {
		for _, c := range engines {
			cfg := core.Config{Threshold: int(tRaw % 64), Tie: rag.Random, Seed: seed, MaxSquare: c.maxSquare}
			w := (1 + int(wRaw)%70 + c.wStep - 1) / c.wStep * c.wStep
			h := (1 + int(hRaw)%70 + c.hStep - 1) / c.hStep * c.hStep
			im := tileImage(w, h, seed)
			seg, err := c.e.Segment(im, cfg)
			if err != nil {
				t.Logf("%s: %v", c.e.Name(), err)
				return false
			}
			want := fillRegionsOracle(im, seg.Labels)
			if !reflect.DeepEqual(seg.Regions, want) || seg.FinalRegions != len(want) {
				t.Logf("%s on %dx%d: regions differ from the oracle", c.e.Name(), w, h)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFillRegionsPanicsOnNonAnchorLabel(t *testing.T) {
	for _, labels := range [][]int32{
		{1, 1, 1, 1}, // met before its own pixel
		{0, 2, 2, 2}, // its own pixel carries it, but not first
		{0, 3, 3, 0}, // its own pixel does not carry it
		{0, 0, 0, -1},
		{0, 0, 0, 4},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "not an anchor") {
					t.Errorf("labels %v: panic %q, want one naming the non-anchor label", labels, msg)
				}
			}()
			seg := &core.Segmentation{W: 2, H: 2, Labels: labels}
			seg.FillRegions(pixmap.New(2, 2))
		}()
	}
}

func TestFillRegionsAllocatesOnlyTheRegionSlice(t *testing.T) {
	im := tileImage(256, 256, 7) // 8×8 tiles
	seg, err := core.Sequential{}.Segment(im, core.Config{Threshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() {
		seg.Regions = nil
		seg.FillRegions(im)
	}); n > 1 {
		t.Fatalf("FillRegions made %.0f allocations, want at most the region slice", n)
	}
}
