package regstats

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"regiongrow/internal/core"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/prand"
	"regiongrow/internal/rag"
)

// computeOracle is the map-based definition of Compute: every statistic
// keyed by label, all four neighbours visited per pixel. The dense pass
// must agree with it on every label raster.
func computeOracle(im *pixmap.Image, labels []int32) []Region {
	acc := make(map[int32]*Region)
	sumX := make(map[int32]int64)
	sumY := make(map[int32]int64)
	sumV := make(map[int32]int64)
	nbr := make(map[int32]map[int32]struct{})
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			i := y*im.W + x
			lab := labels[i]
			r, ok := acc[lab]
			if !ok {
				r = &Region{ID: lab, BBox: [4]int{x, y, x + 1, y + 1}, Lo: 255, Hi: 0}
				acc[lab] = r
				nbr[lab] = make(map[int32]struct{})
			}
			r.Area++
			v := im.Pix[i]
			r.Lo, r.Hi = min(r.Lo, v), max(r.Hi, v)
			r.BBox[0], r.BBox[1] = min(r.BBox[0], x), min(r.BBox[1], y)
			r.BBox[2], r.BBox[3] = max(r.BBox[2], x+1), max(r.BBox[3], y+1)
			sumX[lab] += int64(x)
			sumY[lab] += int64(y)
			sumV[lab] += int64(v)
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if !im.In(nx, ny) {
					r.Perimeter++
					continue
				}
				if nl := labels[ny*im.W+nx]; nl != lab {
					r.Perimeter++
					nbr[lab][nl] = struct{}{}
				}
			}
		}
	}
	out := make([]Region, 0, len(acc))
	for lab, r := range acc {
		r.CentroidX = float64(sumX[lab]) / float64(r.Area)
		r.CentroidY = float64(sumY[lab]) / float64(r.Area)
		r.Mean = float64(sumV[lab]) / float64(r.Area)
		ns := make([]int32, 0, len(nbr[lab]))
		for n := range nbr[lab] {
			ns = append(ns, n)
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		r.Neighbors = ns
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// testImage draws a w×h image from seed: low-contrast noise when the seed
// is even, a mosaic of random tiles (side 1 to 8) when it is odd, so that
// segmentations range from many tiny regions to few large ones.
func testImage(w, h int, seed uint64) *pixmap.Image {
	g := prand.New(seed)
	im := pixmap.New(w, h)
	tile := 1 + g.Intn(8)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := uint8(g.Intn(64))
			if seed%2 == 1 {
				v = uint8(prand.Hash3(seed, uint64(x/tile), uint64(y/tile)) % 256)
			}
			im.Pix[y*w+x] = v
		}
	}
	return im
}

func TestComputeMatchesOracleOnEngineLabels(t *testing.T) {
	err := quick.Check(func(seed uint64, wRaw, hRaw, tRaw uint8) bool {
		w, h := 1+int(wRaw)%70, 1+int(hRaw)%70
		im := testImage(w, h, seed)
		cfg := core.Config{Threshold: int(tRaw % 64), Tie: rag.Random, Seed: seed}
		seg, err := core.Sequential{}.Segment(im, cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		return reflect.DeepEqual(Compute(im, seg.Labels), computeOracle(im, seg.Labels))
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComputeMatchesOracleOnArbitraryLabels(t *testing.T) {
	// Labels drawn from a few random values in [0, W·H), in random-length
	// runs: regions that are disconnected, out of raster order, and named
	// by no pixel of their own.
	err := quick.Check(func(seed uint64, wRaw, hRaw, kRaw uint8) bool {
		w, h := 1+int(wRaw)%70, 1+int(hRaw)%70
		n := w * h
		g := prand.New(seed)
		names := make([]int32, 1+int(kRaw)%8)
		for i := range names {
			names[i] = int32(g.Intn(n))
		}
		labels := make([]int32, n)
		for i := 0; i < n; {
			lab := names[g.Intn(len(names))]
			for end := min(n, i+1+g.Intn(6)); i < end; i++ {
				labels[i] = lab
			}
		}
		im := testImage(w, h, seed)
		return reflect.DeepEqual(Compute(im, labels), computeOracle(im, labels))
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComputeAllocs(t *testing.T) {
	// A 256² mosaic of 8×8 tiles, as in the serving benchmark, segmented
	// into ~870 regions. The map-based pass made ~5.3k allocations here;
	// the dense pass makes a fixed handful whatever the region count.
	im := pixmap.New(256, 256)
	g := prand.New(7)
	for ty := 0; ty < 256; ty += 8 {
		for tx := 0; tx < 256; tx += 8 {
			im.FillRect(tx, ty, tx+8, ty+8, uint8(g.Intn(256)))
		}
	}
	seg, err := core.Sequential{}.Segment(im, core.Config{Threshold: 10, Tie: rag.Random, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() { Compute(im, seg.Labels) }); n > 8 {
		t.Fatalf("Compute made %.0f allocations on a 256² mosaic, want <= 8", n)
	}
}

// twoRegionFixture: 4×2 image, left half label 0 (value 10), right half
// label 2 (value 200).
func twoRegionFixture() (*pixmap.Image, []int32) {
	im := pixmap.New(4, 2)
	copy(im.Pix, []uint8{10, 10, 200, 200, 10, 10, 200, 200})
	return im, []int32{0, 0, 2, 2, 0, 0, 2, 2}
}

func TestComputeBasics(t *testing.T) {
	im, labels := twoRegionFixture()
	rs := Compute(im, labels)
	if len(rs) != 2 {
		t.Fatalf("regions = %d", len(rs))
	}
	r0 := rs[0]
	if r0.ID != 0 || r0.Area != 4 {
		t.Fatalf("r0 = %+v", r0)
	}
	if r0.BBox != [4]int{0, 0, 2, 2} {
		t.Fatalf("bbox = %v", r0.BBox)
	}
	if r0.CentroidX != 0.5 || r0.CentroidY != 0.5 {
		t.Fatalf("centroid = (%v,%v)", r0.CentroidX, r0.CentroidY)
	}
	if r0.Mean != 10 || r0.Lo != 10 || r0.Hi != 10 {
		t.Fatalf("intensity stats = %+v", r0)
	}
	// Perimeter: left/top/bottom borders (2+2+2) plus the internal
	// boundary (2 edges) = 8.
	if r0.Perimeter != 8 {
		t.Fatalf("perimeter = %d", r0.Perimeter)
	}
	if len(r0.Neighbors) != 1 || r0.Neighbors[0] != 2 {
		t.Fatalf("neighbors = %v", r0.Neighbors)
	}
	if rs[1].Neighbors[0] != 0 {
		t.Fatal("adjacency not symmetric")
	}
}

func TestComputeAreasCover(t *testing.T) {
	im := pixmap.Random(16, 3)
	labels := make([]int32, 256)
	for i := range labels {
		labels[i] = int32(i % 7 * 0) // single region
	}
	rs := Compute(im, labels)
	if len(rs) != 1 || rs[0].Area != 256 {
		t.Fatalf("single region stats wrong: %+v", rs)
	}
	// Border-only perimeter: 4×16.
	if rs[0].Perimeter != 64 {
		t.Fatalf("perimeter = %d", rs[0].Perimeter)
	}
}

func TestComputePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched labels accepted")
		}
	}()
	Compute(pixmap.New(2, 2), []int32{0})
}

func TestComputePanicsOnLabelOutOfRange(t *testing.T) {
	for _, bad := range []int32{-1, 4} {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "outside [0, 4)") {
					t.Fatalf("label %d: panic %q, want one naming the range", bad, msg)
				}
			}()
			Compute(pixmap.New(2, 2), []int32{0, 0, 0, bad})
		})
	}
}

func TestWriteJSON(t *testing.T) {
	im, labels := twoRegionFixture()
	var sb strings.Builder
	if err := WriteJSON(&sb, Compute(im, labels)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"id": 0`, `"area": 4`, `"neighbors"`, `"perimeter": 8`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	im, labels := twoRegionFixture()
	var sb strings.Builder
	if err := WriteDOT(&sb, Compute(im, labels)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"graph rag {", "r0 [label=", "r0 -- r2;", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "r2 -- r0") {
		t.Error("edge emitted twice")
	}
}

func TestSummarize(t *testing.T) {
	im, labels := twoRegionFixture()
	s := Summarize(Compute(im, labels))
	if s.Regions != 2 || s.LargestArea != 4 || s.SmallestArea != 4 || s.MeanArea != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if s.TotalEdges != 1 {
		t.Fatalf("edges = %d", s.TotalEdges)
	}
	if Summarize(nil).Regions != 0 {
		t.Fatal("empty summary wrong")
	}
}
