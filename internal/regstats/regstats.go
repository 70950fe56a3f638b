package regstats

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
)

// Region summarises one final region.
type Region struct {
	// ID is the region label (linear index of its first pixel).
	ID int32 `json:"id"`
	// Area is the pixel count.
	Area int `json:"area"`
	// BBox is the bounding box [x0, y0, x1, y1), half-open.
	BBox [4]int `json:"bbox"`
	// CentroidX, CentroidY locate the mean pixel position.
	CentroidX float64 `json:"centroidX"`
	CentroidY float64 `json:"centroidY"`
	// Mean is the mean intensity.
	Mean float64 `json:"mean"`
	// Lo and Hi bound the region's intensities (the merge interval).
	Lo uint8 `json:"lo"`
	Hi uint8 `json:"hi"`
	// Perimeter counts pixel edges adjacent to another region or the
	// image border.
	Perimeter int `json:"perimeter"`
	// Neighbors lists adjacent region IDs in ascending order.
	Neighbors []int32 `json:"neighbors"`
}

// IV returns the region's intensity interval.
func (r *Region) IV() homog.Interval { return homog.Interval{Lo: r.Lo, Hi: r.Hi} }

// Compute derives the statistics of every region of a labelled image,
// returned in ascending ID order.
//
// A label may be any region name in [0, W·H). The engines' labels are
// anchors, each region's smallest linear pixel index, so every region is
// first met in raster order at its own anchor and the regions come out in
// ID order without a sort; other label rasters are sorted at the end.
// Compute panics if labels does not match the image geometry or a label
// lies outside [0, W·H).
func Compute(im *pixmap.Image, labels []int32) []Region {
	w, h := im.W, im.H
	n := w * h
	if len(labels) != n {
		panic(fmt.Sprintf("regstats: %d labels for %dx%d image", len(labels), w, h))
	}
	// slot[lab] is 1 + the dense number of region lab, 0 if no pixel
	// carries lab. Dense numbers follow first appearance in raster order.
	slot := make([]int32, n)
	nreg := int32(0)
	inOrder, last := true, int32(-1)
	for i, lab := range labels {
		if uint32(lab) >= uint32(n) {
			panic(fmt.Sprintf("regstats: label %d at pixel %d outside [0, %d)", lab, i, n))
		}
		if slot[lab] == 0 {
			nreg++
			slot[lab] = nreg
			inOrder = inOrder && lab > last
			last = lab
		}
	}
	out := make([]Region, nreg)
	sums := make([]struct{ x, y, v int64 }, nreg)
	// pairs holds each adjacent pair of labels as lo<<32|hi, possibly more
	// than once; it is sorted and compacted below. Its capacity is a guess
	// that appends may outgrow.
	pairs := make([]uint64, 0, 4*nreg)

	for y := 0; y < h; y++ {
		row := labels[y*w : (y+1)*w]
		pix := im.Pix[y*w : (y+1)*w]
		var above, below []int32
		if y > 0 {
			above = labels[(y-1)*w : y*w]
		}
		if y+1 < h {
			below = labels[(y+1)*w : (y+2)*w]
		}
		// Scan the row as maximal runs [x0, x1) of one label.
		for x0 := 0; x0 < w; {
			lab := row[x0]
			x1 := x0 + 1
			for x1 < w && row[x1] == lab {
				x1++
			}
			d := slot[lab] - 1
			r, s := &out[d], &sums[d]
			if r.Area == 0 {
				r.ID = lab
				r.BBox = [4]int{x0, y, x1, y + 1}
				r.Lo = 255
			}
			runLen := x1 - x0
			r.Area += runLen
			r.BBox[0] = min(r.BBox[0], x0)
			r.BBox[2] = max(r.BBox[2], x1)
			r.BBox[3] = y + 1
			s.x += int64(x0+x1-1) * int64(runLen) / 2
			s.y += int64(y) * int64(runLen)
			// A maximal run ends at the border or another region on both
			// sides; the top and bottom rows border the image.
			r.Perimeter += 2
			if above == nil {
				r.Perimeter += runLen
			}
			if below == nil {
				r.Perimeter += runLen
			}
			lo, hi, sv := r.Lo, r.Hi, int64(0)
			for x := x0; x < x1; x++ {
				v := pix[x]
				lo, hi, sv = min(lo, v), max(hi, v), sv+int64(v)
				if below == nil {
					continue
				}
				// Each vertical boundary counts for both sides, once.
				if nb := below[x]; nb != lab {
					r.Perimeter++
					out[slot[nb]-1].Perimeter++
					if x == x0 || below[x-1] != nb {
						pairs = append(pairs, pairKey(lab, nb))
					}
				}
			}
			r.Lo, r.Hi = lo, hi
			s.v += sv
			// The pair with the next run was already collected in the row
			// above if that row has the same boundary.
			if x1 < w {
				nb := row[x1]
				if above == nil || above[x1-1] != lab || above[x1] != nb {
					pairs = append(pairs, pairKey(lab, nb))
				}
			}
			x0 = x1
		}
	}

	// Sorted pairs hand every region its lower neighbours, then its higher
	// ones, each in ascending order: the lists need no sort of their own.
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	deg := make([]int32, nreg)
	for _, p := range pairs {
		deg[slot[p>>32]-1]++
		deg[slot[uint32(p)]-1]++
	}
	nbrs := make([]int32, 2*len(pairs))
	off := 0
	for d := range out {
		k := int(deg[d])
		out[d].Neighbors = nbrs[off : off : off+k]
		off += k
	}
	for _, p := range pairs {
		a, b := int32(p>>32), int32(uint32(p))
		ra, rb := &out[slot[a]-1], &out[slot[b]-1]
		ra.Neighbors = append(ra.Neighbors, b)
		rb.Neighbors = append(rb.Neighbors, a)
	}
	for d := range out {
		r, s := &out[d], sums[d]
		area := float64(r.Area)
		r.CentroidX = float64(s.x) / area
		r.CentroidY = float64(s.y) / area
		r.Mean = float64(s.v) / area
	}
	if !inOrder {
		slices.SortFunc(out, func(a, b Region) int { return cmp.Compare(a.ID, b.ID) })
	}
	return out
}

// pairKey packs an unordered pair of distinct labels as lo<<32 | hi, so
// that sorting keys sorts pairs by (lo, hi).
func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// WriteJSON emits the region list as indented JSON.
func WriteJSON(w io.Writer, regions []Region) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(regions); err != nil {
		return fmt.Errorf("regstats: encoding JSON: %w", err)
	}
	return nil
}

// WriteDOT emits the final region adjacency graph in Graphviz DOT form:
// one node per region (labelled with its area and intensity interval),
// one edge per adjacent pair.
func WriteDOT(w io.Writer, regions []Region) error {
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pr("graph rag {\n")
	pr("  // final region adjacency graph\n")
	for _, r := range regions {
		pr("  r%d [label=\"%d\\narea %d\\n[%d,%d]\"];\n", r.ID, r.ID, r.Area, r.Lo, r.Hi)
	}
	for _, r := range regions {
		for _, n := range r.Neighbors {
			if n > r.ID { // each undirected edge once
				pr("  r%d -- r%d;\n", r.ID, n)
			}
		}
	}
	pr("}\n")
	if err != nil {
		return fmt.Errorf("regstats: writing DOT: %w", err)
	}
	return nil
}

// Summary aggregates whole-segmentation statistics for reports.
type Summary struct {
	Regions      int     `json:"regions"`
	LargestArea  int     `json:"largestArea"`
	SmallestArea int     `json:"smallestArea"`
	MeanArea     float64 `json:"meanArea"`
	TotalEdges   int     `json:"adjacencies"`
	MaxRange     int     `json:"maxIntensityRange"`
	TotalPerim   int     `json:"totalPerimeter"`
}

// Summarize reduces a region list to aggregate statistics.
func Summarize(regions []Region) Summary {
	s := Summary{Regions: len(regions)}
	if len(regions) == 0 {
		return s
	}
	s.SmallestArea = regions[0].Area
	total := 0
	for _, r := range regions {
		total += r.Area
		if r.Area > s.LargestArea {
			s.LargestArea = r.Area
		}
		if r.Area < s.SmallestArea {
			s.SmallestArea = r.Area
		}
		s.TotalEdges += len(r.Neighbors)
		if rg := r.IV().Range(); rg > s.MaxRange {
			s.MaxRange = rg
		}
		s.TotalPerim += r.Perimeter
	}
	s.TotalEdges /= 2
	s.MeanArea = float64(total) / float64(len(regions))
	return s
}
