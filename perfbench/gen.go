package main

import (
	"regiongrow"
	"regiongrow/internal/prand"
)

// class names the two synthetic input families. Every workload that
// segments generated images alternates them, because they load different
// layers: blobs are dominated by split and finalize, mosaics by RAG build,
// merge and relabel.
type class int

const (
	blobs class = iota
	mosaic
)

func (c class) String() string {
	if c == blobs {
		return "blobs"
	}
	return "mosaic"
}

// blobShapes is how many shapes an n×n blobs image carries: "tens", fixed
// per size so that the work per image barely depends on the seed. The
// counts make a blobs image cost about what a mosaic of the same size
// costs, at 1 MP and at 16 MP, so a workload alternating the two classes
// has a unimodal latency distribution and a steady median.
func blobShapes(n int) int {
	if n >= 4096 {
		return 40
	}
	return 20
}

// mosaicTile is the side of one mosaic tile. At 1024² that is 16384 tiles;
// random intensities leave about 14k regions once adjacent tiles within
// the threshold merge.
const mosaicTile = 8

// ditherAmp is the blobs dither amplitude: ±2 grey levels keeps every shape
// within the segmentation threshold of 10, so shapes stay single regions
// while the split stage still sees non-constant squares.
const ditherAmp = 2

// generate draws one n×n image of class c from seed. The same (c, n, seed)
// always gives the same pixels.
func generate(c class, n int, seed uint64) *regiongrow.Image {
	g := prand.New(prand.Hash3(seed, uint64(c), uint64(n)))
	im := regiongrow.NewImage(n, n)
	if c == mosaic {
		for ty := 0; ty < n; ty += mosaicTile {
			for tx := 0; tx < n; tx += mosaicTile {
				im.FillRect(tx, ty, min(tx+mosaicTile, n), min(ty+mosaicTile, n), uint8(g.Intn(256)))
			}
		}
		return im
	}
	im.FillRect(0, 0, n, n, uint8(g.Intn(256)))
	for i := 0; i < blobShapes(n); i++ {
		x, y := g.Intn(n), g.Intn(n)
		r := n/48 + g.Intn(n/12)
		v := uint8(g.Intn(256))
		if g.Intn(2) == 0 {
			im.FillCircle(x, y, r, v)
		} else {
			im.FillRect(x-r, y-r/2, x+r, y+r/2, v)
		}
	}
	ds := g.Uint64()
	for i, p := range im.Pix {
		d := int(prand.Hash2(ds, uint64(i))%(2*ditherAmp+1)) - ditherAmp
		im.Pix[i] = uint8(min(max(int(p)+d, 0), 255))
	}
	return im
}
