package stream

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"regiongrow/internal/core"
	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/rag"
)

// Output selects what the streaming engine emits.
type Output int

const (
	// OutputRecolour emits a binary PGM painting every final region the
	// midpoint of its intensity interval — byte-identical to recolouring
	// the sequential engine's segmentation and writing it with WritePGM.
	OutputRecolour Output = iota
	// OutputLabels emits the raw label raster in the format of
	// EncodeLabels — byte-identical to encoding the sequential engine's
	// Labels.
	OutputLabels
)

// Options tune the streaming driver. The zero value is ready to use.
type Options struct {
	// BandRows is the desired band height in rows. It is rounded down to a
	// multiple of the effective split cap and raised to at least one cap —
	// the alignment that makes band-local splits equal the global split.
	// 0 selects one cap per band, the minimum-memory configuration.
	BandRows int
	// SpoolDir hosts the square-spool temp file ("" = the system default).
	SpoolDir string
	// Output selects the emitted format (default OutputRecolour).
	Output Output
}

// Result reports what a streaming run did. It mirrors the statistics of
// core.Segmentation without the per-pixel label array, which never exists
// in memory on this path.
type Result struct {
	W, H  int
	Bands int

	SplitIterations   int // max over bands, the parallel-engine convention
	MergeIterations   int
	SquaresAfterSplit int
	FinalRegions      int

	MergesPerIter     []int
	ForcedResolutions int

	SplitWall, MergeWall time.Duration
}

// spoolRecord is one spilled square: 8 little-endian bytes on disk.
const spoolRecordSize = 8

// Segment streams a PGM from r, segments it under cfg, and writes the
// result to w in the format opt.Output selects. Cancellation and progress
// follow the standard engine contract: ctx is checked at every band and
// merge round, stage events go to run.Observer.
//
// Peak memory is O(band + squares): one pixel band, the frontier strip,
// and the region graph — never the full raster or label map. Labels are
// byte-identical to the sequential engine's for the same cfg.
func Segment(ctx context.Context, r io.Reader, w io.Writer, cfg core.Config, run core.Run, opt Options) (*Result, error) {
	sr, err := pixmap.NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	width, height := sr.Width(), sr.Height()
	res := &Result{W: width, H: height}
	if width == 0 || height == 0 {
		// Degenerate geometry: emit the header of an empty raster, exactly
		// what the in-memory path would write for the empty segmentation.
		return res, writeEmpty(w, width, height, opt.Output)
	}

	crit := cfg.Criterion()
	cap := quadsplit.EffectiveCap(quadsplit.Options{MaxSquare: cfg.MaxSquare}, width, height)
	bandRows := max(opt.BandRows/cap, 1) * cap

	spool, err := os.CreateTemp(opt.SpoolDir, "regiongrow-stream-*.spool")
	if err != nil {
		return nil, fmt.Errorf("stream: creating spool: %w", err)
	}
	defer func() {
		spool.Close()
		os.Remove(spool.Name())
	}()

	g := rag.NewGraph(crit)
	bandSquares, err := ingest(ctx, sr, spool, g, res, cfg, run, cap, bandRows)
	if err != nil {
		return nil, err
	}
	run.Emit(core.StageEvent{Kind: core.EventGraphDone, Squares: res.SquaresAfterSplit})

	t1 := time.Now() //vet:timing stage wall-time for Result; never reaches labels or output bytes
	asg := rag.NewAssignments()
	mstats, err := rag.DriveCtx(ctx, cfg.Tie,
		g.HasActive,
		func(effective rag.TiePolicy, iter int) int {
			merged := g.MergeIteration(effective, cfg.Seed, iter, asg)
			run.Emit(core.StageEvent{Kind: core.EventMergeIteration, Iteration: iter, Merges: merged})
			return merged
		})
	if err != nil {
		return nil, err
	}
	res.MergeIterations = mstats.Iterations
	res.MergesPerIter = mstats.MergesPerIter
	res.ForcedResolutions = mstats.ForcedResolutions
	res.FinalRegions = g.NumVertices()

	if err := emit(ctx, w, spool, g, asg, res, bandSquares, bandRows, opt.Output); err != nil {
		return nil, err
	}
	res.MergeWall = time.Since(t1) //vet:timing stage wall-time for Result; never reaches labels or output bytes
	run.Emit(core.StageEvent{Kind: core.EventMergeDone, Iterations: mstats.Iterations, Regions: res.FinalRegions})
	return res, nil
}

// bandSummary is what the split stage hands the graph stage for one band:
// the band's squares in raster order, its adjacencies — intra-band pairs
// from the run-length scan plus the pairs stitched against the previous
// band's last row — and its split iteration count. IDs are global; none
// of the band's pixels or labels cross over.
type bandSummary struct {
	y0         int
	iterations int
	squares    []quadsplit.Square // band-local coordinates
	edges      []rag.Edge
}

// ingest runs pass 1 as a two-stage pipeline. A producer goroutine reads,
// splits and summarises the bands in order (produce); the calling
// goroutine takes the summaries in that same order over one FIFO channel,
// adds the squares to the global RAG in raster order — so slot order, and
// with it every merge decision, is independent of the scheduling —
// spills them to the spool, and adds the band's edges. Two summaries
// circulate between the stages, so the split of band k+1 overlaps the
// graph assembly of band k. It returns the per-band square counts that
// delimit the spool on replay.
func ingest(ctx context.Context, sr *pixmap.StreamReader, spool *os.File, g *rag.Graph, res *Result, cfg core.Config, run core.Run, cap, bandRows int) ([]int, error) {
	width := res.W
	run.Emit(core.StageEvent{Kind: core.EventSplitStart})
	t0 := time.Now() //vet:timing stage wall-time for Result; never reaches labels or output bytes

	sc := run.SplitScratch()
	if sc == nil {
		sc = new(quadsplit.Scratch)
	}
	// free holds every summary not in flight: two, so the producer can
	// fill one while the caller drains the other.
	free := make(chan *bandSummary, 2)
	free <- new(bandSummary)
	free <- new(bandSummary)
	full := make(chan *bandSummary, 1)
	pctx, cancel := context.WithCancel(ctx)
	var perr error
	go func() {
		defer close(full)
		perr = produce(pctx, sr, cfg.Criterion(), sc, cap, bandRows, free, full)
	}()
	// Every return path stops the producer and waits for it to close
	// full, so no goroutine outlives the call.
	defer func() {
		cancel()
		for range full {
		}
	}()

	sw := bufio.NewWriterSize(spool, 1<<16)
	var recs []byte
	var bandSquares []int
	for sum := range full {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		recs = recs[:0]
		for _, sq := range sum.squares {
			gid := int32((sum.y0+sq.Y)*width + sq.X)
			g.AddVertex(gid, sq.IV)
			recs = binary.LittleEndian.AppendUint32(recs, uint32(gid))
			recs = binary.LittleEndian.AppendUint32(recs, uint32(sq.Size))
		}
		if _, err := sw.Write(recs); err != nil {
			return nil, fmt.Errorf("stream: writing spool: %w", err)
		}
		for _, e := range sum.edges {
			g.AddEdge(e.A, e.B)
		}
		res.SplitIterations = max(res.SplitIterations, sum.iterations)
		res.SquaresAfterSplit += len(sum.squares)
		res.Bands++
		bandSquares = append(bandSquares, len(sum.squares))
		free <- sum // never blocks: free has room for every summary
	}
	if perr != nil {
		return nil, perr
	}
	if err := sw.Flush(); err != nil {
		return nil, fmt.Errorf("stream: flushing spool: %w", err)
	}
	res.SplitWall = time.Since(t0) //vet:timing stage wall-time for Result; never reaches labels or output bytes
	run.Emit(core.StageEvent{Kind: core.EventSplitDone, Iterations: res.SplitIterations, Squares: res.SquaresAfterSplit})
	return bandSquares, nil
}

// produce is the pipeline's split stage. It owns the reader, the split
// scratch and the one pixel band: for each band in order it reads the
// rows, splits them, and fills a summary taken from free with the band's
// squares and global-ID edges, then hands it on through full. It returns
// when the image is done, on the first error, or when ctx is cancelled.
func produce(ctx context.Context, sr *pixmap.StreamReader, crit homog.Criterion, sc *quadsplit.Scratch, cap, bandRows int, free <-chan *bandSummary, full chan<- *bandSummary) error {
	width, height := sr.Width(), sr.Height()
	bandPix := make([]uint8, width*bandRows)
	frontier := make([]int32, width) // previous band's last row, global labels
	first := make([]int32, width)
	for y0 := 0; y0 < height; {
		if err := ctx.Err(); err != nil {
			return err
		}
		bh := min(bandRows, height-y0)
		if err := sr.ReadRows(bandPix, bh); err != nil {
			return err
		}
		band := &pixmap.Image{W: width, H: bh, Pix: bandPix[:width*bh]}
		// The cap was resolved against the full image; a short final band
		// may legally re-resolve it smaller (see distengine's identical
		// local split), so the band split equals the global split within
		// the band.
		sp, err := quadsplit.SplitCtx(ctx, band, crit, quadsplit.Options{MaxSquare: cap, Scratch: sc})
		if err != nil {
			return err
		}
		var sum *bandSummary
		select {
		case sum = <-free:
		case <-ctx.Done():
			return ctx.Err()
		}
		sum.y0, sum.iterations = y0, sp.Iterations
		sum.squares = sp.AppendSquares(sum.squares[:0], band)

		// Intra-band adjacency, shifted into global ID space, then the
		// stitch against the previous band's boundary row.
		off := int32(y0 * width)
		sum.edges = rag.AppendEdges(sum.edges[:0], sp.Labels, width, 0, bh)
		for i := range sum.edges {
			sum.edges[i].A += off
			sum.edges[i].B += off
		}
		if y0 > 0 {
			for lx, lab := range sp.Labels[:width] {
				first[lx] = lab + off
			}
			sum.edges = rag.AppendVerticalEdges(sum.edges, frontier, first)
		}
		for lx, lab := range sp.Labels[(bh-1)*width : bh*width] {
			frontier[lx] = lab + off
		}

		select {
		case full <- sum:
		case <-ctx.Done():
			return ctx.Err()
		}
		y0 += bh
	}
	return nil
}

// emit runs pass 2: replay the spool band by band, resolve every square's
// final region through the merge assignments, and stream the output.
func emit(ctx context.Context, w io.Writer, spool *os.File, g *rag.Graph, asg *rag.Assignments, res *Result, bandSquares []int, bandRows int, output Output) error {
	width, height := res.W, res.H
	if _, err := spool.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("stream: rewinding spool: %w", err)
	}
	rd := bufio.NewReaderSize(spool, 1<<16)

	// Shade table for recoloured output. Graph vertex intervals are exact
	// pixel unions (square intervals union under contraction), so the
	// midpoints match Recolour on the in-memory segmentation.
	var shade map[int32]uint8
	if output == OutputRecolour {
		shade = make(map[int32]uint8, g.NumVertices())
		//vet:noctx bounded in-memory scan over graph slots; the per-row emit loop below carries the ctx checks
		for s := 0; s < g.Slots(); s++ {
			if !g.SlotAlive(s) {
				continue
			}
			iv := g.SlotInterval(s)
			shade[g.SlotID(s)] = uint8((int(iv.Lo) + int(iv.Hi)) / 2)
		}
	}

	var pgm *pixmap.StreamWriter
	var enc *labelEncoder
	var outPix []uint8
	var outLab []int32
	switch output {
	case OutputRecolour:
		var err error
		if pgm, err = pixmap.NewStreamWriter(w, width, height); err != nil {
			return err
		}
		outPix = make([]uint8, width*bandRows)
	case OutputLabels:
		var err error
		if enc, err = newLabelEncoder(w, width, height); err != nil {
			return err
		}
		outLab = make([]int32, width*bandRows)
	default:
		return fmt.Errorf("stream: unknown output format %d", int(output))
	}

	find := make(map[int32]int32, g.NumVertices())
	var recs []byte
	y0 := 0
	for bi, count := range bandSquares {
		if err := ctx.Err(); err != nil {
			return err
		}
		bh := min(bandRows, height-y0)
		recs = slices.Grow(recs[:0], count*spoolRecordSize)[:count*spoolRecordSize]
		if _, err := io.ReadFull(rd, recs); err != nil {
			return fmt.Errorf("stream: reading spool band %d: %w", bi, err)
		}
		for rec := recs; len(rec) > 0; rec = rec[spoolRecordSize:] {
			gid := int32(binary.LittleEndian.Uint32(rec[0:4]))
			size := int(binary.LittleEndian.Uint32(rec[4:8]))
			final, ok := find[gid]
			if !ok {
				final = asg.Find(gid)
				find[gid] = final
			}
			x := int(gid) % width
			ly := int(gid)/width - y0
			if ly < 0 || ly+size > bh || x+size > width {
				return fmt.Errorf("stream: spool square (%d,%d,%d) outside band %d", x, ly, size, bi)
			}
			if output == OutputRecolour {
				s := shade[final]
				for yy := ly; yy < ly+size; yy++ {
					row := yy * width
					for xx := x; xx < x+size; xx++ {
						outPix[row+xx] = s
					}
				}
			} else {
				for yy := ly; yy < ly+size; yy++ {
					row := yy * width
					for xx := x; xx < x+size; xx++ {
						outLab[row+xx] = final
					}
				}
			}
		}
		if output == OutputRecolour {
			if err := pgm.WriteRows(outPix[:bh*width]); err != nil {
				return err
			}
		} else if err := enc.writeRows(outLab[:bh*width]); err != nil {
			return err
		}
		y0 += bh
	}
	if output == OutputRecolour {
		return pgm.Close()
	}
	return enc.flush()
}

// writeEmpty emits the output header of a zero-pixel image.
func writeEmpty(w io.Writer, width, height int, output Output) error {
	switch output {
	case OutputRecolour:
		_, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", width, height)
		return err
	case OutputLabels:
		return writeLabelHeader(w, width, height)
	default:
		return fmt.Errorf("stream: unknown output format %d", int(output))
	}
}

// writeLabelHeader writes the label-raster magic and geometry.
func writeLabelHeader(w io.Writer, width, height int) error {
	if _, err := fmt.Fprintf(w, "RGLS\n%d %d\n", width, height); err != nil {
		return fmt.Errorf("stream: writing label header: %w", err)
	}
	return nil
}

// EncodeLabels writes an in-memory label raster in the OutputLabels wire
// format: "RGLS\n<w> <h>\n" then W·H little-endian int32 region IDs in
// raster order. It is how the in-memory engines' results are compared
// byte-for-byte against a streamed OutputLabels run.
func EncodeLabels(w io.Writer, width, height int, labels []int32) error {
	if len(labels) != width*height {
		return fmt.Errorf("stream: %d labels for %dx%d raster", len(labels), width, height)
	}
	enc, err := newLabelEncoder(w, width, height)
	if err != nil {
		return err
	}
	if err := enc.writeRows(labels); err != nil {
		return err
	}
	return enc.flush()
}

// labelEncoder writes a label raster in the OutputLabels wire format — the
// header, then W·H little-endian int32 region IDs in raster order — one
// row at a time through a reused 4·W byte buffer. EncodeLabels and the
// streaming emit share it, so the two can only produce the same bytes.
type labelEncoder struct {
	bw  *bufio.Writer
	row []byte
}

// newLabelEncoder writes the header of a width×height raster to w and
// returns the encoder for its rows.
func newLabelEncoder(w io.Writer, width, height int) (*labelEncoder, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeLabelHeader(bw, width, height); err != nil {
		return nil, err
	}
	return &labelEncoder{bw: bw, row: make([]byte, 4*max(width, 1))}, nil
}

// writeRows encodes the next labels in raster order, one row-sized chunk
// per Write.
func (e *labelEncoder) writeRows(labels []int32) error {
	for len(labels) > 0 {
		n := min(len(labels), len(e.row)/4)
		for i, lab := range labels[:n] {
			binary.LittleEndian.PutUint32(e.row[4*i:], uint32(lab))
		}
		if _, err := e.bw.Write(e.row[:4*n]); err != nil {
			return fmt.Errorf("stream: writing labels: %w", err)
		}
		labels = labels[n:]
	}
	return nil
}

// flush writes out everything buffered.
func (e *labelEncoder) flush() error {
	if err := e.bw.Flush(); err != nil {
		return fmt.Errorf("stream: flushing labels: %w", err)
	}
	return nil
}
