package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"time"

	"regiongrow"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
)

// streamSize is the side of stream-16mp's images: 16 MP, a size at which
// the bounded-memory path's peak memory differs from the in-memory
// engines'.
const streamSize = 4096

// streamInputCount is how many uploads one pass streams, blobs and mosaic
// alternating: the cost of one 16 MP image depends on its seed by ±10%,
// and a pass over four averages that out better than a pass over two.
const streamInputCount = 4

// streamSetups is how many set-ups stream-16mp times: each includes a
// 16 MP warm-up op, so it uses fewer than the other workloads.
const streamSetups = 3

// streamInput is one encoded upload and the digest of the label raster
// the in-memory sequential engine produces for it.
type streamInput struct {
	name   string
	pgm    []byte
	digest uint64
	ref    *regiongrow.Segmentation // counts only; Labels dropped
}

func streamInputs(ctx context.Context, seed uint64, count int, cfg regiongrow.Config, hs maphash.Seed) ([]*streamInput, error) {
	seq, err := regiongrow.New(regiongrow.SequentialEngine, regiongrow.WithBufferPool(false))
	if err != nil {
		return nil, err
	}
	var out []*streamInput
	for i := 0; i < count; i++ {
		c := class(i % 2)
		im := generate(c, streamSize, seed+uint64(i))
		var b bytes.Buffer
		if err := regiongrow.WritePGM(&b, im); err != nil {
			return nil, err
		}
		ref, err := seq.Segment(ctx, im, cfg)
		if err != nil {
			return nil, err
		}
		var h maphash.Hash
		h.SetSeed(hs)
		if err := regiongrow.EncodeLabels(&h, ref); err != nil {
			return nil, err
		}
		ref.Labels, ref.Regions = nil, nil
		out = append(out, &streamInput{name: fmt.Sprintf("%v-%d/seed%d", c, streamSize, seed+uint64(i)), pgm: b.Bytes(), digest: h.Sum64(), ref: ref})
	}
	return out, nil
}

// stageClock records when the stream's observer events arrive.
type stageClock struct {
	graph, lastIter, done time.Time
}

func (s *stageClock) Observe(ev regiongrow.StageEvent) {
	now := time.Now()
	switch ev.Kind {
	case regiongrow.EventGraphDone:
		s.graph, s.lastIter = now, now
	case regiongrow.EventMergeIteration:
		s.lastIter = now
	case regiongrow.EventMergeDone:
		s.done = now
	}
}

func runStream(ctx context.Context, e *env, m mode) error {
	cfg := regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: e.derive(6)}
	hs := maphash.MakeSeed()
	count := streamInputCount
	if m == probe {
		count = 2
	}
	ins, err := streamInputs(ctx, e.derive(7), count, cfg, hs)
	if err != nil {
		return err
	}
	// The warm-up upload is the same in every run, so set-up time does not
	// depend on the seed.
	var warm bytes.Buffer
	if err := regiongrow.WritePGM(&warm, generate(mosaic, streamSize, 0)); err != nil {
		return err
	}
	led := newLedger()
	streamOp := func(traced bool) func(_, i int) (time.Duration, error) {
		return func(_, i int) (time.Duration, error) {
			in := ins[i%len(ins)]
			var h maphash.Hash
			h.SetSeed(hs)
			var clock stageClock
			opts := []regiongrow.StreamOption{
				regiongrow.WithStreamOutput(regiongrow.StreamLabels),
				regiongrow.WithStreamSpoolDir(e.tmp),
			}
			if traced {
				opts = append(opts, regiongrow.WithStreamObserver(&clock))
			}
			t0 := time.Now()
			res, err := regiongrow.SegmentStream(ctx, bytes.NewReader(in.pgm), &h, cfg, opts...)
			lat := time.Since(t0)
			if err == nil && (h.Sum64() != in.digest || res.FinalRegions != in.ref.FinalRegions) {
				err = fmt.Errorf("%s: streamed labels differ from EncodeLabels of the in-memory result", in.name)
			}
			if err == nil {
				err = led.check(i%len(ins), in.name, "stream", &regiongrow.Segmentation{
					SplitIterations: res.SplitIterations, MergeIterations: res.MergeIterations,
					SquaresAfterSplit: res.SquaresAfterSplit, FinalRegions: res.FinalRegions,
					MergesPerIter: res.MergesPerIter,
				})
			}
			if err == nil && traced {
				op := e.tr.op()
				root := e.tr.record(op, -1, "stream.op", t0, lat)
				e.tr.record(op, root, "stream.ingest", t0, clock.graph.Sub(t0))
				e.tr.record(op, root, "stream.merge", clock.graph, clock.lastIter.Sub(clock.graph))
				e.tr.record(op, root, "stream.emit", clock.lastIter, clock.done.Sub(clock.lastIter))
				err = decodeOnly(e, op, in.pgm, cfg)
			}
			return lat, e.r.opErr(err)
		}
	}
	setups, _, err := timeSetups(m, streamSetups, func() (struct{}, error) {
		_, err := regiongrow.SegmentStream(ctx, bytes.NewReader(warm.Bytes()), io.Discard, cfg,
			regiongrow.WithStreamOutput(regiongrow.StreamLabels), regiongrow.WithStreamSpoolDir(e.tmp))
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return err
	}

	if m == timed {
		mem := newPeaks(0)
		l := closedLoop(1, e.dur, len(ins), mem.sample, streamOp(false))
		endToEnd(e.r, l, setups, mem)
		return nil
	}
	l, from := tracedLoops(e, m, len(ins), streamOp(false), streamOp(true))
	ls := e.tr.layers(func(s span) bool { return s.Start >= from })
	for _, name := range []string{"stream.ingest", "stream.merge", "stream.emit", "pixmap.stream_decode"} {
		setLayer(e.r, name, ls[name], l.elapsed)
	}
	return nil
}

// decodeOnly times StreamReader.ReadRows alone over one upload, in the
// band height the streaming engine reads.
func decodeOnly(e *env, op int, pgm []byte, cfg regiongrow.Config) error {
	t0 := time.Now()
	sr, err := pixmap.NewStreamReader(bytes.NewReader(pgm))
	if err != nil {
		return err
	}
	band := quadsplit.EffectiveCap(quadsplit.Options{MaxSquare: cfg.MaxSquare}, sr.Width(), sr.Height())
	buf := make([]uint8, band*sr.Width())
	for sr.RowsRemaining() > 0 {
		if err := sr.ReadRows(buf, min(band, sr.RowsRemaining())); err != nil {
			return err
		}
	}
	e.tr.record(op, -1, "pixmap.stream_decode", t0, time.Since(t0))
	return nil
}
