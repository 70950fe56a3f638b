package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"regiongrow"
	"regiongrow/internal/core"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/rag"
	"regiongrow/internal/shmengine"
)

// libSize is the side of large-library's images: 1 MP, so pixels plus
// labels (about 5 MB) exceed a core's L2.
const libSize = 1024

// libInputs is how many images one large-library pass cycles through,
// alternating blobs and mosaic.
const libInputs = 8

// libInput is one generated image with its reference segmentation.
type libInput struct {
	name string
	im   *regiongrow.Image
	ref  *regiongrow.Segmentation
}

// genInputs generates count n×n images, alternating the classes, and
// segments each with a fresh unpooled sequential session for reference.
func genInputs(ctx context.Context, seed uint64, n, count int, cfg regiongrow.Config) ([]*libInput, error) {
	seq, err := regiongrow.New(regiongrow.SequentialEngine, regiongrow.WithBufferPool(false))
	if err != nil {
		return nil, err
	}
	var ins []*libInput
	for i := 0; i < count; i++ {
		c := class(i % 2)
		s := seed + uint64(i)
		im := generate(c, n, s)
		ref, err := seq.Segment(ctx, im, cfg)
		if err != nil {
			return nil, err
		}
		ins = append(ins, &libInput{name: fmt.Sprintf("%v-%d/seed%d", c, n, s), im: im, ref: ref})
	}
	return ins, nil
}

// checkLabels compares an output with its input's reference and its exact
// counts with the input's first run.
func checkLabels(in *libInput, key int, seg *regiongrow.Segmentation, led *ledger) error {
	if !slices.Equal(seg.Labels, in.ref.Labels) || seg.FinalRegions != in.ref.FinalRegions {
		return fmt.Errorf("%s: labels differ from the sequential reference", in.name)
	}
	return led.check(key, in.name, "core", seg)
}

// pipeline replicates the sequential engine stage by stage, calling each
// layer's public function inside its own span. It must produce exactly
// the labels Segmenter.Segment does.
func pipeline(ctx context.Context, tr *tracer, parent, op int, im *regiongrow.Image, cfg regiongrow.Config, sc *quadsplit.Scratch) (*regiongrow.Segmentation, error) {
	crit := cfg.Criterion()
	sp := tr.begin(op, parent, "quadsplit.split")
	res, err := quadsplit.SplitCtx(ctx, im, crit, quadsplit.Options{MaxSquare: cfg.MaxSquare, Scratch: sc})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(op, parent, "rag.build")
	g, err := rag.BuildFromLabelsCtx(ctx, im, res.Labels, crit)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(op, parent, "rag.merge")
	asg := rag.NewAssignments()
	st, err := rag.DriveCtx(ctx, cfg.Tie, g.HasActive, func(eff rag.TiePolicy, iter int) int {
		return g.MergeIteration(eff, cfg.Seed, iter, asg)
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(op, parent, "rag.relabel")
	labels := asg.Relabel(res.Labels)
	tr.end(sp)
	sp = tr.begin(op, parent, "core.finalize")
	seg := &core.Segmentation{
		W: im.W, H: im.H,
		Labels:            labels,
		SplitIterations:   res.Iterations,
		MergeIterations:   st.Iterations,
		SquaresAfterSplit: res.NumSquares,
		MergesPerIter:     st.MergesPerIter,
		ForcedResolutions: st.ForcedResolutions,
	}
	seg.FillRegions(im)
	tr.end(sp)
	return seg, nil
}

// libLayers are the spans the replicated pipeline records.
var libLayers = []string{"quadsplit.split", "rag.build", "rag.merge", "rag.relabel", "core.finalize"}

func runLibrary(ctx context.Context, e *env, m mode) error {
	cfg := regiongrow.Config{Threshold: 10, Tie: regiongrow.RandomTie, Seed: e.derive(2)}
	count := libInputs
	if m == probe {
		count = 2
	}
	ins, err := genInputs(ctx, e.derive(3), libSize, count, cfg)
	if err != nil {
		return err
	}
	// The warm-up input is the same in every run, so set-up time does not
	// depend on the seed.
	warm := generate(blobs, libSize, 0)
	led := newLedger()
	var sess *regiongrow.Segmenter
	untraced := func(_, i int) (time.Duration, error) {
		in := ins[i%count]
		t0 := time.Now()
		seg, err := sess.Segment(ctx, in.im, cfg)
		lat := time.Since(t0)
		if err == nil {
			err = checkLabels(in, i%count, seg, led)
		}
		return lat, e.r.opErr(err)
	}
	setups, _, err := timeSetups(m, setupRuns, func() (*regiongrow.Segmenter, error) {
		var err error
		if sess, err = regiongrow.New(regiongrow.SequentialEngine); err != nil {
			return nil, err
		}
		_, err = sess.Segment(ctx, warm, cfg)
		return sess, err
	}, func(*regiongrow.Segmenter) {})
	if err != nil {
		return err
	}

	if m == timed {
		mem := newPeaks(0)
		l := closedLoop(1, e.dur, count, mem.sample, untraced)
		endToEnd(e.r, l, setups, mem)
		return nil
	}

	// Split buffers come from a sync.Pool, as the session's do, so the
	// traced pipeline allocates what Segmenter.Segment allocates.
	pool := sync.Pool{New: func() any { return new(quadsplit.Scratch) }}
	tracedOp := func(_, i int) (time.Duration, error) {
		in := ins[i%count]
		op := e.tr.op()
		sc := pool.Get().(*quadsplit.Scratch)
		t0 := time.Now()
		root := e.tr.begin(op, -1, "library.op")
		seg, err := pipeline(ctx, e.tr, root, op, in.im, cfg, sc)
		e.tr.end(root)
		lat := time.Since(t0)
		pool.Put(sc)
		if err == nil {
			err = checkLabels(in, i%count, seg, led)
		}
		return lat, e.r.opErr(err)
	}
	l, from := tracedLoops(e, m, count, untraced, tracedOp)
	reconcile(e, from)
	ls := e.tr.layers(func(s span) bool { return s.Start >= from })
	for _, name := range libLayers {
		setLayer(e.r, name, ls[name], l.elapsed)
	}
	var squares, iters, regions int
	for _, c := range led.firsts() {
		squares += c.squares
		iters += c.mergeIters
		regions += c.regions
	}
	e.r.set("quadsplit.squares", float64(squares), "count", count, "sum over one pass")
	e.r.set("rag.merge_iters", float64(iters), "count", count, "sum over one pass")
	e.r.set("core.regions", float64(regions), "count", count, "sum over one pass")

	var allocs []float64
	for _, in := range ins {
		b0 := allocBytes()
		if _, err := sess.Segment(ctx, in.im, cfg); err != nil {
			return err
		}
		allocs = append(allocs, float64(allocBytes()-b0)/(1<<20))
	}
	e.r.set("core.alloc_mb", median(allocs), "MB", len(allocs), "allocated per Segmenter.Segment call, median")
	return nativeProbe(ctx, e, ins[:2], cfg)
}

// reconcile checks that the layers' self times account for each
// operation's wall time within 5%: what the root span keeps for itself is
// the benchmark's own glue.
func reconcile(e *env, from int64) {
	e.tr.mu.Lock()
	self := selfTimes(e.tr.spans)
	var cover []float64
	for i, s := range e.tr.spans {
		if s.Name == "library.op" && s.Start >= from && s.End >= 0 {
			cover = append(cover, 1-float64(self[i])/float64(s.dur()))
		}
	}
	e.tr.mu.Unlock()
	med := median(cover)
	e.r.set("trace.reconcile", med, "ratio", len(cover),
		fmt.Sprintf("layer self times over op wall, median; lowest %.4f", slices.Min(cover)))
	if !(med >= 0.95) {
		e.r.problem("layer self times cover only %.3f of large-library op wall time (want ≥ 0.95)", med)
	}
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// nativeProbe times the native engine against the sequential one at
// GOMAXPROCS=2 on 1 MP inputs (the workload's own) and on 4 MP inputs.
func nativeProbe(ctx context.Context, e *env, ins []*libInput, cfg regiongrow.Config) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	big, err := genInputs(ctx, e.derive(4), 2*libSize, 2, cfg)
	if err != nil {
		return err
	}
	nat := shmengine.New()
	seq := core.Sequential{}
	// both returns the sequential and native latencies in ms, alternating
	// the engines. A wrong native output is a failed op; it leaves the
	// metrics unmeasured, which marks the run incorrect.
	both := func(set []*libInput, reps int) (seqMs, natMs []float64, ok bool) {
		for r := 0; r < reps; r++ {
			for _, in := range set {
				t0 := time.Now()
				_, err := seq.SegmentContext(ctx, in.im, cfg, core.Run{})
				seqMs = append(seqMs, float64(time.Since(t0))/1e6)
				op := e.tr.op()
				t0 = time.Now()
				sp := e.tr.begin(op, -1, "shmengine.segment")
				seg, nerr := nat.SegmentContext(ctx, in.im, cfg, core.Run{})
				e.tr.end(sp)
				natMs = append(natMs, float64(time.Since(t0))/1e6)
				if err == nil {
					err = nerr
				}
				if err == nil && !slices.Equal(seg.Labels, in.ref.Labels) {
					err = fmt.Errorf("%s: native labels differ from the sequential reference", in.name)
				}
				if err != nil {
					e.r.ops(2, 1)
					_ = e.r.opErr(err)
					return nil, nil, false
				}
				e.r.ops(2, 0)
			}
		}
		return seqMs, natMs, true
	}
	s1, n1, ok := both(ins, 3)
	if !ok {
		return nil
	}
	s4, n4, ok := both(big, 2)
	if !ok {
		return nil
	}
	const note = "sequential over native median time, GOMAXPROCS=2"
	e.r.set("shmengine.segment_ms", median(n1), "ms", len(n1), "native engine on the 1 MP inputs, GOMAXPROCS=2")
	e.r.set("shmengine.speedup_1mp", median(s1)/median(n1), "x", len(n1), note+", 1 MP")
	e.r.set("shmengine.speedup", median(s4)/median(n4), "x", len(n4), note+", 4 MP")
	return nil
}
