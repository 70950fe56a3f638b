package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"regiongrow"
	"regiongrow/internal/core"
	"regiongrow/internal/distengine"
	"regiongrow/internal/transport"
)

// distRanks is the number of in-process workers the dist configuration
// runs on.
const distRanks = 4

// paperKinds are the configurations paper-repro runs every image under:
// the paper's five machines, then dist over transport.Mem.
var paperKinds = []regiongrow.EngineKind{
	regiongrow.CM2DataParallel8K, regiongrow.CM2DataParallel16K, regiongrow.CM5DataParallel,
	regiongrow.CM5LinearPermutation, regiongrow.CM5Async, regiongrow.Distributed,
}

// layerOf names the layer whose public function runs an engine kind.
func layerOf(k regiongrow.EngineKind) string {
	switch k {
	case regiongrow.Distributed:
		return "distengine"
	case regiongrow.CM5LinearPermutation, regiongrow.CM5Async:
		return "mpengine"
	default:
		return "dpengine"
	}
}

// paperOp is one (image, configuration) pair with its reference output.
type paperOp struct {
	name string
	im   *regiongrow.Image
	kind regiongrow.EngineKind
	cfg  regiongrow.Config
	ref  *regiongrow.Segmentation
}

// paperRig is the program state paper-repro drives: one Segmenter session
// per simulated machine, and a dist coordinator over in-process workers.
type paperRig struct {
	sessions  map[regiongrow.EngineKind]*regiongrow.Segmenter
	dist      *distengine.Engine
	listeners []transport.Listener
	wg        sync.WaitGroup
}

func newPaperRig() (*paperRig, error) {
	rig := &paperRig{sessions: make(map[regiongrow.EngineKind]*regiongrow.Segmenter)}
	for _, k := range paperKinds[:5] {
		s, err := regiongrow.New(k)
		if err != nil {
			return nil, err
		}
		rig.sessions[k] = s
	}
	mem := transport.NewMem()
	var addrs []string
	for i := 0; i < distRanks; i++ {
		l, err := mem.Listen("")
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.listeners = append(rig.listeners, l)
		addrs = append(addrs, l.Addr())
		rig.wg.Add(1)
		go func() {
			defer rig.wg.Done()
			// Serving ends with an error once close shuts the listener.
			_ = distengine.ServeWorkerOpts(l, distengine.WorkerOptions{IdleTimeout: 200 * time.Millisecond})
		}()
	}
	rig.dist = distengine.NewOver(mem, addrs)
	return rig, nil
}

// close stops the in-process workers and waits for them.
func (rig *paperRig) close() {
	for _, l := range rig.listeners {
		l.Close()
	}
	rig.wg.Wait()
}

// segment runs op through the program's entry point: the session for a
// simulated machine, the coordinator for dist.
func (rig *paperRig) segment(ctx context.Context, op *paperOp) (*regiongrow.Segmentation, error) {
	if op.kind == regiongrow.Distributed {
		return rig.dist.SegmentContext(ctx, op.im, op.cfg, core.Run{})
	}
	return rig.sessions[op.kind].Segment(ctx, op.im, op.cfg)
}

// engine returns the layer implementation behind op's configuration.
func (rig *paperRig) engine(k regiongrow.EngineKind) core.ContextEngine {
	if k == regiongrow.Distributed {
		return rig.dist
	}
	return rig.sessions[k].Engine().(core.ContextEngine)
}

// paperSeeds is how many tie seeds paper-repro cycles through, one per
// pass. The costs of the 36 ops depend on the tie draws; mixing several
// seeds in each run keeps the run's latency percentiles from hinging on
// one seed's draws, and cycling them makes ops repeat, so that their exact
// counts can be checked.
const paperSeeds = 4

// paperPass is the number of ops in one pass: six images, six
// configurations.
const paperPass = 36

// paperOps builds the passes: under each tie seed, every paper image under
// every configuration, with the per-model seed derivation the paper's
// tables use, and references from the sequential engine.
func paperOps(ctx context.Context, seeds []uint64) ([]*paperOp, error) {
	seq, err := regiongrow.New(regiongrow.SequentialEngine, regiongrow.WithBufferPool(false))
	if err != nil {
		return nil, err
	}
	var ops []*paperOp
	for _, seed := range seeds {
		base := regiongrow.DefaultConfig()
		base.Seed = seed
		for _, id := range regiongrow.AllPaperImages() {
			im := regiongrow.GeneratePaperImage(id)
			refs := make(map[regiongrow.Config]*regiongrow.Segmentation)
			for _, k := range paperKinds {
				cfg := regiongrow.ExperimentConfig(k, base)
				ref := refs[cfg]
				if ref == nil {
					if ref, err = seq.Segment(ctx, im, cfg); err != nil {
						return nil, err
					}
					refs[cfg] = ref
				}
				ops = append(ops, &paperOp{
					name: fmt.Sprintf("%s/%v/tie-seed%d", id.ShortName(), k, seed),
					im:   im, kind: k, cfg: cfg, ref: ref,
				})
			}
		}
	}
	return ops, nil
}

// checkPaper compares an op's output with its reference and its exact
// counts with the op's first run.
func checkPaper(op *paperOp, i int, seg *regiongrow.Segmentation, led *ledger) error {
	if !slices.Equal(seg.Labels, op.ref.Labels) || seg.FinalRegions != op.ref.FinalRegions {
		return fmt.Errorf("%s: labels differ from the sequential reference", op.name)
	}
	return led.check(i, op.name, layerOf(op.kind), seg)
}

func runPaper(ctx context.Context, e *env, m mode) error {
	var seeds []uint64
	for i := uint64(0); i < paperSeeds; i++ {
		seeds = append(seeds, e.derive(100+i))
	}
	ops, err := paperOps(ctx, seeds)
	if err != nil {
		return err
	}
	// The warm-up op is the same in every run, so set-up time does not
	// depend on the seed.
	warm := &paperOp{im: regiongrow.GeneratePaperImage(regiongrow.Image1NestedRects128),
		kind: regiongrow.CM2DataParallel8K, cfg: regiongrow.DefaultConfig()}
	led := newLedger()
	var rig *paperRig
	untraced := func(_, i int) (time.Duration, error) {
		op := ops[i%len(ops)]
		t0 := time.Now()
		seg, err := rig.segment(ctx, op)
		lat := time.Since(t0)
		if err == nil {
			err = checkPaper(op, i%len(ops), seg, led)
		}
		return lat, e.r.opErr(err)
	}
	setups, last, err := timeSetups(m, setupRuns, func() (*paperRig, error) {
		var err error
		if rig, err = newPaperRig(); err != nil {
			return nil, err
		}
		_, err = rig.segment(ctx, warm)
		return rig, err
	}, (*paperRig).close)
	if rig != nil {
		defer rig.close()
	}
	if err != nil {
		return err
	}
	rig = last

	if m == timed {
		mem := newPeaks(0)
		l := closedLoop(1, e.dur, paperPass, mem.sample, untraced)
		endToEnd(e.r, l, setups, mem)
		if n := led.simMismatches(); n > 0 {
			e.r.note("KNOWN DEFECT: mpengine simulated merge time differed from the op's first run in %d of %d repeats", n, led.repeats())
		}
		return nil
	}

	// Scratch buffers come from a sync.Pool, as a session's do.
	pool := sync.Pool{New: func() any { return new(core.Scratch) }}
	tracedOp := func(_, i int) (time.Duration, error) {
		op := ops[i%len(ops)]
		id := e.tr.op()
		sc := pool.Get().(*core.Scratch)
		root := e.tr.begin(id, -1, "paper.op")
		t0 := time.Now()
		sp := e.tr.begin(id, root, layerOf(op.kind)+".segment")
		seg, err := rig.engine(op.kind).SegmentContext(ctx, op.im, op.cfg, core.Run{Scratch: sc})
		e.tr.end(sp)
		lat := time.Since(t0)
		e.tr.end(root)
		pool.Put(sc)
		if err == nil {
			err = checkPaper(op, i%len(ops), seg, led)
		}
		return lat, e.r.opErr(err)
	}
	l, from := tracedLoops(e, m, paperPass, untraced, tracedOp)
	ls := e.tr.layers(func(s span) bool { return s.Start >= from })
	for _, name := range []string{"dpengine.segment", "mpengine.segment", "distengine.segment"} {
		setLayer(e.r, name, ls[name], l.elapsed)
	}
	var mpMsgs, mpWords, distMsgs, distWords int64
	var splitSim, mergeSim float64
	for _, c := range led.firsts()[:paperPass] {
		switch c.layer {
		case "mpengine":
			mpMsgs, mpWords = mpMsgs+c.messages, mpWords+c.words
		case "distengine":
			distMsgs, distWords = distMsgs+c.messages, distWords+c.words
		}
		splitSim += c.splitSim
		mergeSim += c.mergeSim
	}
	const n = paperPass
	e.r.set("mpengine.messages", float64(mpMsgs), "count", n, "sum over the first pass")
	e.r.set("mpengine.words", float64(mpWords), "count", n, "sum over the first pass")
	e.r.set("distengine.messages", float64(distMsgs), "count", n, "sum over the first pass")
	e.r.set("distengine.words", float64(distWords), "count", n, "sum over the first pass")
	e.r.set("machine.split_sim_s", splitSim, "s", n, "simulated, sum over the first pass")
	e.r.set("machine.merge_sim_s", mergeSim, "s", n, "simulated, sum over the first pass, first run of each op")
	e.r.set("machine.merge_sim_mismatch", float64(led.simMismatches()), "count", led.repeats(),
		"repeats whose mpengine simulated merge time differed from the op's first run")
	return nil
}
