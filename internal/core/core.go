package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/rag"
	"regiongrow/internal/unionfind"
)

// Config parameterises a segmentation run.
type Config struct {
	// Threshold T of the pixel-range homogeneity criterion.
	Threshold int
	// Tie selects the tie-breaking policy of the merge stage.
	Tie rag.TiePolicy
	// Seed drives the Random tie policy. Runs with equal seeds are
	// byte-identical.
	Seed uint64
	// MaxSquare caps split-stage square size; see quadsplit.Options.
	MaxSquare int
}

// Criterion returns the homogeneity criterion implied by the config.
func (c Config) Criterion() homog.Criterion { return homog.NewRange(c.Threshold) }

// RegionInfo summarises one final region.
type RegionInfo struct {
	ID   int32
	IV   homog.Interval
	Area int
}

// Segmentation is the result of a full split+merge run.
type Segmentation struct {
	W, H int
	// Labels assigns every pixel the ID of its final region (the smallest
	// linear pixel index among the region's constituent squares' origins).
	Labels []int32
	// Regions lists final regions in ascending ID order.
	Regions []RegionInfo

	// The statistics the paper's tables report.
	SplitIterations   int
	MergeIterations   int
	SquaresAfterSplit int
	FinalRegions      int

	// MergesPerIter records merges in each merge iteration (the paper's
	// randomness discussion is about this distribution).
	MergesPerIter []int
	// ForcedResolutions counts forced SmallestID rounds under Random.
	ForcedResolutions int

	// Wall-clock stage durations of this process.
	SplitWall, MergeWall time.Duration
	// Simulated stage times in seconds under a machine cost model; zero
	// for the sequential engine, which models no machine.
	SplitSim, MergeSim float64

	// Comm holds communication counters for the message-passing engine
	// (nil for other engines).
	Comm *CommStats
}

// CommStats counts the communication a message-passing run performed.
type CommStats struct {
	// Messages and Words are point-to-point totals across all nodes.
	Messages, Words int64
	// Barriers, Gathers, and Reduces count collective episodes.
	Barriers, Gathers, Reduces int64
	// LPSteps counts Linear Permutation ring steps (zero under Async).
	LPSteps int64
	// Exchanges counts irregular all-to-many exchanges.
	Exchanges int64
	// Retries counts whole-job re-runs the distributed engine performed
	// after losing a worker mid-job (zero everywhere else). The other
	// counters describe the final, successful attempt only.
	Retries int64
}

// Engine runs the split-and-merge algorithm in one of the paper's
// programming models.
type Engine interface {
	// Name identifies the engine in experiment records.
	Name() string
	// Segment produces the segmentation of the image under cfg.
	Segment(im *pixmap.Image, cfg Config) (*Segmentation, error)
}

// Sequential is the single-threaded reference engine.
type Sequential struct{}

// Name implements Engine.
func (Sequential) Name() string { return "sequential" }

// Segment implements Engine: sequential split, then the shared RAG merge
// kernel, then relabeling.
func (e Sequential) Segment(im *pixmap.Image, cfg Config) (*Segmentation, error) {
	return e.SegmentContext(context.Background(), im, cfg, Run{})
}

// SegmentContext implements ContextEngine: the same pipeline as Segment
// with cancellation checked at every split pass and merge round, stage
// events on run.Observer, and split buffers drawn from run.Scratch.
func (Sequential) SegmentContext(ctx context.Context, im *pixmap.Image, cfg Config, run Run) (*Segmentation, error) {
	crit := cfg.Criterion()

	run.Emit(StageEvent{Kind: EventSplitStart})
	t0 := time.Now() //vet:timing stage wall-time for Stats; never reaches labels or wire bytes
	sp, err := quadsplit.SplitCtx(ctx, im, crit,
		quadsplit.Options{MaxSquare: cfg.MaxSquare, Scratch: run.SplitScratch()})
	if err != nil {
		return nil, err
	}
	splitWall := time.Since(t0) //vet:timing stage wall-time for Stats; never reaches labels or wire bytes
	run.Emit(StageEvent{Kind: EventSplitDone, Iterations: sp.Iterations, Squares: sp.NumSquares})

	t1 := time.Now() //vet:timing stage wall-time for Stats; never reaches labels or wire bytes
	g, err := rag.BuildFromLabelsCtx(ctx, im, sp.Labels, crit)
	if err != nil {
		return nil, err
	}
	run.Emit(StageEvent{Kind: EventGraphDone, Squares: sp.NumSquares})
	asg := rag.NewAssignments()
	stats, err := rag.DriveCtx(ctx, cfg.Tie,
		g.HasActive,
		func(effective rag.TiePolicy, iter int) int {
			merged := g.MergeIteration(effective, cfg.Seed, iter, asg)
			run.Emit(StageEvent{Kind: EventMergeIteration, Iteration: iter, Merges: merged})
			return merged
		})
	if err != nil {
		return nil, err
	}
	labels := asg.Relabel(sp.Labels)
	mergeWall := time.Since(t1) //vet:timing stage wall-time for Stats; never reaches labels or wire bytes

	seg := &Segmentation{
		W: im.W, H: im.H,
		Labels:            labels,
		SplitIterations:   sp.Iterations,
		MergeIterations:   stats.Iterations,
		SquaresAfterSplit: sp.NumSquares,
		MergesPerIter:     stats.MergesPerIter,
		ForcedResolutions: stats.ForcedResolutions,
		SplitWall:         splitWall,
		MergeWall:         mergeWall,
	}
	seg.FillRegions(im)
	run.Emit(StageEvent{Kind: EventMergeDone, Iterations: stats.Iterations, Regions: seg.FinalRegions})
	return seg, nil
}

// FillRegions recomputes the Regions list and FinalRegions count from the
// label array. Engines call it after producing Labels.
//
// Labels must be anchors, as every engine's are: each region's label is
// the linear index of its first pixel in raster order. A region is then
// appended where labels[i] == i, already in ID order, and is looked up
// only where the label changes. FillRegions panics on a label that is not
// an anchor.
func (s *Segmentation) FillRegions(im *pixmap.Image) {
	n := 0
	for i, lab := range s.Labels {
		if int(lab) == i {
			n++
		}
	}
	regions := s.Regions[:0]
	if cap(regions) < n {
		regions = make([]RegionInfo, 0, n)
	}
	cur := -1
	for i0 := 0; i0 < len(s.Labels); {
		// [i0, i1) is a maximal run of one label in raster order.
		lab := s.Labels[i0]
		i1 := i0 + 1
		for i1 < len(s.Labels) && s.Labels[i1] == lab {
			i1++
		}
		if int(lab) == i0 {
			regions = append(regions, RegionInfo{ID: lab, IV: homog.Empty()})
			cur = len(regions) - 1
		} else {
			cur = findRegion(regions, cur, lab)
		}
		r := &regions[cur]
		r.Area += i1 - i0
		lo, hi := r.IV.Lo, r.IV.Hi
		for _, v := range im.Pix[i0:i1] {
			lo, hi = min(lo, v), max(hi, v)
		}
		r.IV = homog.Interval{Lo: lo, Hi: hi}
		i0 = i1
	}
	s.Regions = regions
	s.FinalRegions = len(regions)
}

// findRegion returns the index of region lab in regions, which holds the
// regions met so far in ascending ID order; from is the index of the
// region met last, or -1. It panics if lab is not there, since then lab
// is not an anchor.
func findRegion(regions []RegionInfo, from int, lab int32) int {
	// The next run along a row most often belongs to the next region.
	if k := from + 1; k < len(regions) && regions[k].ID == lab {
		return k
	}
	k, ok := slices.BinarySearchFunc(regions, lab, func(r RegionInfo, lab int32) int { return cmp.Compare(r.ID, lab) })
	if !ok {
		panic(fmt.Sprintf("core: label %d is not an anchor (the index of its region's first pixel)", lab))
	}
	return k
}

// EqualLabels reports whether two segmentations assign identical labels.
func (s *Segmentation) EqualLabels(other *Segmentation) bool {
	if s.W != other.W || s.H != other.H || len(s.Labels) != len(other.Labels) {
		return false
	}
	for i, l := range s.Labels {
		if l != other.Labels[i] {
			return false
		}
	}
	return true
}

// SerialBaseline is the merge-stage baseline of the paper's complexity
// section: one merge per iteration (the globally best active edge), the
// R−1-iteration worst case against which the parallel mutual-merge
// kernel's log R best case is measured. The split stage is identical to
// the Sequential engine's.
type SerialBaseline struct{}

// Name implements Engine.
func (SerialBaseline) Name() string { return "serial-baseline" }

// Segment implements Engine.
func (e SerialBaseline) Segment(im *pixmap.Image, cfg Config) (*Segmentation, error) {
	return e.SegmentContext(context.Background(), im, cfg, Run{})
}

// SegmentContext implements ContextEngine for the baseline: cancellation
// at every one-merge iteration, the same stage events as the real engines.
func (SerialBaseline) SegmentContext(ctx context.Context, im *pixmap.Image, cfg Config, run Run) (*Segmentation, error) {
	crit := cfg.Criterion()
	run.Emit(StageEvent{Kind: EventSplitStart})
	t0 := time.Now() //vet:timing stage wall-time for Stats; never reaches labels or wire bytes
	sp, err := quadsplit.SplitCtx(ctx, im, crit,
		quadsplit.Options{MaxSquare: cfg.MaxSquare, Scratch: run.SplitScratch()})
	if err != nil {
		return nil, err
	}
	splitWall := time.Since(t0) //vet:timing stage wall-time for Stats; never reaches labels or wire bytes
	run.Emit(StageEvent{Kind: EventSplitDone, Iterations: sp.Iterations, Squares: sp.NumSquares})

	t1 := time.Now() //vet:timing stage wall-time for Stats; never reaches labels or wire bytes
	g, err := rag.BuildFromLabelsCtx(ctx, im, sp.Labels, crit)
	if err != nil {
		return nil, err
	}
	run.Emit(StageEvent{Kind: EventGraphDone, Squares: sp.NumSquares})
	stats, asg, err := g.MergeSerialCtx(ctx)
	if err != nil {
		return nil, err
	}
	labels := asg.Relabel(sp.Labels)
	mergeWall := time.Since(t1) //vet:timing stage wall-time for Stats; never reaches labels or wire bytes

	seg := &Segmentation{
		W: im.W, H: im.H,
		Labels:            labels,
		SplitIterations:   sp.Iterations,
		MergeIterations:   stats.Iterations,
		SquaresAfterSplit: sp.NumSquares,
		MergesPerIter:     stats.MergesPerIter,
		SplitWall:         splitWall,
		MergeWall:         mergeWall,
	}
	seg.FillRegions(im)
	run.Emit(StageEvent{Kind: EventMergeDone, Iterations: stats.Iterations, Regions: seg.FinalRegions})
	return seg, nil
}

// Compile-time contract: both reference engines are context-aware.
var (
	_ ContextEngine = Sequential{}
	_ ContextEngine = SerialBaseline{}
)

// Validate checks the postconditions of a completed segmentation against
// the source image:
//
//  1. labels form a partition and each region's ID is the minimum pixel
//     index at which its label occurs;
//  2. every region is 4-connected;
//  3. every region satisfies the homogeneity criterion over its actual
//     pixels;
//  4. termination: no two 4-adjacent regions could still merge (the union
//     of their intervals violates the criterion) — the defining property
//     of a finished merge stage.
func Validate(s *Segmentation, im *pixmap.Image, crit homog.Criterion) error {
	if s.W != im.W || s.H != im.H || len(s.Labels) != im.W*im.H {
		return fmt.Errorf("core: segmentation shape %dx%d/%d does not match image %dx%d",
			s.W, s.H, len(s.Labels), im.W, im.H)
	}
	if len(s.Labels) == 0 {
		return nil
	}
	// (1) representative = min pixel index with that label.
	minIdx := make(map[int32]int)
	for i, lab := range s.Labels {
		if _, ok := minIdx[lab]; !ok {
			minIdx[lab] = i
		}
	}
	for lab, idx := range minIdx {
		if int(lab) != idx {
			return fmt.Errorf("core: region label %d but first pixel index %d", lab, idx)
		}
	}
	// (2) connectivity: union-find over same-label adjacency must yield
	// exactly one set per label.
	d := unionfind.New(len(s.Labels))
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			i := y*im.W + x
			if x+1 < im.W && s.Labels[i] == s.Labels[i+1] {
				d.Union(i, i+1)
			}
			if y+1 < im.H && s.Labels[i] == s.Labels[i+im.W] {
				d.Union(i, i+im.W)
			}
		}
	}
	if d.Sets() != len(minIdx) {
		return fmt.Errorf("core: %d labels but %d connected components — some region is disconnected",
			len(minIdx), d.Sets())
	}
	// (3) per-region homogeneity over actual pixels.
	ivs := make(map[int32]homog.Interval)
	for i, lab := range s.Labels {
		iv, ok := ivs[lab]
		if !ok {
			iv = homog.Empty()
		}
		ivs[lab] = iv.Union(homog.Point(im.Pix[i]))
	}
	for lab, iv := range ivs {
		if !crit.Homogeneous(iv) {
			return fmt.Errorf("core: region %d inhomogeneous: %v", lab, iv)
		}
	}
	// (4) no adjacent pair still mergeable.
	type pair struct{ a, b int32 }
	seen := make(map[pair]struct{})
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			i := y*im.W + x
			for _, j := range [2]int{i + 1, i + im.W} {
				if j == i+1 && x+1 >= im.W {
					continue
				}
				if j == i+im.W && y+1 >= im.H {
					continue
				}
				a, b := s.Labels[i], s.Labels[j]
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				p := pair{a, b}
				if _, ok := seen[p]; ok {
					continue
				}
				seen[p] = struct{}{}
				if crit.Homogeneous(ivs[a].Union(ivs[b])) {
					return fmt.Errorf("core: adjacent regions %d and %d could still merge (%v ∪ %v)",
						a, b, ivs[a], ivs[b])
				}
			}
		}
	}
	return nil
}
