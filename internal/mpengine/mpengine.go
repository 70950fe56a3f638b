package mpengine

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"time"

	"regiongrow/internal/core"
	"regiongrow/internal/machine"
	"regiongrow/internal/mpvm"
	"regiongrow/internal/nodeprog"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
)

// cancelCode is the sentinel contributed to a reduction by a node that has
// observed context cancellation. Cancellation must be a collective
// decision — a node returning unilaterally would leave its peers blocked
// in a barrier — so nodes fold it into the max-reductions the node
// program already performs (the split handoff and each merge round's
// activity test), which changes no simulated times and no communication
// counters. The code dominates any legitimate contribution: split
// iterations and the merge loop's 0/1 activity flag are both far below it.
const cancelCode = 1 << 20

// Engine is the message-passing engine bound to a configuration and
// communication scheme.
type Engine struct {
	scheme mpvm.Scheme
	nodes  int
	prof   *machine.Profile
}

// New returns a message-passing engine for CM5_LP or CM5_Async with the
// paper's 32 nodes.
func New(cfg machine.ConfigID) (*Engine, error) {
	switch cfg {
	case machine.CM5_LP:
		return &Engine{scheme: mpvm.LP, nodes: 32, prof: machine.Get(cfg)}, nil
	case machine.CM5_Async:
		return &Engine{scheme: mpvm.Async, nodes: 32, prof: machine.Get(cfg)}, nil
	default:
		return nil, fmt.Errorf("mpengine: %v is not a message-passing configuration", cfg)
	}
}

// NewCustom returns an engine with an explicit node count, scheme, and
// profile — used by scaling ablations and tests.
func NewCustom(nodes int, scheme mpvm.Scheme, prof *machine.Profile) *Engine {
	return &Engine{scheme: scheme, nodes: nodes, prof: prof}
}

// Name implements core.Engine.
func (e *Engine) Name() string {
	return fmt.Sprintf("message-passing/%dn-%s", e.nodes, e.scheme)
}

// Scheme returns the engine's communication scheme.
func (e *Engine) Scheme() mpvm.Scheme { return e.scheme }

// grid geometry of the node mesh.
type geom struct {
	W, H   int
	P1, P2 int // node rows, node cols
	tw, th int // tile width, height
}

func (g geom) owner(id int32) int {
	x := int(id) % g.W
	y := int(id) / g.W
	return (y/g.th)*g.P2 + x/g.tw
}

func (g geom) tileOrigin(rank int) (x0, y0 int) {
	return (rank % g.P2) * g.tw, (rank / g.P2) * g.th
}

// factor splits q into P1×P2, both powers of two, as square as possible.
func factor(q int) (p1, p2 int, err error) {
	if q <= 0 || q&(q-1) != 0 {
		return 0, 0, fmt.Errorf("mpengine: node count %d is not a power of two", q)
	}
	p1 = 1 << (bits.TrailingZeros(uint(q)) / 2)
	return p1, q / p1, nil
}

// Segment implements core.Engine.
func (e *Engine) Segment(im *pixmap.Image, cfg core.Config) (*core.Segmentation, error) {
	return e.SegmentContext(context.Background(), im, cfg, core.Run{})
}

// SegmentContext implements core.ContextEngine. Every node folds its view
// of ctx into the reductions that already punctuate the split handoff and
// each merge round, so all nodes abort together (within one iteration) and
// the simulated cluster always joins — no goroutine outlives the call.
// Stage events are emitted by node 0 only, from its node goroutine.
func (e *Engine) SegmentContext(ctx context.Context, im *pixmap.Image, cfg core.Config, run core.Run) (*core.Segmentation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p1, p2, err := factor(e.nodes)
	if err != nil {
		return nil, err
	}
	if im.W%p2 != 0 || im.H%p1 != 0 {
		return nil, fmt.Errorf("mpengine: image %dx%d not divisible by node grid %dx%d", im.W, im.H, p1, p2)
	}
	g := geom{W: im.W, H: im.H, P1: p1, P2: p2, tw: im.W / p2, th: im.H / p1}
	cap := quadsplit.EffectiveCap(quadsplit.Options{MaxSquare: cfg.MaxSquare}, im.W, im.H)
	if g.tw%cap != 0 || g.th%cap != 0 {
		return nil, fmt.Errorf("mpengine: tile %dx%d not aligned to square cap %d", g.tw, g.th, cap)
	}

	cfg.MaxSquare = cap             // the node program takes the resolved cap
	out := make([]int32, im.W*im.H) // nodes write disjoint tiles
	nodes := make([]*simNode, e.nodes)

	run.Emit(core.StageEvent{Kind: core.EventSplitStart})
	t0 := time.Now() //vet:timing total wall-time for Stats; never reaches labels or messages
	_, clusterStats, err := mpvm.Run(e.nodes, e.prof, func(n *mpvm.Node) error {
		sn := &simNode{n: n, e: e, ctx: ctx, run: run, pixels: g.tw * g.th, start: time.Now()} //vet:timing stage wall-time for Stats; never reaches labels or messages
		nodes[n.Rank] = sn
		x0, y0 := g.tileOrigin(n.Rank)
		tile, err := im.SubImage(x0, y0, g.tw, g.th)
		if err != nil {
			return err
		}
		if sn.res, err = nodeprog.Run(sn, g.geometry(n), tile, cfg); err != nil {
			return err
		}
		for ly := 0; ly < g.th; ly++ {
			copy(out[(y0+ly)*g.W+x0:], sn.res.Labels[ly*g.tw:(ly+1)*g.tw])
		}
		n.Barrier()
		sn.simTotal = n.Clock()
		return nil
	})
	totalWall := time.Since(t0) //vet:timing total wall-time for Stats; never reaches labels or messages
	if err != nil {
		return nil, err
	}

	var splitWallMax time.Duration
	for _, sn := range nodes {
		splitWallMax = max(splitWallMax, sn.splitWall)
	}
	r0 := nodes[0]
	seg := &core.Segmentation{
		W: im.W, H: im.H,
		Labels:            out,
		SplitIterations:   r0.res.SplitIterations,
		MergeIterations:   r0.res.Merge.Iterations,
		SquaresAfterSplit: r0.res.Squares,
		MergesPerIter:     r0.res.Merge.MergesPerIter,
		ForcedResolutions: r0.res.Merge.ForcedResolutions,
		SplitWall:         splitWallMax,
		MergeWall:         totalWall - splitWallMax,
		SplitSim:          r0.simSplit,
		MergeSim:          r0.simTotal - r0.simSplit,
		Comm: &core.CommStats{
			Messages:  clusterStats.Messages,
			Words:     clusterStats.Words,
			Barriers:  clusterStats.Barriers,
			Gathers:   clusterStats.Gathers,
			Reduces:   clusterStats.Reduces,
			LPSteps:   clusterStats.LPSteps,
			Exchanges: clusterStats.Exchanges,
		},
	}
	seg.FillRegions(im)
	run.Emit(core.StageEvent{Kind: core.EventMergeDone, Iterations: seg.MergeIterations, Regions: seg.FinalRegions})
	return seg, nil
}

var _ core.ContextEngine = (*Engine)(nil)

// stripTag tags the boundary-strip messages of step 2.
const stripTag = 100

// geometry is the node program's view of rank n's tile: the boundary
// strips go to the four grid neighbours as plain sends and receives (the
// paper's regular neighbour communication, not scheme-dependent), east,
// west, south, north.
func (g geom) geometry(n *mpvm.Node) nodeprog.Geometry {
	x0, y0 := g.tileOrigin(n.Rank)
	row, col := n.Rank/g.P2, n.Rank%g.P2
	var nbs []nodeprog.Neighbour
	add := func(exists bool, rank int, side nodeprog.Side) {
		if exists {
			nbs = append(nbs, nodeprog.Neighbour{Rank: rank, Side: side})
		}
	}
	add(col+1 < g.P2, n.Rank+1, nodeprog.East)
	add(col > 0, n.Rank-1, nodeprog.West)
	add(row+1 < g.P1, n.Rank+g.P2, nodeprog.South)
	add(row > 0, n.Rank-g.P2, nodeprog.North)
	trade := func(out [][]int32) ([]int, [][]int32, error) {
		for i, nb := range nbs {
			n.Send(nb.Rank, stripTag, out[i])
		}
		srcs, data := make([]int, len(nbs)), make([][]int32, len(nbs))
		for i, nb := range nbs {
			srcs[i], data[i] = nb.Rank, n.Recv(nb.Rank, stripTag).Data
		}
		return srcs, data, nil
	}
	return nodeprog.Geometry{W: g.W, X0: x0, Y0: y0, Owner: g.owner, Neighbours: nbs, Trade: trade}
}

// simNode is a simulated CM-5 node as the node program's channel. Every
// collective and exchange charges the node's simulated clock through
// mpvm; Charge converts reported work with the machine profile; each
// stage boundary is a barrier.
type simNode struct {
	n      *mpvm.Node
	e      *Engine
	ctx    context.Context
	run    core.Run
	pixels int // tile pixels, for the per-round overhead
	tag    int // monotonically increasing exchange tag

	start     time.Time
	splitWall time.Duration
	simSplit  float64 // node time when the split stage ended
	simTotal  float64 // node time when the run ended
	res       *nodeprog.Result
}

func (s *simNode) Rank() int { return s.n.Rank }

// AllReduceMax doubles as the cancellation rendezvous: a node that has
// observed cancellation contributes cancelCode, and every node returns
// the context's error from the same reduction (context.Canceled while a
// peer saw the cancellation first and this node's own check lags).
func (s *simNode) AllReduceMax(v int) (int, error) {
	if s.ctx.Err() != nil {
		v |= cancelCode
	}
	red := s.n.AllReduceMax(v)
	if red >= cancelCode {
		return 0, cmp.Or(s.ctx.Err(), context.Canceled)
	}
	return red, nil
}

func (s *simNode) AllReduceSum(v int) (int, error) { return s.n.AllReduceSum(v), nil }

func (s *simNode) AllGather(data []int32) ([]int32, error) {
	return slices.Concat(s.n.AllGather(data)...), nil
}

func (s *simNode) Exchange(out map[int][]int32) ([][]int32, error) {
	s.tag += 64
	recv := s.n.Exchange(out, s.e.scheme, 1000+s.tag)
	in := make([][]int32, 0, len(recv))
	for _, src := range slices.Sorted(maps.Keys(recv)) {
		in = append(in, recv[src])
	}
	return in, nil
}

// Stage synchronises the cluster at the end of the split and graph
// stages (SplitSim is node time at the first of them); node 0 reports
// every event.
func (s *simNode) Stage(ev core.StageEvent) error {
	if ev.Kind == core.EventSplitDone || ev.Kind == core.EventGraphDone {
		s.n.Barrier()
	}
	if ev.Kind == core.EventSplitDone {
		s.simSplit = s.n.Clock()
		s.splitWall = time.Since(s.start) //vet:timing stage wall-time for Stats; never reaches labels or messages
	}
	if s.n.Rank == 0 {
		s.run.Emit(ev)
	}
	return nil
}

// Charge adds the work to the node's simulated clock; split levels and
// merge rounds also pay their fixed costs (see machine.Profile).
func (s *simNode) Charge(c nodeprog.Cost) {
	prof := s.e.prof
	s.n.Charge(c.Ops)
	if c.SplitLevels > 0 {
		s.n.ChargeTime(float64(c.SplitLevels) * prof.TSplitLevel)
	}
	for range c.MergeRounds {
		s.n.ChargeTime(prof.TMergeIterFixed + prof.TMergeIterPixel*float64(s.pixels))
	}
}
