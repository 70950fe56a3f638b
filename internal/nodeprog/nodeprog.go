// Package nodeprog is the paper's message-passing node program, written
// once for every channel it runs over. internal/mpengine runs it on the
// simulated CM-5 (internal/mpvm), internal/distengine on worker processes
// linked by a real transport; each supplies a Comm and a Geometry.
//
// The program follows the paper's steps 0–5:
//
//  0. The image is block-mapped onto the nodes; each node holds one tile.
//  1. Each node splits its tile independently. Tile sides are multiples
//     of the square-size cap, so the union of the local splits is exactly
//     the global split.
//  2. Each node builds the vertices and edges of its local graph;
//     boundary strips (labels plus region intervals) are traded with the
//     neighbouring tiles to create the crossing edges.
//  3. Nodes compute merge choices for the vertices they own, route each
//     choice to the chosen neighbour's owner, and detect mutual pairs.
//  4. Merge events (representative, loser, new interval) are globally
//     concatenated so every node can relabel its edges; each loser's
//     adjacency list is handed to its representative's owner.
//  5. Steps 3–4 repeat while any node still has an active edge.
//
// Vertex ownership is static: a region is owned by the node whose tile
// contains its anchor pixel; when two regions merge, the representative
// (smaller ID) keeps its owner. Choices use rag.PickTied, the tie rule of
// every other engine, so the labels are identical to the sequential
// engine's for every policy and seed.
//
// Every scan runs in ascending region ID, so the program's messages and
// the work it reports through Comm.Charge depend only on its input.
package nodeprog

import (
	"fmt"
	"slices"

	"regiongrow/internal/core"
	"regiongrow/internal/homog"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/rag"
)

// Comm is the channel a node program runs over: the collectives of the
// paper's CM-5 program plus a stage-event hook and a cost hook. An error
// from any method ends the program with that error.
type Comm interface {
	// Rank is this node's index among the nodes running the program.
	Rank() int
	AllReduceMax(v int) (int, error)
	AllReduceSum(v int) (int, error)
	// AllGather returns the rank-order concatenation of every node's data.
	AllGather(data []int32) ([]int32, error)
	// Exchange delivers out[r] to rank r and returns the non-empty
	// payloads addressed to this node, in ascending source rank.
	Exchange(out map[int][]int32) ([][]int32, error)
	// Stage is called on every node at each stage boundary: split done,
	// graph done, and every merge round. The channel decides who reports
	// it and what a boundary costs.
	Stage(ev core.StageEvent) error
	// Charge reports node work at the point where it is done.
	Charge(c Cost)
}

// Cost is node work done at one program point.
type Cost struct {
	Ops         int // scalar operations
	SplitLevels int // split levels executed, each with a fixed setup cost
	MergeRounds int // merge rounds begun, each with a fixed and a per-pixel cost
}

// Side names one border of a tile.
type Side int

const (
	East  Side = iota // last column, top to bottom
	West              // first column, top to bottom
	South             // last row, left to right
	North             // first row, left to right
)

// Neighbour is an adjacent tile: its owner and the side of this tile it
// touches.
type Neighbour struct {
	Rank int
	Side Side
}

// Geometry places this node's tile in the image and trades its boundary
// strips, which each channel does in its own way.
type Geometry struct {
	W      int // image width: a region's ID is its anchor pixel's y*W + x
	X0, Y0 int // tile origin; the tile's size is the tile image's
	// Owner returns the rank whose tile holds region id's anchor pixel.
	Owner func(id int32) int
	// Neighbours lists the adjacent tiles, in the order Trade sends to
	// and receives from them.
	Neighbours []Neighbour
	// Trade sends out[i] to Neighbours[i].Rank and returns what arrived as
	// parallel lists of source ranks and payloads.
	Trade func(out [][]int32) (srcs []int, data [][]int32, err error)
}

// Result is one node's share of a segmentation.
type Result struct {
	Labels          []int32 // the tile's final labels, row-major
	SplitIterations int     // the most split levels any tile ran
	Squares         int     // split squares over all tiles
	Merge           rag.MergeStats
}

// node is the program state of one rank. Owned vertices live in slots
// numbered in ascending region ID.
type node struct {
	c    Comm
	geo  Geometry
	cfg  core.Config
	crit homog.Criterion

	tw, th int
	labels []int32 // tile labels: global region IDs, row-major

	ids   []int32                  // slot → region ID, ascending
	alive []bool                   // slot → not yet merged away
	adj   [][]int32                // slot → neighbour IDs, ascending
	iv    map[int32]homog.Interval // intervals of every known vertex

	choice []int32 // slot → chosen neighbour or rag.NoChoice (per round)
	mutual []bool  // slot → its remote choice chose it back (per round)
	tied   []int32 // tie-list scratch

	asg *rag.Assignments
}

// Run executes the node program on this rank's tile. cfg.MaxSquare must
// be the split cap already resolved against the whole image, and the
// tile's sides multiples of it.
func Run(c Comm, geo Geometry, tile *pixmap.Image, cfg core.Config) (*Result, error) {
	p := &node{c: c, geo: geo, cfg: cfg, crit: cfg.Criterion(), tw: tile.W, th: tile.H, asg: rag.NewAssignments()}
	r := &Result{}
	var err error
	localIters := p.split(tile)
	if r.SplitIterations, err = c.AllReduceMax(localIters); err != nil {
		return nil, err
	}
	if r.Squares, err = c.AllReduceSum(len(p.ids)); err != nil {
		return nil, err
	}
	if err = c.Stage(core.StageEvent{Kind: core.EventSplitDone, Iterations: r.SplitIterations, Squares: r.Squares}); err != nil {
		return nil, err
	}
	if err = p.buildGraph(); err != nil {
		return nil, err
	}
	if err = c.Stage(core.StageEvent{Kind: core.EventGraphDone, Squares: r.Squares}); err != nil {
		return nil, err
	}
	if r.Merge, err = p.mergeLoop(); err != nil {
		return nil, err
	}
	r.Labels = p.asg.Relabel(p.labels)
	c.Charge(Cost{Ops: p.tw * p.th * 2})
	return r, nil
}

// split is step 1: split the tile and make its squares the owned
// vertices. It returns the split levels executed.
func (p *node) split(tile *pixmap.Image) int {
	res := quadsplit.Split(tile, p.crit, quadsplit.Options{MaxSquare: p.cfg.MaxSquare})
	// The F77 node code walks its tile once per level testing quad-blocks:
	// ~8 scalar ops per pixel plus a fixed loop-setup cost per level.
	p.c.Charge(Cost{Ops: p.tw * p.th * res.Iterations * 8, SplitLevels: res.Iterations})

	// Squares come in raster order of their anchors, which is ascending
	// region ID; enumerating them needs the tile-local labels.
	squares := res.Squares(tile)
	p.labels = res.Labels
	for i, l := range p.labels {
		p.labels[i] = int32((p.geo.Y0+int(l)/p.tw)*p.geo.W + p.geo.X0 + int(l)%p.tw)
	}
	n := len(squares)
	p.ids, p.iv = make([]int32, n), make(map[int32]homog.Interval, n)
	for s, sq := range squares {
		p.ids[s] = p.labels[sq.Y*p.tw+sq.X]
		p.iv[p.ids[s]] = sq.IV
	}
	p.alive, p.adj = slices.Repeat([]bool{true}, n), make([][]int32, n)
	p.choice, p.mutual = make([]int32, n), make([]bool, n)
	return res.Iterations
}

// slotOf returns the slot of an owned vertex, or -1.
func (p *node) slotOf(id int32) int {
	if s, ok := slices.BinarySearch(p.ids, id); ok {
		return s
	}
	return -1
}

// addEdge records adjacency on whichever endpoints this node owns.
func (p *node) addEdge(a, b int32) {
	if s := p.slotOf(a); s >= 0 {
		p.adj[s] = rag.InsertSorted(p.adj[s], b)
	}
	if s := p.slotOf(b); s >= 0 {
		p.adj[s] = rag.InsertSorted(p.adj[s], a)
	}
}

// buildGraph is step 2: internal edges from the tile, crossing edges from
// the boundary strips traded with the neighbouring tiles.
func (p *node) buildGraph() error {
	tw, th := p.tw, p.th
	for ly := 0; ly < th; ly++ {
		for lx := 0; lx < tw; lx++ {
			a := p.labels[ly*tw+lx]
			if lx+1 < tw && a != p.labels[ly*tw+lx+1] {
				p.addEdge(a, p.labels[ly*tw+lx+1])
			}
			if ly+1 < th && a != p.labels[(ly+1)*tw+lx] {
				p.addEdge(a, p.labels[(ly+1)*tw+lx])
			}
		}
	}
	p.c.Charge(Cost{Ops: tw * th * 4})

	// A strip carries (id, lo, hi) for every pixel of the border facing
	// the neighbour.
	out := make([][]int32, len(p.geo.Neighbours))
	for i, nb := range p.geo.Neighbours {
		for _, id := range p.border(nb.Side) {
			out[i] = p.appendVertex(out[i], id)
		}
	}
	srcs, data, err := p.geo.Trade(out)
	if err != nil {
		return err
	}
	for i, src := range srcs {
		k := slices.IndexFunc(p.geo.Neighbours, func(nb Neighbour) bool { return nb.Rank == src })
		if k < 0 {
			return fmt.Errorf("nodeprog: boundary strip from non-neighbour rank %d", src)
		}
		mine, strip := p.border(p.geo.Neighbours[k].Side), data[i]
		if len(strip) != 3*len(mine) {
			return fmt.Errorf("nodeprog: boundary strip of %d values from rank %d, want %d", len(strip), src, 3*len(mine))
		}
		for j, myID := range mine {
			p.mirror(strip[3*j : 3*j+3])
			if theirID := strip[3*j]; myID != theirID {
				p.addEdge(myID, theirID)
			}
		}
	}
	return nil
}

// border returns, pixel by pixel, the labels along one side of the tile.
func (p *node) border(s Side) []int32 {
	switch s {
	case South:
		return p.labels[(p.th-1)*p.tw:]
	case North:
		return p.labels[:p.tw]
	}
	x := 0
	if s == East {
		x = p.tw - 1
	}
	out := make([]int32, p.th)
	for y := range out {
		out[y] = p.labels[y*p.tw+x]
	}
	return out
}

// mergeLoop is steps 3–5, on the merge-stage control loop every engine
// shares. A channel error ends the loop at the next activity test.
func (p *node) mergeLoop() (rag.MergeStats, error) {
	var err error
	stats := rag.Drive(p.cfg.Tie, func() bool {
		if err != nil {
			return false
		}
		var red int
		red, err = p.c.AllReduceMax(p.anyActive())
		return err == nil && red > 0
	}, func(policy rag.TiePolicy, iter int) int {
		p.c.Charge(Cost{MergeRounds: 1})
		var merged int
		merged, err = p.mergeRound(policy, iter)
		return merged
	})
	return stats, err
}

// anyActive returns 1 when an owned vertex has an active edge, else 0.
// Every edge has an owned endpoint on some node, so the reduction over
// all nodes sees every edge. The scan stops at the first active edge, so
// the work it charges depends on the ascending visit order.
func (p *node) anyActive() int {
	active, scanned := 0, 0
scan:
	for s, v := range p.ids {
		if !p.alive[s] {
			continue
		}
		for _, w := range p.adj[s] {
			scanned++
			if p.crit.Homogeneous(p.iv[v].Union(p.iv[w])) {
				active = 1
				break scan
			}
		}
	}
	p.c.Charge(Cost{Ops: scanned * 4})
	return active
}

// mergeRound runs one choice/merge/update round and returns the global
// number of merges.
func (p *node) mergeRound(policy rag.TiePolicy, iter int) (int, error) {
	// Step 3a: choices for owned, alive vertices.
	scanned, chosen := 0, 0
	for s, v := range p.ids {
		p.choice[s], p.mutual[s] = rag.NoChoice, false
		if !p.alive[s] {
			continue
		}
		bestW := -1
		p.tied = p.tied[:0]
		ivV := p.iv[v]
		for _, w := range p.adj[s] {
			scanned++
			ivW := p.iv[w]
			if !p.crit.Homogeneous(ivV.Union(ivW)) {
				continue
			}
			switch wt := homog.Weight(ivV, ivW); {
			case bestW < 0 || wt < bestW:
				bestW = wt
				p.tied = append(p.tied[:0], w)
			case wt == bestW:
				p.tied = append(p.tied, w)
			}
		}
		if bestW >= 0 {
			p.choice[s] = rag.PickTied(p.tied, policy, p.cfg.Seed, iter, v)
			chosen++
		}
	}
	p.c.Charge(Cost{Ops: scanned*6 + chosen*4})

	// Step 3b: route each remote choice (v, w) to owner(w), which marks w
	// when w chose v back.
	routed := make(map[int][]int32)
	for s, v := range p.ids {
		if w := p.choice[s]; w != rag.NoChoice && p.slotOf(w) < 0 {
			o := p.geo.Owner(w)
			routed[o] = append(routed[o], v, w)
		}
	}
	in, err := p.c.Exchange(routed)
	if err != nil {
		return 0, err
	}
	for _, data := range in {
		for i := 0; i+1 < len(data); i += 2 {
			if s := p.slotOf(data[i+1]); s >= 0 && p.choice[s] == data[i] {
				p.mutual[s] = true
			}
		}
	}

	// Step 3c: mutual pairs. Both owners detect one; the loser's owner
	// (loser = the larger ID) emits the event.
	var events []int32 // flat (rep, loser, lo, hi)
	for s, v := range p.ids {
		w := p.choice[s]
		if w == rag.NoChoice || w >= v {
			continue
		}
		mutual := p.mutual[s]
		if ws := p.slotOf(w); ws >= 0 {
			mutual = p.choice[ws] == v
		}
		if mutual {
			union := p.iv[v].Union(p.iv[w])
			events = append(events, w, v, int32(union.Lo), int32(union.Hi))
		}
	}

	// Step 4a: globally concatenate the merge events. Every node records
	// the representative's new interval: an edge relabeled to it below
	// needs it for future weights.
	all, err := p.c.AllGather(events)
	if err != nil {
		return 0, err
	}
	repOf := make(map[int32]int32, len(all)/4)
	losers := make([]int32, 0, len(all)/4)
	for i := 0; i+3 < len(all); i += 4 {
		rep, loser := all[i], all[i+1]
		p.iv[rep] = homog.Interval{Lo: uint8(all[i+2]), Hi: uint8(all[i+3])}
		p.asg.Record(loser, rep)
		repOf[loser] = rep
		losers = append(losers, loser)
	}
	merges := len(losers)
	p.c.Charge(Cost{Ops: merges * 8})
	if err := p.c.Stage(core.StageEvent{Kind: core.EventMergeIteration, Iteration: iter, Merges: merges}); err != nil {
		return 0, err
	}

	// Step 4b: relabel owned adjacency through this round's merges. Mutual
	// pairs form a matching, so one level of relabeling suffices.
	relabeled := 0
	var reps []int32
	for s, v := range p.ids {
		if !p.alive[s] {
			continue
		}
		reps = reps[:0]
		p.adj[s] = slices.DeleteFunc(p.adj[s], func(w int32) bool {
			r, ok := repOf[w]
			if ok {
				relabeled++
				if r != v {
					reps = append(reps, r)
				}
			}
			return ok
		})
		for _, r := range reps {
			p.adj[s] = rag.InsertSorted(p.adj[s], r)
		}
	}
	p.c.Charge(Cost{Ops: relabeled * 6})

	// Step 4c: hand each owned loser's adjacency to its representative's
	// owner, losers and neighbours in ascending ID.
	slices.Sort(losers)
	handover := make(map[int][]int32)
	for _, loser := range losers {
		ls := p.slotOf(loser)
		if ls < 0 || !p.alive[ls] {
			continue // not owned here
		}
		rep, list := repOf[loser], p.adj[ls]
		if rs := p.slotOf(rep); rs >= 0 {
			for _, w := range list {
				if w != rep {
					p.adj[rs] = rag.InsertSorted(p.adj[rs], w)
				}
			}
		} else {
			o := p.geo.Owner(rep)
			buf := append(handover[o], rep, int32(len(list)))
			for _, w := range list {
				buf = p.appendVertex(buf, w)
			}
			handover[o] = buf
		}
		p.alive[ls], p.adj[ls] = false, nil
	}
	if in, err = p.c.Exchange(handover); err != nil {
		return 0, err
	}
	for _, data := range in {
		if err := p.takeHandover(data); err != nil {
			return 0, err
		}
	}

	// Losers no longer exist as vertices anywhere; drop their mirrors.
	for _, loser := range losers {
		delete(p.iv, loser)
	}
	return merges, nil
}

// takeHandover merges one peer's handover payload — records of (rep,
// count, count × (neighbour, lo, hi)) — into the adjacency of the
// representatives this node owns.
func (p *node) takeHandover(data []int32) error {
	for i := 0; i < len(data); {
		if i+1 >= len(data) || data[i+1] < 0 || i+2+3*int(data[i+1]) > len(data) {
			return fmt.Errorf("nodeprog: truncated adjacency handover")
		}
		rep, cnt := data[i], int(data[i+1])
		i += 2
		rs := p.slotOf(rep)
		if rs < 0 {
			return fmt.Errorf("nodeprog: adjacency handover for region %d, not owned by rank %d", rep, p.c.Rank())
		}
		// The sender relabeled through the same round's merges.
		for ; cnt > 0; cnt, i = cnt-1, i+3 {
			if w := data[i]; w != rep {
				p.mirror(data[i : i+3])
				p.adj[rs] = rag.InsertSorted(p.adj[rs], w)
			}
		}
	}
	return nil
}

// appendVertex appends a vertex's (id, lo, hi) record to buf.
func (p *node) appendVertex(buf []int32, id int32) []int32 {
	iv := p.iv[id]
	return append(buf, id, int32(iv.Lo), int32(iv.Hi))
}

// mirror records the interval of a peer's (id, lo, hi) record, unless the
// vertex is already known here.
func (p *node) mirror(rec []int32) {
	if _, ok := p.iv[rec[0]]; !ok {
		p.iv[rec[0]] = homog.Interval{Lo: uint8(rec[1]), Hi: uint8(rec[2])}
	}
}
