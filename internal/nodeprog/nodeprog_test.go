package nodeprog

import (
	"slices"
	"strings"
	"testing"

	"regiongrow/internal/core"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/rag"
)

// soloComm is a single-rank, in-process channel: every collective is the
// identity, nothing is ever routed, and it records what the program
// reports. inject, when set, replaces the payloads delivered by the
// exchange with the given (0-based) call number.
type soloComm struct {
	events    []core.StageEvent
	cost      Cost
	exchanges int
	inject    func(call int) [][]int32
}

func (c *soloComm) Rank() int                               { return 0 }
func (c *soloComm) AllReduceMax(v int) (int, error)         { return v, nil }
func (c *soloComm) AllReduceSum(v int) (int, error)         { return v, nil }
func (c *soloComm) AllGather(data []int32) ([]int32, error) { return data, nil }

func (c *soloComm) Exchange(out map[int][]int32) ([][]int32, error) {
	call := c.exchanges
	c.exchanges++
	if c.inject != nil {
		return c.inject(call), nil
	}
	if len(out) != 0 {
		panic("single rank routed a payload")
	}
	return nil, nil
}

func (c *soloComm) Stage(ev core.StageEvent) error {
	c.events = append(c.events, ev)
	return nil
}

func (c *soloComm) Charge(k Cost) {
	c.cost.Ops += k.Ops
	c.cost.SplitLevels += k.SplitLevels
	c.cost.MergeRounds += k.MergeRounds
}

// wholeImage is the geometry of one rank owning an image of width w.
func wholeImage(w int) Geometry {
	return Geometry{
		W:     w,
		Owner: func(int32) int { return 0 },
		Trade: func([][]int32) ([]int, [][]int32, error) { return nil, nil, nil },
	}
}

// solo runs the program on one rank owning the whole image.
func solo(c *soloComm, im *pixmap.Image, cfg core.Config) (*Result, error) {
	cfg.MaxSquare = quadsplit.EffectiveCap(quadsplit.Options{MaxSquare: cfg.MaxSquare}, im.W, im.H)
	return Run(c, wholeImage(im.W), im, cfg)
}

// TestSingleRankMatchesSequential: on one rank the program is the whole
// algorithm, so its labels and statistics equal the sequential engine's,
// and it reports every stage and every unit of work it did.
func TestSingleRankMatchesSequential(t *testing.T) {
	images := []*pixmap.Image{pixmap.Random(24, 5), pixmap.Uniform(16, 9)}
	for _, id := range pixmap.AllPaperImages()[:3] {
		images = append(images, pixmap.Generate(id, pixmap.DefaultGenOptions()))
	}
	for i, im := range images {
		for _, tie := range rag.AllTiePolicies() {
			cfg := core.Config{Threshold: 10, Tie: tie, Seed: 3}
			want, err := core.Sequential{}.Segment(im, cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := &soloComm{}
			got, err := solo(c, im, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Labels, want.Labels) {
				t.Errorf("image %d/%v: labels differ from sequential", i, tie)
			}
			if got.SplitIterations != want.SplitIterations || got.Squares != want.SquaresAfterSplit ||
				got.Merge.Iterations != want.MergeIterations || !slices.Equal(got.Merge.MergesPerIter, want.MergesPerIter) {
				t.Errorf("image %d/%v: stats %+v differ from sequential", i, tie, got)
			}
			if c.cost.SplitLevels != got.SplitIterations || c.cost.MergeRounds != got.Merge.Iterations || c.cost.Ops <= 0 {
				t.Errorf("image %d/%v: charged %+v for %d split levels and %d rounds",
					i, tie, c.cost, got.SplitIterations, got.Merge.Iterations)
			}
			if n := len(c.events); n != 2+got.Merge.Iterations ||
				c.events[0].Kind != core.EventSplitDone || c.events[1].Kind != core.EventGraphDone ||
				c.events[n-1].Kind != core.EventMergeIteration && got.Merge.Iterations > 0 {
				t.Errorf("image %d/%v: stage events %+v", i, tie, c.events)
			}
		}
	}
}

// TestPeerInputChecks: malformed peer input ends the program with an
// error, never a panic: a boundary strip from a rank that is not a
// neighbour, a strip of the wrong length, and a truncated handover.
func TestPeerInputChecks(t *testing.T) {
	im := pixmap.Generate(pixmap.Image2Rects128, pixmap.DefaultGenOptions())
	cfg := core.Config{Threshold: 10, Tie: rag.SmallestID, MaxSquare: 16}
	trade := func(src int, strip []int32) Geometry {
		geo := wholeImage(im.W)
		geo.Neighbours = []Neighbour{{Rank: 1, Side: East}}
		geo.Trade = func([][]int32) ([]int, [][]int32, error) {
			return []int{src}, [][]int32{strip}, nil
		}
		return geo
	}
	cases := []struct {
		name string
		geo  Geometry
		c    *soloComm
		want string
	}{
		{"non-neighbour", trade(2, nil), &soloComm{}, "non-neighbour rank 2"},
		{"short strip", trade(1, []int32{0, 0, 0}), &soloComm{}, "boundary strip of 3 values"},
		{"truncated handover", wholeImage(im.W), &soloComm{
			inject: func(call int) [][]int32 {
				if call == 1 { // the first round's handover
					return [][]int32{{0, 5, 1, 2, 3}}
				}
				return nil
			},
		}, "truncated adjacency handover"},
	}
	for _, tc := range cases {
		_, err := Run(tc.c, tc.geo, im, cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
