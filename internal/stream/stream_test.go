package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"regiongrow/internal/core"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/prand"
	"regiongrow/internal/quadsplit"
	"regiongrow/internal/rag"
)

// sequentialLabels runs the in-memory reference engine.
func sequentialSeg(t *testing.T, im *pixmap.Image, cfg core.Config) *core.Segmentation {
	t.Helper()
	seg, err := core.Sequential{}.Segment(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// recolourBytes renders the reference recoloured PGM: every region painted
// the midpoint of its interval, exactly the facade's Recolour.
func recolourBytes(t *testing.T, seg *core.Segmentation, im *pixmap.Image) []byte {
	t.Helper()
	shade := make(map[int32]uint8, len(seg.Regions))
	for _, r := range seg.Regions {
		shade[r.ID] = uint8((int(r.IV.Lo) + int(r.IV.Hi)) / 2)
	}
	out := pixmap.New(im.W, im.H)
	for i, lab := range seg.Labels {
		out.Pix[i] = shade[lab]
	}
	var buf bytes.Buffer
	if err := pixmap.WritePGM(&buf, out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func labelBytes(t *testing.T, seg *core.Segmentation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeLabels(&buf, seg.W, seg.H, seg.Labels); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamMatchesSequential is the byte-identity property test: across
// all six paper images, every tie policy, and band geometries covering one
// band, many bands, and a ragged last band, the streamed label output and
// recoloured output are byte-identical to the sequential engine's.
func TestStreamMatchesSequential(t *testing.T) {
	for _, id := range pixmap.AllPaperImages() {
		im := pixmap.Generate(id, pixmap.DefaultGenOptions())
		var pgm bytes.Buffer
		if err := pixmap.WritePGM(&pgm, im); err != nil {
			t.Fatal(err)
		}
		cap := quadsplit.EffectiveCap(quadsplit.Options{}, im.W, im.H)
		bandGeometries := map[string]int{
			"one-band":    im.H,    // whole image in a single band
			"many-bands":  0,       // one cap per band
			"ragged-last": 3 * cap, // H is not a multiple of 3 caps
		}
		if im.H%(3*cap) == 0 {
			t.Fatalf("%v: 3-cap bands divide H=%d evenly; pick a raggeder geometry", id, im.H)
		}
		for _, tie := range []rag.TiePolicy{rag.SmallestID, rag.LargestID, rag.Random} {
			cfg := core.Config{Threshold: 10, Tie: tie, Seed: 7}
			seg := sequentialSeg(t, im, cfg)
			wantLabels := labelBytes(t, seg)
			wantPGM := recolourBytes(t, seg, im)
			for name, bandRows := range bandGeometries {
				t.Run(fmt.Sprintf("%v/%v/%s", id, tie, name), func(t *testing.T) {
					var gotLabels bytes.Buffer
					res, err := Segment(context.Background(), bytes.NewReader(pgm.Bytes()), &gotLabels,
						cfg, core.Run{}, Options{BandRows: bandRows, Output: OutputLabels})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotLabels.Bytes(), wantLabels) {
						t.Error("streamed labels differ from the sequential engine")
					}
					if res.FinalRegions != seg.FinalRegions {
						t.Errorf("FinalRegions = %d, sequential %d", res.FinalRegions, seg.FinalRegions)
					}
					if res.SquaresAfterSplit != seg.SquaresAfterSplit {
						t.Errorf("SquaresAfterSplit = %d, sequential %d", res.SquaresAfterSplit, seg.SquaresAfterSplit)
					}
					if res.MergeIterations != seg.MergeIterations {
						t.Errorf("MergeIterations = %d, sequential %d", res.MergeIterations, seg.MergeIterations)
					}
					wantBands := (im.H + max(bandRows/cap, 1)*cap - 1) / (max(bandRows/cap, 1) * cap)
					if res.Bands != wantBands {
						t.Errorf("Bands = %d, want %d", res.Bands, wantBands)
					}
					var gotPGM bytes.Buffer
					if _, err := Segment(context.Background(), bytes.NewReader(pgm.Bytes()), &gotPGM,
						cfg, core.Run{}, Options{BandRows: bandRows, Output: OutputRecolour}); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotPGM.Bytes(), wantPGM) {
						t.Error("streamed recoloured PGM differs from the sequential engine")
					}
				})
			}
		}
	}
}

// blockyImage is a w×h image of random plateaus 2^k pixels wide with a
// little noise on top, so splits produce squares of every size and merges
// have both homogeneous and inhomogeneous neighbours to choose from.
func blockyImage(w, h int, seed uint64) *pixmap.Image {
	im := pixmap.New(w, h)
	block := 1 << (seed % 5)
	noise := prand.New(seed)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			plateau := prand.Hash2(seed, uint64((y/block)*w+x/block)) % 200
			im.Set(x, y, uint8(plateau+noise.Uint64()%6))
		}
	}
	return im
}

// TestStreamMatchesSequentialRandom is the random-input differential:
// random geometries from 1 to 200 pixels a side (1-row and 1-column
// strips included), random threshold, tie policy, seed and cap, and band
// heights giving one band, one cap per band, a ragged last band, or an
// arbitrary request. Both output formats must be byte-identical to the
// sequential engine.
func TestStreamMatchesSequentialRandom(t *testing.T) {
	err := quick.Check(func(seed uint64, wRaw, hRaw, tRaw, capRaw, bandRaw uint8) bool {
		w, h := 1+int(wRaw)%200, 1+int(hRaw)%200
		switch seed % 8 {
		case 0:
			h = 1
		case 1:
			w = 1
		}
		im := blockyImage(w, h, seed)
		cfg := core.Config{
			Threshold: int(tRaw % 24),
			Tie:       rag.AllTiePolicies()[(seed/8)%3],
			Seed:      seed,
			MaxSquare: []int{0, quadsplit.Unbounded, 1, 2, 4, 16, 64}[capRaw%7],
		}
		cap := quadsplit.EffectiveCap(quadsplit.Options{MaxSquare: cfg.MaxSquare}, w, h)
		bandRows := []int{h, 0, 3 * cap, int(bandRaw)}[bandRaw%4]
		seg := sequentialSeg(t, im, cfg)
		var pgm bytes.Buffer
		if err := pixmap.WritePGM(&pgm, im); err != nil {
			t.Fatal(err)
		}
		for _, out := range []struct {
			output Output
			want   []byte
		}{
			{OutputLabels, labelBytes(t, seg)},
			{OutputRecolour, recolourBytes(t, seg, im)},
		} {
			var got bytes.Buffer
			res, err := Segment(context.Background(), bytes.NewReader(pgm.Bytes()), &got,
				cfg, core.Run{}, Options{BandRows: bandRows, Output: out.output})
			if err != nil {
				t.Logf("%dx%d %+v bands=%d: %v", w, h, cfg, bandRows, err)
				return false
			}
			if !bytes.Equal(got.Bytes(), out.want) || res.FinalRegions != seg.FinalRegions ||
				res.MergeIterations != seg.MergeIterations || res.SquaresAfterSplit != seg.SquaresAfterSplit {
				t.Logf("%dx%d %+v bands=%d output=%d differs from the sequential engine", w, h, cfg, bandRows, out.output)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

// waitGoroutines polls until the goroutine count is back at its baseline,
// failing with a stack dump if it does not settle: a failed run must not
// leave its split stage behind.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d -> %d\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// cancellingReader serves its input in small reads and cancels the run's
// context once limit bytes have gone out — a cancel landing mid-ingest.
type cancellingReader struct {
	r      io.Reader
	limit  int
	read   int
	cancel context.CancelFunc
}

func (c *cancellingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p[:min(len(p), 256)])
	c.read += n
	if c.read >= c.limit {
		c.cancel()
	}
	return n, err
}

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct{ limit int }

var errWrite = errors.New("output closed")

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) > f.limit {
		n := f.limit
		f.limit = 0
		return n, errWrite
	}
	f.limit -= len(p)
	return len(p), nil
}

// TestStreamPipelineFailures drives each way a run can fail with the
// split stage in flight — the input ends mid-band, the context is
// cancelled during ingest, the output stops accepting bytes — and checks
// that Segment returns the failure and no goroutine outlives it.
func TestStreamPipelineFailures(t *testing.T) {
	im := blockyImage(96, 160, 3)
	var pgm bytes.Buffer
	if err := pixmap.WritePGM(&pgm, im); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 5, MaxSquare: 8} // 20 bands of 8 rows
	header := pgm.Len() - len(im.Pix)

	t.Run("truncated-mid-band", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		cut := pgm.Bytes()[:header+im.W*(8*9+3)] // three rows into band 10
		var out bytes.Buffer
		_, err := Segment(context.Background(), bytes.NewReader(cut), &out, cfg, core.Run{}, Options{})
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want unexpected EOF", err)
		}
		if out.Len() != 0 {
			t.Fatalf("failed ingest wrote %d output bytes", out.Len())
		}
		waitGoroutines(t, baseline)
	})
	t.Run("cancel-during-ingest", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		r := &cancellingReader{r: bytes.NewReader(pgm.Bytes()), limit: header + im.W*8*4, cancel: cancel}
		var out bytes.Buffer
		_, err := Segment(ctx, r, &out, cfg, core.Run{}, Options{})
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if r.read >= pgm.Len() {
			t.Fatal("the whole input was read: the cancel did not land mid-ingest")
		}
		if out.Len() != 0 {
			t.Fatalf("cancelled run wrote %d output bytes", out.Len())
		}
		waitGoroutines(t, baseline)
	})
	for _, output := range []Output{OutputLabels, OutputRecolour} {
		t.Run(fmt.Sprintf("emit-write-error/%d", output), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			_, err := Segment(context.Background(), bytes.NewReader(pgm.Bytes()), &failingWriter{limit: 100},
				cfg, core.Run{}, Options{Output: output})
			if !errors.Is(err, errWrite) {
				t.Fatalf("err = %v, want the writer's error", err)
			}
			waitGoroutines(t, baseline)
		})
	}
}

// TestStreamP2Input runs the streaming path on an ASCII PGM: the encoding
// must not affect the segmentation.
func TestStreamP2Input(t *testing.T) {
	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())
	var p2 bytes.Buffer
	if err := pixmap.WritePGMPlain(&p2, im); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 1}
	want := labelBytes(t, sequentialSeg(t, im, cfg))
	var got bytes.Buffer
	if _, err := Segment(context.Background(), &p2, &got, cfg, core.Run{}, Options{Output: OutputLabels}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("P2-streamed labels differ from the sequential engine")
	}
}

// TestStreamLargeSynthetic segments a multi-band non-paper image with an
// explicit small cap, crossing many band boundaries.
func TestStreamLargeSynthetic(t *testing.T) {
	im := pixmap.Checkerboard(256, 40, 200)
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 3, MaxSquare: 8}
	var pgm bytes.Buffer
	if err := pixmap.WritePGM(&pgm, im); err != nil {
		t.Fatal(err)
	}
	want := labelBytes(t, sequentialSeg(t, im, cfg))
	var got bytes.Buffer
	res, err := Segment(context.Background(), &pgm, &got, cfg, core.Run{}, Options{Output: OutputLabels})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bands != 32 {
		t.Fatalf("Bands = %d, want 32 (256 rows / 8-row cap)", res.Bands)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("streamed labels differ from the sequential engine")
	}
}

// TestStreamObserverEvents pins the standard observer contract: the stage
// events arrive in engine order with the engine's totals.
func TestStreamObserverEvents(t *testing.T) {
	im := pixmap.Generate(pixmap.Image1NestedRects128, pixmap.DefaultGenOptions())
	var pgm bytes.Buffer
	if err := pixmap.WritePGM(&pgm, im); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var kinds []core.EventKind
	obs := core.ObserverFunc(func(ev core.StageEvent) {
		mu.Lock()
		kinds = append(kinds, ev.Kind)
		mu.Unlock()
	})
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 1}
	res, err := Segment(context.Background(), &pgm, &bytes.Buffer{}, cfg, core.Run{Observer: obs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []core.EventKind{core.EventSplitStart, core.EventSplitDone, core.EventGraphDone}
	for i := 0; i < res.MergeIterations; i++ {
		want = append(want, core.EventMergeIteration)
	}
	want = append(want, core.EventMergeDone)
	if len(kinds) != len(want) {
		t.Fatalf("got %d events, want %d (%v)", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

// TestStreamCancellation aborts a run up front: the driver must notice at
// its first band and return the context error without writing output.
func TestStreamCancellation(t *testing.T) {
	im := pixmap.Generate(pixmap.Image4NestedRects256, pixmap.DefaultGenOptions())
	var pgm bytes.Buffer
	if err := pixmap.WritePGM(&pgm, im); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	_, err := Segment(ctx, &pgm, &out, core.Config{Threshold: 10}, core.Run{}, Options{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out.Len() != 0 {
		t.Fatalf("cancelled run wrote %d output bytes", out.Len())
	}
}

// TestStreamEmptyImage pins the degenerate geometry: header out, no rows.
func TestStreamEmptyImage(t *testing.T) {
	var out bytes.Buffer
	res, err := Segment(context.Background(), bytes.NewReader([]byte("P5\n0 0\n255\n")), &out,
		core.Config{Threshold: 10}, core.Run{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalRegions != 0 || res.Bands != 0 {
		t.Fatalf("empty image produced %+v", res)
	}
	if got := out.String(); got != "P5\n0 0\n255\n" {
		t.Fatalf("empty output %q", got)
	}
}

// TestStreamTruncatedInput: a stream shorter than its header declares must
// fail, not fabricate pixels.
func TestStreamTruncatedInput(t *testing.T) {
	_, err := Segment(context.Background(), bytes.NewReader([]byte("P5\n64 64\n255\nshort")), &bytes.Buffer{},
		core.Config{Threshold: 10}, core.Run{}, Options{})
	if err == nil {
		t.Fatal("segmented a truncated stream")
	}
}

// TestEncodeLabelsGuards pins the helper's geometry check.
func TestEncodeLabelsGuards(t *testing.T) {
	if err := EncodeLabels(&bytes.Buffer{}, 2, 2, make([]int32, 3)); err == nil {
		t.Fatal("encoded a mis-sized label raster")
	}
}
