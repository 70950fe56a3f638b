package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"regiongrow"
	"regiongrow/internal/core"
	"regiongrow/internal/server"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8}, {0.1, 1.4},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{200, 0.95, true}, {199, 0.95, false}, {20, 0.5, true}, {19, 0.5, false}, {1000, 0.99, true}, {999, 0.99, false},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := highestSupportedTail(100); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("highestSupportedTail(100) = %v, want 0.9", got)
	}
	if got := highestSupportedTail(19); got != 0 {
		t.Errorf("highestSupportedTail(19) = %v, want 0", got)
	}
	// The highest supported tail of n samples leaves exactly the required
	// count beyond it.
	for _, n := range []int{20, 57, 200, 1234} {
		if !tailSupported(n, highestSupportedTail(n)-1e-9) {
			t.Errorf("highestSupportedTail(%d) is not supported", n)
		}
	}
}

func TestGenerateIsSeeded(t *testing.T) {
	for _, c := range []class{blobs, mosaic} {
		a, b := generate(c, 256, 42), generate(c, 256, 42)
		if !a.Equal(b) {
			t.Errorf("%v: the same seed gave different images", c)
		}
		if generate(c, 256, 43).Equal(a) {
			t.Errorf("%v: different seeds gave the same image", c)
		}
	}
	if generate(blobs, 256, 42).Equal(generate(mosaic, 256, 42)) {
		t.Error("blobs and mosaic gave the same image")
	}
}

func TestDeriveSeparatesStreams(t *testing.T) {
	a, b := &env{seed: 1}, &env{seed: 2}
	if a.derive(3) != (&env{seed: 1}).derive(3) {
		t.Error("derive is not a function of (seed, stream)")
	}
	if a.derive(3) == a.derive(4) || a.derive(3) == b.derive(3) {
		t.Error("derive gave equal seeds for different seeds or streams")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\n"
	mb, err := parseVmHWM([]byte(status))
	if err != nil || mb != 200 {
		t.Errorf("parseVmHWM = %v, %v; want 200 MB", mb, err)
	}
	for _, bad := range []string{"Name:\tx\nVmRSS:\t1 kB\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) accepted a status without a usable VmHWM", bad)
		}
	}
	if mb, err := peakMB(); err != nil || mb <= 0 {
		t.Errorf("peakMB of this process = %v, %v", mb, err)
	}
}

// peakMB reads this process's VmHWM through the sampler.
func peakMB() (float64, error) {
	p := &peaks{proc: "self"}
	p.sample()
	if len(p.mb) == 0 {
		return 0, p.err
	}
	return p.mb[0], nil
}

func TestParseStats(t *testing.T) {
	var st server.Stats
	st.Cache.Hits, st.Cache.Misses = 3, 5
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseStats(b)
	if err != nil || got != (cacheCounts{hits: 3, misses: 5}) {
		t.Errorf("parseStats = %+v, %v; want 3 hits, 5 misses", got, err)
	}
	if _, err := parseStats([]byte(`{"cache":`)); err == nil {
		t.Error("parseStats accepted truncated JSON")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 50, End: 80},
		{ID: 3, Parent: 2, Start: 60, End: 70},
		{ID: 4, Parent: 0, Start: 90, End: 130}, // half outside its parent
	}
	want := []int64{100 - 30 - 30 - 10, 30, 20, 10, 40}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestLedger(t *testing.T) {
	seg := &regiongrow.Segmentation{SquaresAfterSplit: 10, FinalRegions: 3, MergeSim: 1.5, Comm: &core.CommStats{Messages: 7}}
	l := newLedger()
	if err := l.check(0, "a", "dpengine", seg); err != nil {
		t.Fatal(err)
	}
	same := *seg
	if err := l.check(0, "a", "dpengine", &same); err != nil {
		t.Errorf("identical counts failed: %v", err)
	}
	for _, change := range []func(s *regiongrow.Segmentation){
		func(s *regiongrow.Segmentation) { s.SquaresAfterSplit++ },
		func(s *regiongrow.Segmentation) { s.MergeSim += 1e-12 },
		func(s *regiongrow.Segmentation) { s.Comm = &core.CommStats{Messages: 8} },
	} {
		other := *seg
		change(&other)
		if err := l.check(0, "a", "dpengine", &other); err == nil {
			t.Errorf("a changed count passed: %+v", other)
		}
	}
	// The one tolerated difference is mpengine's simulated merge time,
	// which is counted instead.
	if err := l.check(1, "b", "mpengine", seg); err != nil {
		t.Fatal(err)
	}
	drift := *seg
	drift.MergeSim = 1.6
	if err := l.check(1, "b", "mpengine", &drift); err != nil || l.simMismatches() != 1 {
		t.Errorf("mpengine merge-sim drift: err %v, counted %d; want nil, 1", err, l.simMismatches())
	}
	drift.FinalRegions++
	if err := l.check(1, "b", "mpengine", &drift); err == nil {
		t.Error("an mpengine region-count change passed")
	}
}

// TestCountsRepeatAcrossRuns builds the paper-repro first pass twice from
// the same seed, on fresh program state each time, and requires every
// exact count to repeat; a different seed must give different tie draws.
func TestCountsRepeatAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulators")
	}
	ctx := context.Background()
	led := newLedger()
	for run := 0; run < 2; run++ {
		ops, err := paperOps(ctx, []uint64{7})
		if err != nil {
			t.Fatal(err)
		}
		rig, err := newPaperRig()
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			seg, err := rig.segment(ctx, op)
			if err == nil {
				err = checkPaper(op, i, seg, led)
			}
			if err != nil {
				t.Error(err)
			}
		}
		rig.close()
	}
	if led.repeats() != paperPass {
		t.Errorf("%d repeats, want %d", led.repeats(), paperPass)
	}
	a, err := paperOps(ctx, []uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := paperOps(ctx, []uint64{8})
	if err != nil {
		t.Fatal(err)
	}
	// The paper images are noise-free, so their final labels do not depend
	// on the tie draws; the merge schedule does.
	differ := false
	for i := range a {
		differ = differ || !slices.Equal(a[i].ref.MergesPerIter, b[i].ref.MergesPerIter)
	}
	if !differ {
		t.Error("tie seeds 7 and 8 gave identical merge schedules on every op")
	}
}

// TestBenchmarkJSON pins BENCHMARK.json at the repository root to the
// workloads and metric names this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		slices.Sort(out)
		return out
	}
	sorted := func(xs []string) []string {
		xs = slices.Clone(xs)
		slices.Sort(xs)
		return xs
	}
	var wl []string
	for _, w := range workloads {
		wl = append(wl, w.name)
	}
	for _, c := range []struct {
		what      string
		json, src []string
	}{
		{"workloads", names(doc.Workloads), sorted(wl)},
		{"end_to_end", names(doc.EndToEnd), sorted(endToEndMetrics)},
		{"per_layer", names(doc.PerLayer), sorted(perLayerMetrics)},
	} {
		if !slices.Equal(c.json, c.src) {
			t.Errorf("BENCHMARK.json %s = %v, program reports %v", c.what, c.json, c.src)
		}
	}
}
