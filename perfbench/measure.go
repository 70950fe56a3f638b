package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"regiongrow/internal/server"
)

// tailSamples is the number of samples a reported tail percentile must
// leave beyond it; a tail with fewer is flagged as unsupported.
const tailSamples = 10

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty xs gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailSupported reports whether n samples leave at least tailSamples
// beyond the p-quantile.
func tailSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= tailSamples
}

// highestSupportedTail returns the highest percentile (as a fraction) that
// n samples support under the tail rule, or 0 when even the median is not
// supported.
func highestSupportedTail(n int) float64 {
	if n < 2*tailSamples {
		return 0
	}
	return 1 - float64(tailSamples)/float64(n)
}

// metric is one reported number, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's outcome: the op counters, the metrics and a
// human-readable line per metric, printed before the result line.
type report struct {
	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	lines     []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// set records a metric together with the number of samples behind it.
func (r *report) set(name string, v float64, unit string, n int, note string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// JSON has no NaN; a metric without samples makes the run incorrect.
		r.problems = append(r.problems, fmt.Sprintf("metric %s has no value (%d samples)", name, n))
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	line := fmt.Sprintf("%-30s %14.6g %-6s n=%d", name, v, unit, n)
	if note != "" {
		line += "  " + note
	}
	r.lines = append(r.lines, line)
}

// note adds a human-readable line.
func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// ops adds operation outcomes.
func (r *report) ops(attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += attempted
	r.failed += failed
}

// problem records something that makes the run incorrect: a wrong output
// or an exact count that did not repeat.
func (r *report) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// absorb merges a probe's report: its op counts and problems, and those
// of its metrics r does not have yet.
func (r *report) absorb(p *report, from string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += p.attempted
	r.failed += p.failed
	r.problems = append(r.problems, p.problems...)
	for k, v := range p.metrics {
		if _, ok := r.metrics[k]; !ok {
			r.metrics[k] = v
		}
	}
	for _, l := range p.lines {
		r.lines = append(r.lines, l+"  [probe of "+from+"]")
	}
}

// keepOnly drops every metric not named in want from the result line (the
// human-readable lines keep them) and records a problem for each wanted
// metric that was not measured.
func (r *report) keepOnly(want []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range r.metrics {
		if !slices.Contains(want, k) {
			delete(r.metrics, k)
		}
	}
	for _, k := range want {
		if _, ok := r.metrics[k]; !ok {
			r.problems = append(r.problems, "metric "+k+" was not measured")
		}
	}
}

// write prints the human-readable lines, then the result line last.
func (r *report) write(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	slices.Sort(r.lines)
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// loop is the outcome of a closed-loop measurement.
type loop struct {
	lat       []float64 // ms, successful ops only
	attempted int
	failed    int
	elapsed   time.Duration
}

// closedLoop runs op from the given number of callers, each starting its
// next op only after the previous one returned, until d has elapsed. A
// caller checks the deadline only at the end of a pass of pass ops over
// its inputs, so every input is measured equally often, and calls
// boundary (if not nil) there. A zero d runs one pass. op returns the
// op's latency; an error counts as a failure.
func closedLoop(callers int, d time.Duration, pass int, boundary func(), op func(caller, i int) (time.Duration, error)) loop {
	var mu sync.Mutex
	var res loop
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if i > 0 && i%pass == 0 {
					if boundary != nil {
						boundary()
					}
					if time.Now().After(deadline) {
						return
					}
				}
				lat, err := op(c, i)
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
				} else {
					res.lat = append(res.lat, float64(lat)/float64(time.Millisecond))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// tracedLoops runs a single-caller workload for per-layer metrics. In a
// traced run it measures untraced for half the time, then traced for the
// other half, and reports the ratio as the tracing overhead; a probe runs
// one traced pass. It returns the traced loop and the tracer time at
// which it began, so that only its spans are summarised.
func tracedLoops(e *env, m mode, pass int, untraced, tracedOp func(c, i int) (time.Duration, error)) (loop, int64) {
	var plain loop
	d := time.Duration(0)
	if m == traced {
		plain = closedLoop(1, e.dur/2, pass, nil, untraced)
		e.r.ops(plain.attempted, plain.failed)
		d = e.dur / 2
	}
	from := time.Since(e.tr.epoch).Nanoseconds()
	l := closedLoop(1, d, pass, nil, tracedOp)
	e.r.ops(l.attempted, l.failed)
	if m == traced {
		overhead(e.r, plain, l)
	}
	return l, from
}

// overhead reports the tracing overhead: untraced over traced ops/s.
func overhead(r *report, plain, tr loop) {
	a := float64(len(plain.lat)) / plain.elapsed.Seconds()
	b := float64(len(tr.lat)) / tr.elapsed.Seconds()
	r.set("trace.overhead", a/b, "x", len(tr.lat), fmt.Sprintf("untraced %.4g ops/s over traced %.4g ops/s", a, b))
}

// endToEnd records the end-to-end metrics of a measured loop.
func endToEnd(r *report, l loop, setup []float64, mem *peaks) {
	ok := len(l.lat)
	r.ops(l.attempted, l.failed)
	r.set("ops_per_s", float64(ok)/l.elapsed.Seconds(), "1/s", ok, fmt.Sprintf("over %.2fs", l.elapsed.Seconds()))
	r.set("lat_p50_ms", median(l.lat), "ms", ok, "")
	note := ""
	if !tailSupported(ok, 0.95) {
		note = fmt.Sprintf("UNSUPPORTED tail: fewer than %d samples beyond p95; highest supported is p%.1f",
			tailSamples, 100*highestSupportedTail(ok))
	}
	r.set("lat_p95_ms", percentile(l.lat, 0.95), "ms", ok, note)
	r.set("setup_s", median(setup), "s", len(setup), "median of set-ups")
	r.set("mem_peak_mb", median(mem.mb), "MB", len(mem.mb), "VmHWM per window, median over windows")
	if mem.err != nil {
		r.problem("mem_peak_mb: %v", mem.err)
	}
	fr := 0.0
	if l.attempted > 0 {
		fr = float64(l.failed) / float64(l.attempted)
	}
	r.note("%-30s %14.6g %-6s n=%d  (carried by the failed/attempted fields)", "fail_ratio", fr, "ratio", l.attempted)
}

// setupRuns is how many times a workload sets itself up; setup_s is their
// median.
const setupRuns = 5

// timeSetups runs setup n times (once for a probe, which reports no
// setup_s), tearing down every instance but the last, and returns the
// durations in seconds plus the last instance.
func timeSetups[T any](m mode, n int, setup func() (T, error), teardown func(T)) ([]float64, T, error) {
	if m == probe {
		n = 1
	}
	var secs []float64
	var last T
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return nil, last, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < n-1 {
			teardown(v)
		} else {
			last = v
		}
	}
	return secs, last, nil
}

// peaks samples the resident high-water mark (VmHWM) of the process
// running the program, window by window: each sample reads the mark and
// resets it. The median over windows is steadier than one whole-run peak,
// which a single early garbage-collection cycle can set.
type peaks struct {
	proc string // "self" or a pid
	mb   []float64
	err  error
}

// newPeaks starts sampling process pid (0 = this one). For this process it
// first frees what set-up left behind.
func newPeaks(pid int) *peaks {
	p := &peaks{proc: "self"}
	if pid != 0 {
		p.proc = strconv.Itoa(pid)
	} else {
		runtime.GC()
		debug.FreeOSMemory()
	}
	p.reset()
	return p
}

func (p *peaks) reset() {
	if err := os.WriteFile("/proc/"+p.proc+"/clear_refs", []byte("5"), 0); err != nil && p.err == nil {
		p.err = fmt.Errorf("resetting VmHWM: %w", err)
	}
}

// sample ends a window.
func (p *peaks) sample() {
	b, err := os.ReadFile("/proc/" + p.proc + "/status")
	if err == nil {
		var mb float64
		if mb, err = parseVmHWM(b); err == nil {
			p.mb = append(p.mb, mb)
		}
	}
	if err != nil && p.err == nil {
		p.err = err
	}
	p.reset()
}

// every samples on its own goroutine every d until stop is closed, then
// takes a last sample and closes done.
func (p *peaks) every(d time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	t := time.NewTicker(d)
	defer t.Stop()
	defer close(done)
	for {
		select {
		case <-t.C:
			p.sample()
		case <-stop:
			p.sample()
			return
		}
	}
}

// parseVmHWM extracts VmHWM from the text of /proc/<pid>/status, in MB.
func parseVmHWM(status []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("malformed VmHWM line %q: %w", sc.Text(), err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in status")
}

// cacheCounts is the cache block of /v1/stats.
type cacheCounts struct{ hits, misses int64 }

// parseStats extracts the cache counters from a /v1/stats document.
func parseStats(b []byte) (cacheCounts, error) {
	var st server.Stats
	if err := json.Unmarshal(b, &st); err != nil {
		return cacheCounts{}, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return cacheCounts{st.Cache.Hits, st.Cache.Misses}, nil
}
