// Command perfbench is the repository's benchmark: one seeded,
// same-machine measurement of four workloads, end to end and layer by
// layer. Run it from the repository root through run.sh, which builds it
// and the daemons first:
//
//	bash perfbench/run.sh --workload large-library --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it measures the end-to-end metrics untraced. With
// --trace 1 it measures the workload untraced and then traced (the ratio
// is the tracing overhead), reports per-layer metrics from spans recorded
// around the calls into each layer, and runs a short traced probe of the
// other workloads so that every per-layer metric is reported. The last
// line of standard output is the result as one JSON object. WORKLOADS.md
// explains the workloads and maps each metric to its layer.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"regiongrow/internal/prand"
)

// mode selects what a workload run measures.
type mode int

const (
	timed  mode = iota // end-to-end metrics, untraced
	traced             // untraced then traced, per-layer metrics and overhead
	probe              // one short traced pass, per-layer metrics only
)

// env is what a workload run gets.
type env struct {
	seed uint64
	dur  time.Duration
	bin  string // directory holding the regiongrowd and regiongrow-gateway binaries
	tmp  string // scratch directory inside the checkout
	r    *report
	tr   *tracer
}

// derive returns the seed of one input stream of the workload.
func (e *env) derive(stream uint64) uint64 { return prand.Hash2(e.seed, stream) }

// workload is one named input set and how to drive it.
type workload struct {
	name string
	run  func(ctx context.Context, e *env, m mode) error
}

var workloads = []workload{
	{"paper-repro", runPaper},
	{"large-library", runLibrary},
	{"serve-mix", runServe},
	{"stream-16mp", runStream},
}

// endToEndMetrics and perLayerMetrics are the metric names the result
// line carries under --trace 0 and --trace 1; BENCHMARK.json lists the
// same names (pinned by a test).
var endToEndMetrics = []string{"ops_per_s", "lat_p50_ms", "lat_p95_ms", "setup_s", "mem_peak_mb"}

var perLayerMetrics = []string{
	"dpengine.segment_ms", "dpengine.segment_share",
	"mpengine.segment_ms", "mpengine.segment_share",
	"distengine.segment_ms", "distengine.segment_share",
	"mpengine.messages", "mpengine.words", "distengine.messages", "distengine.words",
	"machine.split_sim_s", "machine.merge_sim_s", "machine.merge_sim_mismatch",
	"quadsplit.split_ms", "quadsplit.split_share", "quadsplit.squares",
	"rag.build_ms", "rag.build_share", "rag.merge_ms", "rag.merge_share", "rag.merge_iters",
	"rag.relabel_ms", "rag.relabel_share",
	"core.finalize_ms", "core.finalize_share", "core.regions", "core.alloc_mb",
	"shmengine.segment_ms", "shmengine.speedup", "shmengine.speedup_1mp",
	"pixmap.decode_ms", "pixmap.decode_share", "regiongrow.hash_ms", "regiongrow.hash_share",
	"server.cache_hit_ratio", "server.cache_lookups",
	"regstats.compute_ms", "regstats.compute_share", "server.encode_ms", "server.encode_share",
	"server.residual_hit_ms", "server.residual_miss_ms", "gateway.hop_ms",
	"pixmap.stream_decode_ms", "pixmap.stream_decode_share",
	"stream.ingest_ms", "stream.ingest_share", "stream.merge_ms", "stream.merge_share",
	"stream.emit_ms", "stream.emit_share",
	"trace.overhead", "trace.reconcile",
}

func main() {
	name := flag.String("workload", "", "workload: paper-repro, large-library, serve-mix or stream-16mp")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 15, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory holding regiongrowd and regiongrow-gateway")
	tmp := flag.String("tmp", ".bench_build/tmp", "scratch directory for spools and spans")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *bin, *tmp); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, bin, tmp string) error {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
	if i < 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("bad --seconds %d or --trace %d", seconds, trace)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	ctx := context.Background()
	e := &env{seed: seed, dur: time.Duration(seconds) * time.Second, bin: bin, tmp: tmp, r: newReport()}
	want := endToEndMetrics
	if trace == 0 {
		if err := workloads[i].run(ctx, e, timed); err != nil {
			return err
		}
	} else {
		want = perLayerMetrics
		e.tr = newTracer()
		if err := workloads[i].run(ctx, e, traced); err != nil {
			return err
		}
		// The other workloads' layers come from a short traced probe each;
		// their lines are marked so they are not read as this workload's.
		for j, w := range workloads {
			if j == i {
				continue
			}
			pe := &env{seed: seed, dur: e.dur, bin: bin, tmp: tmp, r: newReport(), tr: e.tr}
			if err := w.run(ctx, pe, probe); err != nil {
				return fmt.Errorf("probe of %s: %w", w.name, err)
			}
			e.r.absorb(pe.r, w.name)
		}
		spans := filepath.Join(tmp, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := e.tr.write(spans); err != nil {
			return err
		}
		e.r.note("spans written to %s", spans)
	}
	e.r.keepOnly(want)
	return e.r.write(os.Stdout)
}
