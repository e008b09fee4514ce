// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three workloads against the public API in a single process —
// the snd.Network handle for the library workloads, the in-process
// sndserve handler over loopback HTTP for the service — checks every
// output it produced, and prints one JSON result line last:
//
//	go -C perfbench build -o ../.bench_build/perfbench . &&
//	  .bench_build/perfbench --workload monitor --seed 1 --seconds 20 --trace 0
//
// (perfbench/run.sh does exactly that from the repository root.)
//
// Workloads (the engine runs 2 workers everywhere):
//
//   - monitor: one tracked state on a scale-free graph (n = 2000)
//     advanced by StepFrom ticks of 20 changes; every 4 ticks the last
//     window is re-scored, alternately by Series and by SeriesEps.
//     The headline op is the StepFrom tick.
//   - fullstate: Distance on a fixed sequence of independent random
//     state pairs (n = 600): the flow-solver-bound worst case, where
//     caches and warm starts do almost nothing. The headline op is
//     the Distance call.
//   - serve: one tenant of the sndserve handler with a write-ahead log
//     under fsync=always; client A streams 20-change steps over 8 live
//     states while client B queries distances between distinct static
//     states, each on its own keep-alive connection. The headline op
//     is the HTTP step.
//
// Inputs are generated from --seed before set-up, so one seed always
// replays the same op sequences; the timed phase replays them for
// --seconds. With --trace 0 the result carries the end-to-end metrics
// (setup_s, heap_live_mb, ok_frac, ops_per_s, op_p50_ms, op_p90_ms).
// With --trace 1 it carries the per-layer metrics instead, from a
// traced phase that times the calls into each layer from this
// package's own code, plus the tracing overhead against an untraced
// phase over the same ops. Spans are written to .bench_build/trace/.
//
// The exit code is 0 only when every output check passed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workers sizes every engine the benchmark builds.
const workers = 2

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupRepeats = 6

// traceDir receives the traced phase's spans, relative to the checkout.
const traceDir = ".bench_build/trace"

// phases splits one set-up into the layers it builds.
type phases struct {
	graph, engine, register, warmup time.Duration
}

// setupFunc builds a ready system from already generated inputs,
// recording how long each set-up phase took. traced selects the
// instrumented variant (timing WAL filesystem, handler middleware).
type setupFunc func(ph *phases, traced bool) (bench, error)

// bench is one set-up system plus the fixed op streams it replays.
type bench interface {
	// drive replays the op streams, one goroutine per stream, until
	// the deadline (zero: none) or until stream i has run caps[i] ops
	// (nil caps: no cap), and returns the ops run per stream. An error
	// means the streams could not go on (an op failed); the ops run so
	// far are recorded.
	drive(ctx context.Context, rec *recorder, deadline time.Time, caps []int) ([]int, error)
	// check verifies every output drive produced against its
	// reference, returning one error per op that failed its check.
	check(ctx context.Context) []error
	// layers returns the workload's own per-layer metrics after a
	// traced drive, including the core ground gauges.
	layers() map[string]float64
	close()
}

// workload names the op class a workload's op_p50_ms and op_p90_ms
// time, and generates its inputs (BENCHMARK.json says why each exists).
type workload struct {
	headline string
	prepare  func(seed int64, seconds int) setupFunc
}

var workloads = map[string]workload{
	"monitor":   {headline: "step", prepare: func(seed int64, s int) setupFunc { return prepareMonitor(monitorSize, seed, s) }},
	"fullstate": {headline: "distance", prepare: func(seed int64, s int) setupFunc { return prepareFullstate(fullstateSize, seed, s) }},
	"serve":     {headline: "step", prepare: func(seed int64, s int) setupFunc { return prepareServe(serveSize, seed, s) }},
}

// opClasses are the op classes the per-layer core metrics are split by.
var opClasses = []string{"step", "series", "series_eps", "distance"}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "monitor | fullstate | serve")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced phase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload monitor|fullstate|serve, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg := config{workload: *name, headline: wl.headline, seed: *seed, seconds: *seconds, trace: *trace == 1}
	setup := wl.prepare(cfg.seed, cfg.seconds)
	res, err := measure(context.Background(), cfg, setup, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// config is one invocation's settings.
type config struct {
	workload, headline string
	seed               int64
	seconds            int
	trace              bool
}

// measure runs one workload and builds its result: end-to-end metrics
// from an untraced run, or per-layer metrics from a traced one. Human
// readable lines (run record, per-op percentiles, check failures) go
// to out before the result; an error means no result could be built.
func measure(ctx context.Context, cfg config, setup setupFunc, out io.Writer) (result, error) {
	if cfg.trace {
		return measureTraced(ctx, cfg, setup, out)
	}
	var setups []float64
	timedSetup := func() (bench, error) {
		runtime.GC() // the previous set-up's garbage is not this one's cost
		var ph phases
		start := time.Now()
		b, err := setup(&ph, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		return b, nil
	}
	// Half the set-ups run before the timed phase (the last one is the
	// system timed) and half after it, so a burst of host noise does not
	// land on all of them.
	var b bench
	for i := 0; i < setupRepeats/2; i++ {
		if b != nil {
			b.close()
		}
		var err error
		if b, err = timedSetup(); err != nil {
			return result{}, err
		}
	}
	rec := newRecorder(false)
	start := time.Now()
	_, driveErr := b.drive(ctx, rec, start.Add(time.Duration(cfg.seconds)*time.Second), nil)
	wall := time.Since(start)
	heap := heapLiveMB()
	bad := b.check(ctx)
	b.close()
	for i := setupRepeats / 2; i < setupRepeats; i++ {
		extra, err := timedSetup()
		if err != nil {
			return result{}, err
		}
		extra.close()
	}

	printRecord(out, cfg, rec)
	fmt.Fprintf(out, "setup_s n=%d %.4f\n", len(setups), setups)
	res := tally(rec, bad, out)
	if driveErr != nil {
		fmt.Fprintf(out, "drive stopped: %v\n", driveErr)
		res.Correct = false
	}
	lat := rec.samples(cfg.headline)
	p50, ok50 := percentile(lat, 50)
	p90, ok90 := percentile(lat, 90)
	if !ok50 || !ok90 {
		return result{}, fmt.Errorf("%d %s samples: too few for op_p90_ms", len(lat), cfg.headline)
	}
	vals := map[string]float64{
		"setup_s":      median(setups),
		"heap_live_mb": heap,
		"ok_frac":      okFrac(res),
		"ops_per_s":    float64(rec.completed()) / wall.Seconds(),
		"op_p50_ms":    p50,
		"op_p90_ms":    p90,
	}
	res.Metrics = collect(endToEnd, vals)
	return res, nil
}

// measureTraced runs the traced variant: an untraced phase for half the
// run length, then a fresh traced set-up replaying exactly the ops the
// untraced phase completed, so the wall-time difference is the tracing
// overhead. Per-layer metrics come from the traced phase only.
func measureTraced(ctx context.Context, cfg config, setup setupFunc, out io.Writer) (result, error) {
	var ph phases
	b, err := setup(&ph, false)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	plain := newRecorder(false)
	start := time.Now()
	half := time.Duration(cfg.seconds) * time.Second / 2
	counts, driveErr := b.drive(ctx, plain, start.Add(half), nil)
	plainWall := time.Since(start)
	bad := b.check(ctx)
	b.close()
	if driveErr != nil {
		return result{}, fmt.Errorf("untraced phase: %w", driveErr)
	}

	ph = phases{}
	if b, err = setup(&ph, true); err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	defer b.close()
	rec := newRecorder(true)
	start = time.Now()
	_, driveErr = b.drive(ctx, rec, time.Time{}, counts)
	tracedWall := time.Since(start)
	layers := b.layers()
	bad = append(bad, b.check(ctx)...)

	printRecord(out, cfg, rec)
	res := tally(rec, bad, out)
	if driveErr != nil {
		fmt.Fprintf(out, "drive stopped: %v\n", driveErr)
		res.Correct = false
	}
	if path, err := rec.writeSpans(traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)); err != nil {
		fmt.Fprintf(out, "spans not written: %v\n", err)
	} else {
		fmt.Fprintf(out, "spans: %s\n", path)
	}

	vals := map[string]float64{
		"setup.graph_ms":    ms(ph.graph),
		"setup.engine_ms":   ms(ph.engine),
		"setup.register_ms": ms(ph.register),
		"setup.warmup_ms":   ms(ph.warmup),
		"trace.overhead_ms": ms(tracedWall - plainWall),
	}
	for _, class := range opClasses {
		for k, v := range rec.core[class].metrics() {
			vals["core."+class+"."+k] = v
		}
	}
	for k, v := range layers {
		vals[k] = v
	}
	res.Metrics = collect(layerMetrics, vals)
	return res, nil
}

// collect picks the listed metrics out of vals, with their units;
// a metric vals lacks reports zero.
func collect(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, m := range defs {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

// tally turns the recorder's counts and the failed checks into the
// result's correctness fields; ops that failed their check count as
// failed, on top of the ops that returned an error.
func tally(rec *recorder, bad []error, out io.Writer) result {
	for _, err := range bad {
		fmt.Fprintf(out, "check failed: %v\n", err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return result{
		Correct:   len(bad) == 0,
		Attempted: rec.attempted,
		Failed:    rec.failed + len(bad),
	}
}

func okFrac(r result) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Attempted-r.Failed) / float64(r.Attempted)
}

// heapLiveMB is the heap in use right after forced collections: the
// live set, independent of when the collector last ran. The second
// cycle drops what sync.Pool caches keep alive through the first (the
// engine's per-call scratch), which otherwise swings the figure by a
// hundred megabytes from run to run.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// printRecord prints the run record — toolchain, host, settings — and
// every op class's percentiles with the sample count behind each.
func printRecord(out io.Writer, cfg config, rec *recorder) {
	record := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"traced":     cfg.trace,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    workers,
	}
	line, _ := json.Marshal(record) // a map of plain values always encodes
	fmt.Fprintf(out, "record %s\n", line)
	rec.mu.Lock()
	classes := make([]string, 0, len(rec.lat))
	for c := range rec.lat {
		classes = append(classes, c)
	}
	rec.mu.Unlock()
	sort.Strings(classes)
	for _, c := range classes {
		lat := rec.samples(c)
		fmt.Fprintf(out, "op %s n=%d", c, len(lat))
		for _, p := range []int{50, 75, 90, 99} {
			if v, ok := percentile(lat, p); ok {
				fmt.Fprintf(out, " %s_p%d_ms=%.3f", c, p, v)
			}
		}
		fmt.Fprintln(out)
	}
}

// cpuModel reads the processor model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metricDef names one reported metric, its unit, and which direction
// is better.
type metricDef struct{ name, unit, better string }

// endToEnd is every metric an untraced run reports, in BENCHMARK.json
// order. op_p50_ms and op_p90_ms time the workload's headline op.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"ok_frac", "frac", "higher"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
}

// layerMetrics is every per-layer metric a traced run reports, in
// BENCHMARK.json order. A layer the workload does not exercise reports
// zero.
var layerMetrics = func() []metricDef {
	var defs []metricDef
	for _, class := range opClasses {
		for _, m := range coreMetrics {
			defs = append(defs, metricDef{"core." + class + "." + m.name, m.unit, m.better})
		}
	}
	return append(defs,
		metricDef{"core.ground_mb", "MB", "lower"},
		metricDef{"core.ground_refs", "count", "lower"},
		metricDef{"serve.step.handler_ms", "ms", "lower"},
		metricDef{"serve.distance.handler_ms", "ms", "lower"},
		metricDef{"serve.step.core_busy_ms", "ms", "lower"},
		metricDef{"serve.distance.core_busy_ms", "ms", "lower"},
		metricDef{"serve.shed", "count", "lower"},
		metricDef{"http.step.overhead_ms", "ms", "lower"},
		metricDef{"http.distance.overhead_ms", "ms", "lower"},
		metricDef{"http.req_bytes", "B", "lower"},
		metricDef{"http.resp_bytes", "B", "lower"},
		metricDef{"wal.appends", "count", "lower"},
		metricDef{"wal.bytes_per_step", "B", "lower"},
		metricDef{"wal.write_ms", "ms", "lower"},
		metricDef{"wal.fsync_ms", "ms", "lower"},
		metricDef{"wal.fsyncs", "count", "lower"},
		metricDef{"setup.graph_ms", "ms", "lower"},
		metricDef{"setup.engine_ms", "ms", "lower"},
		metricDef{"setup.register_ms", "ms", "lower"},
		metricDef{"setup.warmup_ms", "ms", "lower"},
		metricDef{"trace.overhead_ms", "ms", "lower"},
	)
}()
