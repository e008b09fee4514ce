package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"snd"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n, p   int
		want   float64
		wantOK bool
	}{
		{0, 50, 0, false},
		{1, 50, 1, true},
		{10, 50, 5, true},
		{11, 50, 6, true},
		{10, 90, 0, false},  // one sample beyond rank 9
		{99, 90, 0, false},  // rank 90, nine beyond
		{100, 90, 90, true}, // rank 90, ten beyond
		{101, 90, 91, true}, // ceil(90.9) = 91, ten beyond
		{1000, 99, 990, true},
		{1000, 100, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.wantOK {
			t.Errorf("p%d of 1..%d = %v, %v; want %v, %v", c.p, c.n, got, ok, c.want, c.wantOK)
		}
	}
}

// TestStatsAccountingAcrossOps checks that the per-op EngineStats.Sub
// deltas the traced run sums per op class add up to the delta over the
// whole sequence: no engine work falls between ops or is counted twice.
func TestStatsAccountingAcrossOps(t *testing.T) {
	ctx := context.Background()
	g := snd.ScaleFreeGraph(graphConfig(300))
	nw := snd.NewNetwork(g, snd.DefaultOptions(), snd.EngineConfig{Workers: workers})
	defer nw.Close()
	eng := nw.Engine()
	in := prepareMonitorInputs(monitorConfig{n: 300, deltaK: 10, window: 3, eps: 5, warmTicks: 1, tickRate: 6}, 7, 1)

	rec := newRecorder(true)
	start := eng.Stats()
	cur := in.states[0]
	for i, d := range in.deltas {
		if err := rec.libOp(eng, "step", int64(i), func() ([]int, error) {
			next, res, err := nw.StepFrom(ctx, cur, d)
			cur = next
			return []int{res.NDelta}, err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.libOp(eng, "series", 100, func() ([]int, error) {
		_, err := nw.Series(ctx, in.states)
		return nil, err
	}); err != nil {
		t.Fatal(err)
	}
	if err := rec.libOp(eng, "distance", 101, func() ([]int, error) {
		res, err := nw.Distance(ctx, in.states[0], in.states[0]) // decided without compute
		return []int{res.NDelta}, err
	}); err != nil {
		t.Fatal(err)
	}
	whole := eng.Stats().Sub(start)

	var sum coreAcct
	for _, a := range rec.core {
		sum.add(a.stats, a.wall, nil)
	}
	whole.GroundRefs, whole.GroundBytes = 0, 0 // gauges, not summed
	if sum.stats != whole {
		t.Errorf("per-op deltas sum to %+v, whole sequence %+v", sum.stats, whole)
	}
	if got := rec.core["step"].ops; got != len(in.deltas) {
		t.Errorf("step ops = %d, want %d", got, len(in.deltas))
	}
	m := rec.core["distance"].metrics()
	if m["pairs_decided_frac"] != 1 || m["flow_ms"] != 0 {
		t.Errorf("identical pair: pairs_decided_frac %v, flow_ms %v; want 1, 0", m["pairs_decided_frac"], m["flow_ms"])
	}
	if len(rec.spans) != len(in.deltas)+2 {
		t.Errorf("%d spans for %d ops", len(rec.spans), len(in.deltas)+2)
	}
}

// smokeCases are the workloads at a size that runs in a second, with
// a way to corrupt one recorded output so the check must catch it.
var smokeCases = []struct {
	name     string
	headline string
	setup    func() setupFunc
	corrupt  func(bench)
}{
	{"monitor", "step",
		func() setupFunc {
			return prepareMonitor(monitorConfig{n: 150, deltaK: 5, window: 4, eps: 2, warmTicks: 4, tickRate: 3000}, 3, 1)
		},
		func(b bench) { b.(*monitorBench).stepSND[0]++ }},
	{"fullstate", "distance",
		func() setupFunc {
			return prepareFullstate(fullstateConfig{n: 60, warmPairs: 1, pairRate: 3000, checkPairs: 3}, 3, 1)
		},
		func(b bench) { b.(*fullstateBench).got[0].SND++ }},
	{"serve", "step",
		func() setupFunc {
			return prepareServe(serveConfig{n: 100, deltaK: 5, live: 3, static: 5, staticK: 5, warmSteps: 2, stepRate: 3000}, 3, 1)
		},
		func(b bench) { b.(*serveBench).stepSND[0]++ }},
}

func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Chdir(t.TempDir()) // WAL directories and spans land here
	ctx := context.Background()
	for _, c := range smokeCases {
		t.Run(c.name, func(t *testing.T) {
			setup := c.setup()
			for _, traced := range []bool{false, true} {
				cfg := config{workload: c.name, headline: c.headline, seed: 3, seconds: 1, trace: traced}
				var out bytes.Buffer
				res, err := measure(ctx, cfg, setup, &out)
				if err != nil {
					t.Fatalf("traced=%v: %v\n%s", traced, err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: %+v\n%s", traced, res, out.String())
				}
				want := endToEnd
				if traced {
					want = layerMetrics
				}
				if got, names := metricNames(res.Metrics), defNames(want); !reflect.DeepEqual(got, names) {
					t.Errorf("traced=%v: metrics %v, want %v", traced, got, names)
				}
				if !traced && res.Metrics["ok_frac"].Value != 1 {
					t.Errorf("ok_frac = %v", res.Metrics["ok_frac"].Value)
				}
			}

			// The output check must catch a wrong answer.
			var ph phases
			b, err := setup(&ph, false)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			if _, err := b.drive(ctx, newRecorder(false), time.Now().Add(200*time.Millisecond), nil); err != nil {
				t.Fatal(err)
			}
			if bad := b.check(ctx); len(bad) != 0 {
				t.Fatalf("clean run failed its check: %v", bad)
			}
			c.corrupt(b)
			if bad := b.check(ctx); len(bad) == 0 {
				t.Error("check passed a corrupted output")
			}
		})
	}
}

func TestServeTracedLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve workload")
	}
	t.Chdir(t.TempDir())
	var ph phases
	setup := smokeCases[2].setup()
	b, err := setup(&ph, true)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	rec := newRecorder(true)
	counts, err := b.drive(context.Background(), rec, time.Time{}, []int{20, 10})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 20 || counts[1] != 10 {
		t.Fatalf("ran %v ops, capped at [20 10]", counts)
	}
	l := b.layers()
	if l["wal.appends"] != 20 || l["wal.fsyncs"] < 20 {
		t.Errorf("wal.appends = %v, wal.fsyncs = %v for 20 steps under fsync=always", l["wal.appends"], l["wal.fsyncs"])
	}
	for _, k := range []string{"serve.step.handler_ms", "serve.distance.handler_ms", "http.step.overhead_ms", "http.req_bytes", "wal.bytes_per_step", "core.ground_mb"} {
		if !(l[k] > 0) {
			t.Errorf("%s = %v, want > 0", k, l[k])
		}
	}
	// Every WAL and handler span hangs off a span of the same op.
	byID := make(map[int64]span)
	for _, s := range rec.spans {
		byID[s.ID] = s
	}
	for _, s := range rec.spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Op != s.Op || p.Start > s.Start || p.End < s.End {
			t.Errorf("span %+v does not nest in its parent %+v", s, p)
		}
	}
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by perfbench", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, perfbench runs %d workloads", names, len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d] = %+v, reported %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, layerMetrics)
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "monitor", "--trace", "2"},
		{"--workload", "monitor", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}

func metricNames(m map[string]metric) []string {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func defNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}
