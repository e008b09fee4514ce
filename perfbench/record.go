package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"snd"
)

// recorder collects one timed phase: every op's latency by op class,
// the attempted and failed counts, and — in a traced phase — spans and
// the engine accounting of each op class. It is safe for concurrent
// use (the serve workload records from two clients and the handler).
type recorder struct {
	traced   bool
	t0       time.Time
	nextSpan atomic.Int64

	mu        sync.Mutex
	lat       map[string][]float64 // op class -> latencies in ms
	attempted int
	failed    int
	core      map[string]*coreAcct // traced only
	spans     []span               // traced only
}

func newRecorder(traced bool) *recorder {
	return &recorder{
		traced: traced,
		t0:     time.Now(),
		lat:    make(map[string][]float64),
		core:   make(map[string]*coreAcct),
	}
}

// done records one finished op of class with its latency; a non-nil
// err counts the op as failed and keeps its latency out of the
// percentiles.
func (r *recorder) done(class string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		return
	}
	r.lat[class] = append(r.lat[class], ms(d))
}

// libOp times one library call of class on eng. In a traced phase it
// also charges the call's engine Stats delta and wall time to the op
// class and records a span; fn reports the n-delta of every distance
// the call computed.
func (r *recorder) libOp(eng *snd.Engine, class string, op int64, fn func() ([]int, error)) error {
	var before snd.EngineStats
	if r.traced {
		before = eng.Stats()
	}
	start := time.Now()
	nDelta, err := fn()
	end := time.Now()
	r.done(class, end.Sub(start), err)
	if r.traced && err == nil {
		r.account(class, eng.Stats().Sub(before), end.Sub(start), nDelta)
		r.record(r.newSpan(), 0, op, "core."+class, start, end)
	}
	return err
}

// account charges one op's engine Stats delta to its op class.
func (r *recorder) account(class string, d snd.EngineStats, wall time.Duration, nDelta []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.core[class]
	if a == nil {
		a = &coreAcct{}
		r.core[class] = a
	}
	a.add(d, wall, nDelta)
}

// newSpan reserves a span id, so a child can name its parent before
// the parent's interval is known. Ids start at 1: parent 0 means root.
func (r *recorder) newSpan() int64 { return r.nextSpan.Add(1) }

// record stores the interval of a reserved span. Untraced recorders
// record nothing.
func (r *recorder) record(id, parent, op int64, name string, start, end time.Time) {
	if !r.traced {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)),
	})
}

// samples returns the sorted latencies of one op class.
func (r *recorder) samples(class string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedCopy(r.lat[class])
}

// completed is the number of ops that succeeded.
func (r *recorder) completed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempted - r.failed
}

// span is one timed interval of a traced phase, in nanoseconds since
// the phase began. Spans of one op share its Op id; Parent names the
// span that caused this one.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeSpans writes the traced phase's spans as JSON lines under dir.
func (r *recorder) writeSpans(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// coreAcct sums the engine work of one op class: the Stats deltas
// around each op (EngineStats.Sub), the ops' wall time, and the
// n-delta of every distance they computed.
type coreAcct struct {
	ops    int
	wall   time.Duration
	stats  snd.EngineStats
	nDelta []float64
}

func (a *coreAcct) add(d snd.EngineStats, wall time.Duration, nDelta []int) {
	a.ops++
	a.wall += wall
	s := &a.stats
	s.SSSPTime += d.SSSPTime
	s.FlowTime += d.FlowTime
	s.BoundTime += d.BoundTime
	s.Terms += d.Terms
	s.TermsBoundDecided += d.TermsBoundDecided
	s.TermsWarmExact += d.TermsWarmExact
	s.TermsWarmSolved += d.TermsWarmSolved
	s.FlowSolves += d.FlowSolves
	s.TermsApproxCoarse += d.TermsApproxCoarse
	s.TermsApproxGap += d.TermsApproxGap
	s.TermsApproxSinkhorn += d.TermsApproxSinkhorn
	s.Pairs += d.Pairs
	s.PairsDecided += d.PairsDecided
	for _, n := range nDelta {
		a.nDelta = append(a.nDelta, float64(n))
	}
}

// coreMetrics lists the per-op-class engine metrics, in output order
// (see coreAcct.metrics).
var coreMetrics = []metricDef{
	{"flow_ms", "ms", "lower"},
	{"sssp_ms", "ms", "lower"},
	{"bound_ms", "ms", "lower"},
	{"busy_per_wall", "ratio", "higher"},
	{"flow_solves", "count", "lower"},
	{"network_term_frac", "frac", "higher"},
	{"warm_exact_frac", "frac", "higher"},
	{"warm_transplant_frac", "frac", "higher"},
	{"bound_decided_frac", "frac", "higher"},
	{"pairs_decided_frac", "frac", "higher"},
	{"approx_decided_frac", "frac", "higher"},
	{"n_delta_p50", "count", "lower"},
}

// metrics turns the sums into the per-op-class core metrics. Times and
// flow solves are per op. Every scheduled pair has four terms; the
// engine counts the bipartite (and approximation-tier) ones in Terms,
// so the rest were routed through the network engine. All fractions
// are of the scheduled terms, except pairs_decided_frac (of pairs).
func (a *coreAcct) metrics() map[string]float64 {
	out := make(map[string]float64, len(coreMetrics))
	if a == nil || a.ops == 0 {
		return out
	}
	s, ops := a.stats, float64(a.ops)
	frac := func(num, den int64) float64 {
		if den <= 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	terms := 4 * (s.Pairs - s.PairsDecided)
	out["flow_ms"] = ms(s.FlowTime) / ops
	out["sssp_ms"] = ms(s.SSSPTime) / ops
	out["bound_ms"] = ms(s.BoundTime) / ops
	out["busy_per_wall"] = float64(s.SSSPTime+s.FlowTime+s.BoundTime) / float64(a.wall)
	out["flow_solves"] = float64(s.FlowSolves) / ops
	out["network_term_frac"] = frac(terms-s.Terms, terms)
	out["warm_exact_frac"] = frac(s.TermsWarmExact, terms)
	out["warm_transplant_frac"] = frac(s.TermsWarmSolved, terms)
	out["bound_decided_frac"] = frac(s.TermsBoundDecided, terms)
	out["pairs_decided_frac"] = frac(s.PairsDecided, s.Pairs)
	out["approx_decided_frac"] = frac(s.TermsApproxCoarse+s.TermsApproxGap+s.TermsApproxSinkhorn, terms)
	out["n_delta_p50"] = median(a.nDelta)
	return out
}
