package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"snd"
)

// monitorConfig sizes the monitor workload.
type monitorConfig struct {
	n         int     // users
	deltaK    int     // opinion changes per tick
	window    int     // ticks per re-scored window
	eps       float64 // SeriesEps budget, about 1% of a tick's SND
	warmTicks int     // warm-up ticks, on a branch the timed phase never visits
	tickRate  int     // ticks generated per second of run length (an upper bound on what runs)
}

var monitorSize = monitorConfig{n: 2000, deltaK: 20, window: 4, eps: 20, warmTicks: 8, tickRate: 100}

// monitorInputs is the monitor workload's generated input: the graph
// recipe and two trajectories from one random base state.
type monitorInputs struct {
	cfg        monitorConfig
	graph      snd.ScaleFreeConfig
	warmDeltas []snd.StateDelta
	warmStates []snd.State
	deltas     []snd.StateDelta
	states     []snd.State // states[0] is the base; states[t+1] follows deltas[t]
}

func prepareMonitor(cfg monitorConfig, seed int64, seconds int) setupFunc {
	in := prepareMonitorInputs(cfg, seed, seconds)
	return func(ph *phases, _ bool) (bench, error) { return setupMonitor(in, ph) }
}

func prepareMonitorInputs(cfg monitorConfig, seed int64, seconds int) *monitorInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &monitorInputs{cfg: cfg, graph: graphConfig(cfg.n)}
	base := randomState(cfg.n, rng)
	in.warmDeltas, in.warmStates = trajectory(base, cfg.warmTicks, cfg.deltaK, rng)
	in.deltas, in.states = trajectory(base, cfg.tickRate*seconds, cfg.deltaK, rng)
	return in
}

// monitorBench tracks one state through StepFrom ticks and re-scores
// each completed window of ticks, alternating exact and certified
// approximate series.
type monitorBench struct {
	in *monitorInputs
	nw *snd.Network

	stepSND []float64 // SND of tick t, as StepFrom reported it
	windows []windowRec
	bad     []error // drive-time output mismatches
}

// windowRec is one re-scored window: the ticks it covers and its result.
type windowRec struct {
	first  int          // first tick covered
	exact  []float64    // Series values (exact windows)
	approx []snd.Result // SeriesEps envelopes (approximate windows)
}

func setupMonitor(in *monitorInputs, ph *phases) (bench, error) {
	ctx := context.Background()
	t := time.Now()
	g := snd.ScaleFreeGraph(in.graph)
	ph.graph = time.Since(t)

	t = time.Now()
	nw := snd.NewNetwork(g, snd.DefaultOptions(), snd.EngineConfig{Workers: workers})
	ph.engine = time.Since(t)

	t = time.Now()
	if err := nw.SetState(in.states[0]); err != nil {
		nw.Close()
		return nil, err
	}
	ph.register = time.Since(t)

	t = time.Now()
	cur := in.warmStates[0]
	for _, d := range in.warmDeltas {
		next, _, err := nw.StepFrom(ctx, cur, d)
		if err != nil {
			nw.Close()
			return nil, fmt.Errorf("warm-up step: %w", err)
		}
		cur = next
	}
	w := in.cfg.window
	if _, err := nw.Series(ctx, in.warmStates[len(in.warmStates)-w-1:]); err != nil {
		nw.Close()
		return nil, fmt.Errorf("warm-up series: %w", err)
	}
	if _, err := nw.SeriesEps(ctx, in.warmStates[len(in.warmStates)-w-1:], in.cfg.eps); err != nil {
		nw.Close()
		return nil, fmt.Errorf("warm-up series: %w", err)
	}
	ph.warmup = time.Since(t)
	return &monitorBench{in: in, nw: nw}, nil
}

func (m *monitorBench) drive(ctx context.Context, rec *recorder, deadline time.Time, caps []int) ([]int, error) {
	in, eng := m.in, m.nw.Engine()
	w := in.cfg.window
	ops := 0
	more := func() bool {
		return (deadline.IsZero() || time.Now().Before(deadline)) && (caps == nil || ops < caps[0])
	}
	traj := []snd.State{in.states[0]}
	for t := 0; t < len(in.deltas) && more(); t++ {
		var next snd.State
		var res snd.Result
		err := rec.libOp(eng, "step", int64(ops), func() ([]int, error) {
			var err error
			next, res, err = m.nw.StepFrom(ctx, traj[t], in.deltas[t])
			return []int{res.NDelta}, err
		})
		ops++
		if err != nil {
			return []int{ops}, fmt.Errorf("tick %d: %w", t, err)
		}
		if !equalStates(next, in.states[t+1]) {
			m.bad = append(m.bad, fmt.Errorf("tick %d: StepFrom returned a state that differs from the applied delta", t))
		}
		traj = append(traj, next)
		m.stepSND = append(m.stepSND, res.SND)
		if (t+1)%w != 0 || !more() {
			continue
		}
		rw := windowRec{first: t + 1 - w}
		states := traj[rw.first:]
		nDelta := make([]int, w)
		for i := range nDelta {
			nDelta[i] = states[i].DiffCount(states[i+1])
		}
		if len(m.windows)%2 == 0 {
			err = rec.libOp(eng, "series", int64(ops), func() ([]int, error) {
				var err error
				rw.exact, err = m.nw.Series(ctx, states)
				return nDelta, err
			})
		} else {
			err = rec.libOp(eng, "series_eps", int64(ops), func() ([]int, error) {
				var err error
				rw.approx, err = m.nw.SeriesEps(ctx, states, in.cfg.eps)
				return nDelta, err
			})
		}
		ops++
		if err != nil {
			return []int{ops}, fmt.Errorf("window at tick %d: %w", t, err)
		}
		m.windows = append(m.windows, rw)
	}
	return []int{ops}, nil
}

// check holds every window to the ticks it covers: exact values must be
// bit-identical to the StepFrom SND of the same pair, and approximate
// envelopes must contain it within the budget.
func (m *monitorBench) check(context.Context) []error {
	bad := append([]error(nil), m.bad...)
	eps := m.in.cfg.eps
	for _, w := range m.windows {
		if w.exact != nil {
			for i, v := range w.exact {
				if want := m.stepSND[w.first+i]; math.Float64bits(v) != math.Float64bits(want) {
					bad = append(bad, fmt.Errorf("series tick %d: %v, StepFrom said %v", w.first+i, v, want))
				}
			}
			continue
		}
		for i, r := range w.approx {
			want := m.stepSND[w.first+i]
			if !(r.LB <= want && want <= r.UB && r.UB-r.LB <= eps) {
				bad = append(bad, fmt.Errorf("series_eps tick %d: envelope [%v, %v] vs exact %v, budget %v", w.first+i, r.LB, r.UB, want, eps))
			}
		}
	}
	return bad
}

func (m *monitorBench) layers() map[string]float64 { return groundGauges(m.nw.Engine()) }

func (m *monitorBench) close() { m.nw.Close() }

// groundGauges reports the ground-distance provider's retention.
func groundGauges(eng *snd.Engine) map[string]float64 {
	s := eng.Stats()
	return map[string]float64{
		"core.ground_mb":   float64(s.GroundBytes) / 1e6,
		"core.ground_refs": float64(s.GroundRefs),
	}
}
