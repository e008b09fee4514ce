package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"snd"
)

// fullstateConfig sizes the fullstate workload.
type fullstateConfig struct {
	n          int // users
	warmPairs  int // warm-up pairs, never reused in the timed phase
	pairRate   int // pairs generated per second of run length (an upper bound on what runs)
	checkPairs int // leading pairs re-computed on the network engine
}

var fullstateSize = fullstateConfig{n: 600, warmPairs: 2, pairRate: 40, checkPairs: 3}

// fullstateInputs is the generated input: independent random pairs.
type fullstateInputs struct {
	cfg   fullstateConfig
	graph snd.ScaleFreeConfig
	warm  []snd.StatePair
	pairs []snd.StatePair
}

func prepareFullstate(cfg fullstateConfig, seed int64, seconds int) setupFunc {
	rng := rand.New(rand.NewSource(seed))
	in := &fullstateInputs{cfg: cfg, graph: graphConfig(cfg.n)}
	draw := func(count int) []snd.StatePair {
		ps := make([]snd.StatePair, count)
		for i := range ps {
			ps[i] = snd.StatePair{A: randomState(cfg.n, rng), B: randomState(cfg.n, rng)}
		}
		return ps
	}
	in.warm = draw(cfg.warmPairs)
	in.pairs = draw(cfg.pairRate * seconds)
	return func(ph *phases, _ bool) (bench, error) { return setupFullstate(in, ph) }
}

// fullstateBench computes one Distance per independent pair.
type fullstateBench struct {
	in  *fullstateInputs
	g   *snd.Graph
	nw  *snd.Network
	got []snd.Result
}

func setupFullstate(in *fullstateInputs, ph *phases) (bench, error) {
	t := time.Now()
	g := snd.ScaleFreeGraph(in.graph)
	ph.graph = time.Since(t)

	t = time.Now()
	nw := snd.NewNetwork(g, snd.DefaultOptions(), snd.EngineConfig{Workers: workers})
	ph.engine = time.Since(t)

	// No state is registered: every op ships its own pair.
	t = time.Now()
	for _, p := range in.warm {
		if _, err := nw.Distance(context.Background(), p.A, p.B); err != nil {
			nw.Close()
			return nil, fmt.Errorf("warm-up distance: %w", err)
		}
	}
	ph.warmup = time.Since(t)
	return &fullstateBench{in: in, g: g, nw: nw}, nil
}

func (f *fullstateBench) drive(ctx context.Context, rec *recorder, deadline time.Time, caps []int) ([]int, error) {
	eng := f.nw.Engine()
	ops := 0
	for _, p := range f.in.pairs {
		if (!deadline.IsZero() && !time.Now().Before(deadline)) || (caps != nil && ops >= caps[0]) {
			break
		}
		var res snd.Result
		err := rec.libOp(eng, "distance", int64(ops), func() ([]int, error) {
			var err error
			res, err = f.nw.Distance(ctx, p.A, p.B)
			return []int{res.NDelta}, err
		})
		ops++
		if err != nil {
			return []int{ops}, fmt.Errorf("pair %d: %w", ops-1, err)
		}
		f.got = append(f.got, res)
	}
	return []int{ops}, nil
}

// check recomputes the leading pairs on the network engine, which must
// agree bit for bit with whatever engine the default options chose.
func (f *fullstateBench) check(ctx context.Context) []error {
	opts := snd.DefaultOptions()
	opts.Engine = snd.EngineNetwork
	ref := snd.NewNetwork(f.g, opts, snd.EngineConfig{Workers: workers})
	defer ref.Close()
	var bad []error
	for i := 0; i < f.in.cfg.checkPairs && i < len(f.got); i++ {
		p := f.in.pairs[i]
		want, err := ref.Distance(ctx, p.A, p.B)
		if err != nil {
			return append(bad, fmt.Errorf("pair %d: network engine: %w", i, err))
		}
		if math.Float64bits(f.got[i].SND) != math.Float64bits(want.SND) {
			bad = append(bad, fmt.Errorf("pair %d: %v, network engine says %v", i, f.got[i].SND, want.SND))
		}
	}
	if len(f.got) < f.in.cfg.checkPairs {
		bad = append(bad, fmt.Errorf("only %d pairs ran, fewer than the %d checked", len(f.got), f.in.cfg.checkPairs))
	}
	return bad
}

func (f *fullstateBench) layers() map[string]float64 { return groundGauges(f.nw.Engine()) }

func (f *fullstateBench) close() { f.nw.Close() }
