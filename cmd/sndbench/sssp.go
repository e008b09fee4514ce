package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"snd"
)

type ssspCrossoverRow struct {
	NDelta          int     `json:"n_delta"`
	SND             float64 `json:"snd"`
	BipartiteMS     float64 `json:"bipartite_ms"`
	NetworkMS       float64 `json:"network_ms"`
	BipartiteFaster bool    `json:"bipartite_faster"`
}

type ssspSnapshot struct {
	GoVersion       string             `json:"go_version"`
	GOOS            string             `json:"goos"`
	GOARCH          string             `json:"goarch"`
	CPUModel        string             `json:"cpu_model"`
	CPUs            int                `json:"cpus"`
	Users           int                `json:"users"`
	Edges           int                `json:"edges"`
	States          int                `json:"states"`
	PrunedSeconds   float64            `json:"pruned_series_seconds"`
	PrunedColdSec   float64            `json:"pruned_cold_series_seconds"`
	ParallelWorkers int                `json:"parallel_workers"`
	ParallelSeconds float64            `json:"parallel_series_seconds"`
	ParallelSpeedup float64            `json:"parallel_speedup"`
	Checksum        float64            `json:"distance_checksum"`
	CrossoverN      int                `json:"crossover_users"`
	Crossover       []ssspCrossoverRow `json:"crossover"`
}

// runSSSP measures the goal-pruned, bucket-queued SSSP fan-out on the
// Pairs/Series workload: one evolution series over a 20k-user
// scale-free network, every adjacent SND, with one worker and then
// with all workers to show the intra-term stealing factor. Distances
// are verified bit-identical across both runs. A second section probes
// the EngineAuto bipartite-vs-network crossover and verifies both
// engines return the bit-identical distance on every row; the
// committed BENCH_sssp.json snapshot is what the heuristic constants in
// internal/core/term.go cite.
func runSSSP(sc scale, seed int64) {
	n, count := sc.ssspN, sc.ssspStates
	g := snd.ScaleFreeGraph(snd.ScaleFreeConfig{
		N: n, OutDeg: 6, Exponent: -2.3, Reciprocity: 0.2, Seed: seed + 90,
	})
	ev := snd.NewEvolution(g, n/10, seed+91)
	states := make([]snd.State, count)
	for i := range states {
		states[i] = ev.StepSample(n/20, 0.15, 0.01)
	}
	fmt.Printf("SSSP fan-out: goal-pruned, |V| = %d, |E| = %d, %d states\n\n",
		g.N(), g.M(), count)
	ctx := context.Background()
	// Coarse bank bins (the paper's Fig. 4 clustering, as in the delta
	// experiment): the mass-mismatch flow stays proportional to the
	// cluster count, so the measurement isolates the fan-out cost.
	opts := snd.DefaultOptions()
	opts.Clusters = snd.BFSClusterLabels(g, 64)
	// Pin warm starts and bound screening off: this experiment isolates
	// the SSSP fan-out, and warm bases would serve the measured second
	// pass whole (the flow experiment measures them).
	opts.NoBounds = true

	series := func(workers int) ([]float64, time.Duration, time.Duration) {
		nw := snd.NewNetwork(g, opts, snd.EngineConfig{Workers: workers, WarmCacheBytes: -1})
		defer nw.Close()
		// The first pass is the cold cost (nothing retained yet); the
		// second is the steady state the batch pipelines see once the
		// provider's retention is populated, mirroring the engine
		// experiment's warm measurement.
		coldStart := time.Now()
		if _, err := nw.Series(ctx, states); err != nil {
			fatalf("sssp cold series: %v", err)
		}
		cold := time.Since(coldStart)
		start := time.Now()
		out, err := nw.Series(ctx, states)
		if err != nil {
			fatalf("sssp series: %v", err)
		}
		return out, time.Since(start), cold
	}

	prunedRes, prunedDur, prunedCold := series(1)
	workers := runtime.GOMAXPROCS(0)
	parRes, parDur, _ := series(workers)

	var checksum float64
	for i := range prunedRes {
		if parRes[i] != prunedRes[i] {
			fatalf("sssp step %d diverged: 1 worker %v, %d workers %v",
				i, prunedRes[i], workers, parRes[i])
		}
		checksum += prunedRes[i]
	}
	parSpeedup := prunedDur.Seconds() / parDur.Seconds()
	fmt.Printf("%-30s %v  (cold %v)\n", "goal-pruned (1 worker)", prunedDur.Round(time.Millisecond), prunedCold.Round(time.Millisecond))
	fmt.Printf("%-30s %v  (%d workers)\n", "goal-pruned (all workers)", parDur.Round(time.Millisecond), workers)
	fmt.Printf("%-30s %.2fx\n", "parallel speedup", parSpeedup)
	fmt.Printf("%-30s %.3f (identical across both runs)\n\n", "distance checksum", checksum)

	// Crossover probe: where does the EngineAuto heuristic flip on the
	// pruned pipeline? Uniformly scattered flips are the bipartite
	// engine's worst case (no locality for the pruned ball), so the
	// crossover read off here is conservative.
	xn := 10000
	if xn > n {
		xn = n
	}
	xg := snd.ScaleFreeGraph(snd.ScaleFreeConfig{
		N: xn, OutDeg: 6, Exponent: -2.3, Reciprocity: 0.2, Seed: seed + 92,
	})
	rng := rand.New(rand.NewSource(seed + 93))
	base := snd.NewState(xn)
	for i := range base {
		if rng.Float64() < 0.05 {
			base[i] = snd.Opinion(1 - 2*rng.Intn(2))
		}
	}
	timeDistance := func(a, b snd.State, engine snd.ComputeEngine) (float64, float64) {
		opts := snd.DefaultOptions()
		opts.Engine = engine
		nw := snd.NewNetwork(xg, opts, snd.EngineConfig{Workers: 1, GroundCacheBytes: -1})
		defer nw.Close()
		start := time.Now()
		res, err := nw.Distance(ctx, a, b)
		if err != nil {
			fatalf("sssp crossover: %v", err)
		}
		return res.SND, float64(time.Since(start).Microseconds()) / 1000
	}
	fmt.Printf("crossover probe (|V| = %d, uniform flips):\n", xn)
	fmt.Printf("%8s %14s %14s %16s\n", "ndelta", "bipartite ms", "network ms", "snd")
	var rows []ssspCrossoverRow
	for _, nd := range []int{250, 1000, 2500} {
		b := base.Clone()
		flipped := 0
		for flipped < nd {
			u := rng.Intn(xn)
			op := snd.Opinion(rng.Intn(3) - 1)
			if b[u] != op {
				b[u] = op
				flipped++
			}
		}
		row := ssspCrossoverRow{NDelta: nd}
		var netSND float64
		row.SND, row.BipartiteMS = timeDistance(base, b, snd.EngineBipartite)
		netSND, row.NetworkMS = timeDistance(base, b, snd.EngineNetwork)
		if row.SND != netSND {
			fatalf("sssp crossover ndelta=%d: bipartite %v != network %v", nd, row.SND, netSND)
		}
		row.BipartiteFaster = row.BipartiteMS < row.NetworkMS
		rows = append(rows, row)
		fmt.Printf("%8d %14.1f %14.1f %16.3f\n", nd, row.BipartiteMS, row.NetworkMS, row.SND)
	}

	if benchJSONPath == "" {
		return
	}
	snap := ssspSnapshot{
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		CPUModel:        hostCPUModel(),
		CPUs:            runtime.NumCPU(),
		Users:           g.N(),
		Edges:           g.M(),
		States:          count,
		PrunedSeconds:   prunedDur.Seconds(),
		PrunedColdSec:   prunedCold.Seconds(),
		ParallelWorkers: workers,
		ParallelSeconds: parDur.Seconds(),
		ParallelSpeedup: parSpeedup,
		Checksum:        checksum,
		CrossoverN:      xn,
		Crossover:       rows,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatalf("sssp snapshot: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(benchJSONPath, data, 0o644); err != nil {
		fatalf("sssp snapshot: %v", err)
	}
	fmt.Printf("\nsnapshot written to %s\n", benchJSONPath)
}
