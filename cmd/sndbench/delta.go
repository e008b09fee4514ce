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

type deltaSnapshot struct {
	GoVersion    string  `json:"go_version"`
	GOOS         string  `json:"goos"`
	GOARCH       string  `json:"goarch"`
	CPUModel     string  `json:"cpu_model"`
	CPUs         int     `json:"cpus"`
	Workers      int     `json:"workers"`
	Users        int     `json:"users"`
	Edges        int     `json:"edges"`
	Ticks        int     `json:"ticks"`
	DeltaSize    int     `json:"delta_size"`
	VolatilePool int     `json:"volatile_pool"`
	StepSeconds  float64 `json:"step_seconds"`
	FullSeconds  float64 `json:"full_setstate_seconds"`
	Speedup      float64 `json:"speedup"`
	Checksum     float64 `json:"distance_checksum"`
}

// runDelta measures the incremental monitoring path: Network.Step with
// a k-user delta per tick (ground costs patched, shortest-path trees
// repaired from the previous tick) against shipping the full state and
// recomputing (SetState + Distance on a handle that never sees a
// delta). Ticks flip users from a small volatile pool — the contested
// users that flip repeatedly in polar dynamics — so repairable trees
// recur the way they do in a real monitoring stream. Distances are
// verified bit-identical between the two paths every tick.
func runDelta(sc scale, seed int64) {
	n := sc.fig12N
	const (
		k      = 8  // users flipped per tick (acceptance: k <= 8)
		pool   = 32 // volatile users supplying the flips
		warmup = 24
		ticks  = 60
	)
	g := snd.ScaleFreeGraph(snd.ScaleFreeConfig{
		N: n, OutDeg: 6, Exponent: -2.3, Reciprocity: 0.2, Seed: seed + 80,
	})
	rng := rand.New(rand.NewSource(seed + 81))
	fmt.Printf("Delta: Step (patch + repair) vs SetState full recompute, |V| = %d, |E| = %d, %d-user deltas (clustered banks), %d ticks\n\n",
		g.N(), g.M(), k, ticks)

	// ~3%% of users are active; the volatile pool is drawn from the
	// whole graph and flips among all three opinions.
	st := snd.NewState(n)
	for i := range st {
		if rng.Float64() < 0.03 {
			st[i] = snd.Opinion(1 - 2*rng.Intn(2))
		}
	}
	volatile := make([]int, pool)
	for i := range volatile {
		volatile[i] = rng.Intn(n)
	}
	nextDelta := func(cur snd.State) snd.StateDelta {
		var d snd.StateDelta
		used := make(map[int]bool, k)
		for len(d) < k {
			u := volatile[rng.Intn(pool)]
			if used[u] {
				continue
			}
			used[u] = true
			op := snd.Opinion(rng.Intn(3) - 1)
			for op == cur[u] {
				op = snd.Opinion(rng.Intn(3) - 1)
			}
			d = append(d, snd.OpinionChange{User: u, Opinion: op})
		}
		return d
	}

	ctx := context.Background()
	opts := snd.DefaultOptions()
	// Coarse bank bins (the paper's Fig. 4 clustering, recommended for
	// weakly-connected digraphs): both paths use the identical
	// configuration, so the comparison stays apples-to-apples while the
	// mass-mismatch flow stays proportional to the cluster count
	// rather than the active-user count.
	opts.Clusters = snd.BFSClusterLabels(g, 64)
	// Pin warm starts and bound screening off: this experiment isolates
	// the delta patch/repair path, and the term-level gates would blur
	// what each tick actually recomputes (the flow experiment measures
	// them).
	opts.NoBounds = true
	cold := snd.EngineConfig{WarmCacheBytes: -1}
	warm := snd.NewNetwork(g, opts, cold)
	defer warm.Close()
	full := snd.NewNetwork(g, opts, cold)
	defer full.Close()
	if err := warm.SetState(st); err != nil {
		fatalf("delta: %v", err)
	}

	var stepDur, fullDur time.Duration
	var checksum float64
	cur := st.Clone()
	for tick := 0; tick < warmup+ticks; tick++ {
		delta := nextDelta(cur)
		next := cur.Clone()
		for _, ch := range delta {
			next[ch.User] = ch.Opinion
		}

		start := time.Now()
		stepRes, err := warm.Step(ctx, delta)
		stepTick := time.Since(start)
		if err != nil {
			fatalf("delta step %d: %v", tick, err)
		}

		// The full path ships the complete state and recomputes: no
		// lineage, so every tick rematerializes costs and reruns SSSP.
		start = time.Now()
		if err := full.SetState(next); err != nil {
			fatalf("delta full SetState %d: %v", tick, err)
		}
		fullRes, err := full.Distance(ctx, cur, next)
		fullTick := time.Since(start)
		if err != nil {
			fatalf("delta full distance %d: %v", tick, err)
		}

		if stepRes.SND != fullRes.SND || stepRes.Terms != fullRes.Terms {
			fatalf("delta tick %d: Step diverged from full recompute: %v != %v",
				tick, stepRes.SND, fullRes.SND)
		}
		if tick >= warmup {
			stepDur += stepTick
			fullDur += fullTick
			checksum += stepRes.SND
		}
		cur = next
	}

	speedup := fullDur.Seconds() / stepDur.Seconds()
	fmt.Printf("%-28s %v  (%.2f ms/tick)\n", "SetState full recompute", fullDur.Round(time.Millisecond),
		1000*fullDur.Seconds()/float64(ticks))
	fmt.Printf("%-28s %v  (%.2f ms/tick)\n", "Step (delta path)", stepDur.Round(time.Millisecond),
		1000*stepDur.Seconds()/float64(ticks))
	fmt.Printf("%-28s %.2fx\n", "speedup", speedup)
	fmt.Printf("%-28s %.3f (identical across both paths)\n", "distance checksum", checksum)

	if benchJSONPath == "" {
		return
	}
	snap := deltaSnapshot{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CPUModel:     hostCPUModel(),
		CPUs:         runtime.NumCPU(),
		Workers:      warm.Engine().Workers(),
		Users:        g.N(),
		Edges:        g.M(),
		Ticks:        ticks,
		DeltaSize:    k,
		VolatilePool: pool,
		StepSeconds:  stepDur.Seconds(),
		FullSeconds:  fullDur.Seconds(),
		Speedup:      speedup,
		Checksum:     checksum,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatalf("delta snapshot: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(benchJSONPath, data, 0o644); err != nil {
		fatalf("delta snapshot: %v", err)
	}
	fmt.Printf("\nsnapshot written to %s\n", benchJSONPath)
}
