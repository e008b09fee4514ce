package core

import (
	"sync/atomic"
	"time"
)

// engineStats aggregates the engine's phase and screening counters.
// Every field is monotonically increasing and updated with atomics, so
// workers record without coordination and Stats() snapshots are cheap;
// deltas between two snapshots isolate one batch. The counters are
// observability only: no engine decision reads them.
type engineStats struct {
	ssspNanos  atomic.Int64 // time in the SSSP fan-out (row production)
	flowNanos  atomic.Int64 // time in transportation solves (incl. transplants)
	boundNanos atomic.Int64 // time computing bounds (term gates + pair LBs)

	terms             atomic.Int64 // bipartite terms evaluated
	termsBoundDecided atomic.Int64 // terms decided by LB == UB, no flow solve
	termsWarmExact    atomic.Int64 // terms served whole from a retained basis
	termsWarmSolved   atomic.Int64 // terms solved warm from a transplanted basis
	flowSolves        atomic.Int64 // cold flow solves (SSP or cost-scaling)

	termsApproxCoarse   atomic.Int64 // terms decided by coarse cluster-representative bounds
	termsApproxGap      atomic.Int64 // terms decided by the relaxed LB/UB row gate
	termsApproxSinkhorn atomic.Int64 // terms decided by the entropic envelope

	pairsRequested atomic.Int64 // pairs entering Pairs
	pairsDecided   atomic.Int64 // pairs decided without scheduling (identical states)
	pairBounds     atomic.Int64 // pair lower bounds computed by LowerBounds
}

// addPhase charges a wall-clock duration to one phase counter.
func addPhase(c *atomic.Int64, start time.Time) {
	c.Add(int64(time.Since(start)))
}

// EngineStats is a point-in-time snapshot of the engine's cumulative
// phase timings and screening counters (see Engine.Stats). Subtract two
// snapshots to isolate a batch; all fields grow monotonically.
type EngineStats struct {
	// SSSPTime, FlowTime, and BoundTime split the term pipeline's wall
	// clock into its three phases: shortest-path row production, the
	// transportation solves, and bound computation (term-level LB/UB
	// gates plus pair-level LowerBounds). The phases are per-worker
	// sums, so with W workers they can total W times the elapsed time.
	SSSPTime, FlowTime, BoundTime time.Duration
	// Terms counts bipartite-pipeline term evaluations;
	// TermsBoundDecided of them were closed by the integer LB == UB
	// gate, TermsWarmExact were served whole from a retained basis
	// (identical instance), and TermsWarmSolved ran a warm SSP drain
	// from a transplanted basis. FlowSolves counts the cold solves.
	Terms, TermsBoundDecided, TermsWarmExact, TermsWarmSolved, FlowSolves int64
	// TermsApproxCoarse, TermsApproxGap, and TermsApproxSinkhorn count
	// the terms the approximation tier decided within its certified
	// budget — by the coarse cluster-representative pass, by the relaxed
	// LB/UB row gate, and by the entropic solver's envelope
	// respectively. All are zero on an exact engine (eps == 0); the
	// sum is the approx-vs-exact solve split a dashboard wants.
	TermsApproxCoarse, TermsApproxGap, TermsApproxSinkhorn int64
	// Pairs counts pairs entering Engine.Pairs; PairsDecided of them
	// were answered without scheduling any term (identical states).
	// PairBounds counts pair lower bounds served by LowerBounds.
	Pairs, PairsDecided, PairBounds int64
	// GroundRefs and GroundBytes snapshot the ground-distance
	// provider's retention, merged across its lock shards: live
	// reference-state entries and the bytes they hold (cost arrays,
	// shortest-path trees, compact rows, state snapshots) against the
	// GroundCacheBytes budget. Unlike the counters above these are
	// gauges — they fall on eviction and drop to zero on Close.
	GroundRefs, GroundBytes int64
}

// Sub returns the change between two snapshots: every cumulative
// counter of s minus its value in prev, isolating the work done
// between the two Stats() calls — the windowed view a metrics scrape
// or a per-batch report needs. The gauges (GroundRefs, GroundBytes)
// are not cumulative and carry s's value through unchanged: a window
// has no meaningful "delta retention", only a current one. Sub is a
// pure value operation: s.Sub(EngineStats{}) == s, and because the
// counters grow monotonically, prev taken before s on the same engine
// yields a result whose counters are all non-negative.
func (s EngineStats) Sub(prev EngineStats) EngineStats {
	return EngineStats{
		SSSPTime:            s.SSSPTime - prev.SSSPTime,
		FlowTime:            s.FlowTime - prev.FlowTime,
		BoundTime:           s.BoundTime - prev.BoundTime,
		Terms:               s.Terms - prev.Terms,
		TermsBoundDecided:   s.TermsBoundDecided - prev.TermsBoundDecided,
		TermsWarmExact:      s.TermsWarmExact - prev.TermsWarmExact,
		TermsWarmSolved:     s.TermsWarmSolved - prev.TermsWarmSolved,
		FlowSolves:          s.FlowSolves - prev.FlowSolves,
		TermsApproxCoarse:   s.TermsApproxCoarse - prev.TermsApproxCoarse,
		TermsApproxGap:      s.TermsApproxGap - prev.TermsApproxGap,
		TermsApproxSinkhorn: s.TermsApproxSinkhorn - prev.TermsApproxSinkhorn,
		Pairs:               s.Pairs - prev.Pairs,
		PairsDecided:        s.PairsDecided - prev.PairsDecided,
		PairBounds:          s.PairBounds - prev.PairBounds,
		GroundRefs:          s.GroundRefs,
		GroundBytes:         s.GroundBytes,
	}
}

// Stats returns a snapshot of the engine's cumulative phase timings and
// warm-start/bound screening counters. Counters only grow; subtract two
// snapshots to isolate a batch. Safe for concurrent use.
func (e *Engine) Stats() EngineStats {
	s := &e.stats
	var groundRefs, groundBytes int64
	if e.prov != nil {
		groundRefs, groundBytes = e.prov.retention()
	}
	return EngineStats{
		GroundRefs:          groundRefs,
		GroundBytes:         groundBytes,
		SSSPTime:            time.Duration(s.ssspNanos.Load()),
		FlowTime:            time.Duration(s.flowNanos.Load()),
		BoundTime:           time.Duration(s.boundNanos.Load()),
		Terms:               s.terms.Load(),
		TermsBoundDecided:   s.termsBoundDecided.Load(),
		TermsWarmExact:      s.termsWarmExact.Load(),
		TermsWarmSolved:     s.termsWarmSolved.Load(),
		FlowSolves:          s.flowSolves.Load(),
		TermsApproxCoarse:   s.termsApproxCoarse.Load(),
		TermsApproxGap:      s.termsApproxGap.Load(),
		TermsApproxSinkhorn: s.termsApproxSinkhorn.Load(),
		Pairs:               s.pairsRequested.Load(),
		PairsDecided:        s.pairsDecided.Load(),
		PairBounds:          s.pairBounds.Load(),
	}
}
