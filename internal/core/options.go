// Package core implements Social Network Distance (SND), the paper's
// primary contribution: a distance between two states of a social
// network holding polar opinions, defined (eq. 3) as
//
//	SND(G1,G2) = 1/2 * [ EMD*(G1+, G2+, D(G1,+)) + EMD*(G1-, G2-, D(G1,-))
//	                   + EMD*(G2+, G1+, D(G2,+)) + EMD*(G2-, G1-, D(G2,-)) ]
//
// where Gi+/Gi- are the positive/negative opinion histograms and
// D(Gi,op) is the shortest-path ground distance over the opinion-
// dependent integer edge costs of eq. 2 (package opinion).
//
// Three computation engines are provided:
//
//   - EngineBipartite — the Theorem 4 pipeline: Lemma 1/2 reduce the
//     transportation problem to the n-delta users whose opinion
//     changed (plus bank bins on the lighter histogram's active
//     users), one single-source shortest path run per residual
//     supplier (or per residual consumer, on the reversed graph, when
//     the banks sit on the supplier side), then an integer min-cost
//     flow on the reduced bipartite instance.
//
//   - EngineNetwork — routes opinion mass through the social network
//     itself: graph edges become flow arcs with the eq. 2 costs and
//     bank bins become satellite nodes. Optimal flow cost equals the
//     bipartite optimum by path decomposition, with no shortest-path
//     precomputation and no quadratic cost materialization, which is
//     what scales to large n-delta.
//
//   - EngineDense — the oracle: full Johnson all-pairs ground distance
//     plus the dense EMD* of package emd. Exponentially clearer,
//     polynomially slower; used for cross-validation and as the
//     "direct solver" baseline of Fig. 11 (see Direct).
//
// All engines compute the same value exactly (tests pin this) as long
// as the default singleton bank clustering is used; coarse clusterings
// are honored exactly by EngineDense and approximated from above by
// the fast engines, which charge a bank the distance to its nearest
// member (see bankDist in term.go).
package core

import (
	"fmt"

	"snd/internal/graph"
	"snd/internal/opinion"
	"snd/internal/pqueue"
)

// ComputeEngine selects the SND computation strategy (the Engine field
// of Options).
type ComputeEngine int

const (
	// EngineAuto picks EngineBipartite when the reduced instance is
	// small enough and EngineNetwork otherwise.
	EngineAuto ComputeEngine = iota
	// EngineBipartite is the Theorem 4 SSSP + reduced-flow pipeline.
	EngineBipartite
	// EngineNetwork routes mass through the graph directly.
	EngineNetwork
	// EngineDense is the all-pairs + dense EMD* oracle.
	EngineDense
)

// String names the engine.
func (e ComputeEngine) String() string {
	switch e {
	case EngineBipartite:
		return "bipartite"
	case EngineNetwork:
		return "network"
	case EngineDense:
		return "dense"
	default:
		return "auto"
	}
}

// Options configures SND.
type Options struct {
	// Costs supplies the eq. 2 ground-cost model. The zero value is
	// replaced by DefaultGroundCosts(DefaultAgnostic).
	Costs opinion.GroundCosts
	// Gamma is the integer bank-bin ground distance (the gamma of
	// eq. 4 under singleton clusters). 0 selects 1 — the friendly-edge
	// cost scale, which follows the paper's guidance that gamma be of
	// the order of the ground distances local to the bank's cluster
	// and maximizes the spatial sensitivity of the mismatch penalty.
	// Larger values weight pure activation-volume change more heavily
	// relative to placement.
	Gamma int64
	// Engine selects the computation strategy.
	Engine ComputeEngine
	// NoBounds disables lower-bound screening everywhere: the term
	// pipeline always runs its flow solve (no LB == UB gate), Pairs and
	// Matrix never decide identical-state pairs up front, and
	// Engine.LowerBounds returns zeros, which makes the bound-first
	// nearest-neighbor scan (search.Index.NearestNeighbors) degrade to
	// exhaustive evaluation. Anomaly detection inherits the gates
	// through its Series batch (stagnant transitions decide as
	// identical pairs; decided terms skip their solves) rather than
	// through a dedicated prefilter. Distances are bit-identical either
	// way; this pins the unscreened pipeline for benchmarking and
	// tests.
	NoBounds bool
	// Clusters optionally groups users for bank allocation (nil =
	// one bank per user, the Theorem 4 setting).
	Clusters []int
	// EscapeHops thresholds the ground distance: transport between
	// users with no directed path (or one costing more) is charged
	// EscapeHops maximally-expensive virtual hops (EscapeHops * U).
	// This is the finite-cost reading of the paper's epsilon
	// probabilities for impossible events — two states are never at
	// distance infinity — with the thresholded-ground-distance
	// semantics of the EMD literature the paper cites. The threshold
	// keeps a single weakly-connected user from dominating the
	// distance on directed follower graphs. 0 selects 32; set it to
	// n+1 (or math.MaxInt32) for the untruncated shortest-path metric.
	EscapeHops int
}

// DefaultOptions returns the configuration used by the paper's
// experiments: agnostic ground costs and automatic engine choice. It
// equals the zero Options after defaulting.
func DefaultOptions() Options {
	return Options{Costs: opinion.DefaultGroundCosts(opinion.DefaultAgnostic)}
}

func (o Options) withDefaults() Options {
	if o.Costs.Model == nil {
		o.Costs = opinion.DefaultGroundCosts(opinion.DefaultAgnostic)
	}
	if o.Gamma <= 0 {
		o.Gamma = 1
	}
	if o.EscapeHops <= 0 {
		o.EscapeHops = 32
	}
	return o
}

// heap picks the Dijkstra queue for every SSSP run and SSP flow solve
// from the cost model's edge-cost bound: Dial's bucket queue while the
// bound buckets cheaply (the Assumption 2 setting), the radix heap
// beyond. The choice moves no distance bit.
func (o Options) heap() pqueue.Kind {
	return pqueue.Resolve(pqueue.KindAuto, o.Costs.MaxCost())
}

func (o Options) validate(g *graph.Digraph, a, b opinion.State) error {
	if len(a) != g.N() || len(b) != g.N() {
		return fmt.Errorf("core: states have %d/%d users, graph has %d: %w", len(a), len(b), g.N(), ErrStateSize)
	}
	for i, s := range a {
		if !s.Valid() {
			return fmt.Errorf("core: state A user %d has opinion %d: %w", i, s, ErrInvalidOpinion)
		}
	}
	for i, s := range b {
		if !s.Valid() {
			return fmt.Errorf("core: state B user %d has opinion %d: %w", i, s, ErrInvalidOpinion)
		}
	}
	if o.Clusters != nil && len(o.Clusters) != g.N() {
		return fmt.Errorf("core: %d cluster labels for %d users: %w", len(o.Clusters), g.N(), ErrClusterLabels)
	}
	return nil
}

// Result reports an SND evaluation.
type Result struct {
	// SND is the distance value (eq. 3).
	SND float64
	// Terms holds the four EMD* values in eq. 3 order:
	// (A+,B+,D(A,+)), (A-,B-,D(A,-)), (B+,A+,D(B,+)), (B-,A-,D(B,-)).
	Terms [4]float64
	// NDelta is the number of users whose opinion differs between the
	// two states.
	NDelta int
	// LB and UB are the certified envelope around the exact distance:
	// LB <= SND(exact) <= UB, with UB - LB bounded by the error budget
	// eps of the *Eps entry points. SND reports the feasible upper end
	// of the envelope, so LB <= SND <= UB always holds. On the exact
	// pipeline (eps == 0) both equal SND.
	LB, UB float64
	// SSSPRuns counts the single-source shortest-path computations the
	// evaluation charges. Engine batches may serve some of them from
	// the ground-distance cache, but the charge is reported either way
	// so results stay identical across engines, worker counts, and
	// cache configurations.
	SSSPRuns int
	// EnginesUsed records the engine that produced each term.
	EnginesUsed [4]ComputeEngine
}
