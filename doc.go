// Package snd is a Go implementation of Social Network Distance (SND),
// the distance measure for network states with polar opinions from
//
//	V. Amelkin, A. K. Singh, P. Bogdanov.
//	"A Distance Measure for the Analysis of Polar Opinion Dynamics in
//	Social Networks." (arXiv:1510.05058)
//
// A social network is a directed graph of users; a network state
// assigns each user a polar opinion: Positive, Negative, or Neutral.
// SND quantifies the cost of evolving one state into another as an
// optimal-transportation problem whose costs follow the pathways and
// the competition of opinion propagation: users spread friendly
// opinions cheaply and adverse opinions expensively, so the same
// number of opinion changes is near when it follows the network's
// structure and far when it does not.
//
// # The Network handle
//
// The package's primary entry point is Network: a long-lived handle
// over one graph that serves every workload — batch distances, the
// anomaly pipeline, metric-space search, and online monitoring of an
// evolving state.
//
//	b := snd.NewGraphBuilder(4)
//	b.AddEdge(0, 1)
//	b.AddEdge(1, 2)
//	b.AddEdge(2, 3)
//	g := b.Build()
//
//	nw := snd.NewNetwork(g, snd.DefaultOptions(), snd.EngineConfig{})
//	defer nw.Close()
//
//	before := snd.NewState(4)
//	before[0] = snd.Positive
//	after := before.Clone()
//	after[1] = snd.Positive // opinion reached a follower
//
//	d, err := nw.DistanceValue(ctx, before, after)
//
// # Lifecycle
//
// Construct one Network per graph and reuse it: the handle owns a
// concurrent compute engine whose per-worker scratch arenas and
// sharded ground-distance cache amortize across calls. A handle owns no
// goroutines between calls — its idle footprint is memory. Close
// releases the cache immediately and fails all further calls with an
// error wrapping ErrEngineClosed; everything derived from the handle
// (Network.Measure measures, Network.Index indexes) shares its engine
// and dies with it.
//
// # Context semantics
//
// Every batch entry point — Network.Distance, Pairs, Series, Matrix,
// Explain, DetectAnomalies, Step, the predictors' Predict, and the
// StateIndex search methods — takes a context.Context first. A
// cancelled context makes the call return ctx.Err(); cancellation is
// observed at term boundaries, between the SSSP runs inside a term,
// and between the pushes of the min-cost-flow solvers, so a cancelled
// request releases the worker pool within one such step. With an
// un-cancelled context, results are bit-identical to sequential
// one-pair loops for any worker count (pinned by tests under the race
// detector).
//
// # Incremental state (deltas)
//
// Online monitoring wants the state shipped once and then kept current
// cheaply. Network tracks a state for exactly that:
//
//	nw.SetState(initial)                  // full state crosses once
//	res, err := nw.Step(ctx, snd.StateDelta{
//	        {User: 17, Opinion: snd.Positive},
//	        {User: 4242, Opinion: snd.Neutral},
//	})                                    // SND(previous, current)
//
// Apply advances the state without computing a distance; Current
// returns the tracked snapshot and its version. Updates copy-on-write,
// so snapshots returned earlier stay valid.
//
// # The delta-aware ground-distance provider
//
// Every delta routed through Step or Apply also feeds the engine's
// ground-distance provider, the subsystem that owns the materialized
// eq. 2 edge costs and the per-source shortest-path trees behind each
// distance evaluation. A delta invalidates nothing: retained entries
// are immutable, and the new reference state's data is derived lazily,
// on first use, from the retained state at the smallest opinion diff —
// cost arrays are cloned and patched over only the edges incident to
// the changed users, and shortest-path trees are cloned and repaired
// Ramalingam-Reps-style over that same dirty edge set. A repair falls
// back to a full Dijkstra when the delta invalidated too much of a
// tree (an unsupported region beyond a quarter of the users), and
// derivation is skipped entirely for diffs wider than n/8 users or
// for cost models whose penalties aggregate over neighborhoods (ICC,
// LinearThreshold — only the model-agnostic costs patch locally).
// Either way the distances are bit-identical to a full SetState
// recompute (pinned by randomized tests); the delta path is purely a
// cost decision, making Step scale with |delta| instead of the graph.
//
// Retention is provider-owned: reference states reported by a delta
// ride a fixed window (deep enough for contested users that flip again
// within a few ticks to find a repairable tree) and are refunded
// against the EngineConfig.GroundCacheBytes budget as they scroll out,
// so an endless monitoring stream cannot leak the budget away. On
// graphs whose per-state footprint is large relative to the budget the
// window shortens itself rather than starve the newest states. Batch
// reference states (Pairs/Matrix traffic) are retained first-come
// until the budget is spent, as before.
//
// The provider's mutable state is sharded, not global: entries are
// spread across 32 independent lock domains by reference-state
// fingerprint, each owning its slice of the map and a small diff
// memo, so concurrent terms touching different reference states never
// contend on one mutex. The byte budget stays whole — one lock-free
// atomic drawn on only by retention and eviction — so a single
// reference state's working set can still use the entire
// GroundCacheBytes. Published entries are immutable — readers lock
// only to look up, never to use — and racing derivations resolve
// first-writer-wins. Engine.Stats merges per-shard retention into the
// GroundRefs/GroundBytes gauges. See docs/ARCHITECTURE.md for the
// full data-ownership and lock-ordering rules.
//
// # The goal-pruned SSSP fan-out
//
// The Theorem 4 pipeline consumes, per EMD* term, only the ground
// distances from each residual supplier to the residual consumers and
// bank members. The fan-out therefore runs a goal-set-pruned Dijkstra:
// each per-source search stops as soon as every queried target is
// settled or the frontier passes the saturation cost (beyond which
// every distance is charged the same escape cost), and rows are stored
// target-indexed — proportional to the reduced instance, not the
// graph. Pruning is exact on the queried columns, so distances are
// bit-identical to the network engine, which runs no fan-out at all
// (pinned by property tests).
//
// Retention differs by reference-state kind. Tracked states (the
// delta-monitoring window) keep exact full rows with parent trees —
// they are the repair donors Step's incremental path derives from.
// Untracked (batch) states retain compact rows capped at the
// saturation cost, a third of a tree's bytes, so Series and Matrix
// traffic that revisits a reference state keeps hitting at scales
// where full-tree retention would thrash; the caps never change a
// result bit because term assembly saturates at the same threshold.
// Once the budget is spent the fan-out computes pruned rows into
// per-worker scratch and retains nothing.
//
// Within one term the per-source searches are independent: engine
// workers that run out of terms steal them (a single Distance call has
// only four terms, so the fifth and later workers contribute entirely
// through this), with row placement fixed up front so any claim order
// produces identical bits.
//
// The engine picks the Dijkstra queue by the cost model's edge-cost
// bound: Dial's bucket queue while the bound buckets cheaply
// (Assumption 2 costs always do), the radix heap beyond; both queues
// are pooled in the worker scratch arenas.
//
// # Warm-started transportation solves
//
// Each engine worker retains a budgeted ring of recently solved term
// instances — the routed flow and the final node potentials (the
// duals), keyed by reference-state fingerprint, opinion, orientation,
// and the reduced supplier/consumer/bank user lists. The retained
// duals live as long as their basis stays within the worker's budget
// (EngineConfig.WarmCacheBytes, default 64 MiB split across workers);
// retention is two-tier, so a basis's cheap structure (which serves
// whole-instance exact hits) outlives its expensive network (which
// serves transplants). A term that exactly matches a retained basis is
// answered from it outright — except for tracked (delta-monitoring)
// reference states, whose fan-out must still run to materialize repair
// donors. A term that overlaps a basis replays its flow and potentials
// by user identity, restores dual feasibility by saturating
// negative-reduced-cost residual arcs, and resumes successive shortest
// paths from the retained potentials; past an invalidation threshold
// (the saturation moved more than half the supply) it falls back to a
// cold solve on the spot. The transportation optimum is unique, so
// distances are bit-identical either way; a negative
// EngineConfig.WarmCacheBytes pins the cold pipeline, and Engine.Stats
// reports exact hits, transplants, and phase timings.
//
// # Lower-bound screening
//
// Admissible lower bounds let batch consumers skip exact solves for
// pairs the bound can decide, changing no result bit. Term-level: once
// a term's rows are in hand, an integer lower bound (nearest-target
// partition minima) and a greedy feasible upper bound cost one scan;
// when they coincide the flow solve is skipped. Pair-level:
// Engine.LowerBounds bounds whole SND values with no shortest-path or
// flow work — the eq. 3 mass-mismatch term |sum P - sum Q| * Gamma per
// term, refined by nearest-target minima over rows the ground provider
// already retains — and NearestNeighbors on an engine-backed index
// evaluates candidates bounds-first, stopping once the next bound
// exceeds the k-th best exact distance. Pairs decides identical-state
// pairs up front and Matrix elides duplicate states entirely.
// Options.NoBounds disables all of it, pinning the exhaustive
// pipeline.
//
// The same bounds are exposed over raw histograms as emd.Bounds (in
// the internal emd package, for the dense oracle path): admissibility
// holds unconditionally for EMD (every unit of the lighter histogram
// pays at least its nearest-massive-bin distance) and for Hat and
// Alpha (that bound plus the exact additive mismatch penalty; Alpha
// equals Hat by Theorem 2), and for Star under the semimetric
// assumption (d(i,i) = 0) its own Lemma 1/2 reduction already makes.
//
// # Certified approximation
//
// The Eps entry points — Network.DistanceEps, PairsEps, SeriesEps,
// and MatrixEps — trade accuracy for speed under a certified error
// contract. Each returned distance carries an envelope
// [Result.LB, Result.UB] satisfying
//
//	LB <= SND <= UB,  UB - LB <= eps,  LB <= exact <= UB
//
// so the reported value is within eps of the exact distance, with
// the bound computed (not estimated) by the engine: the lower end is
// an admissible bound and the upper end is the cost of a feasible
// transport plan, per term. The approximation tier has three stages,
// each sound on its own: a multilevel cluster-bank pass that runs the
// shortest-path fan-out column-wise from the small side of the
// reduced instance — one run per residual consumer plus one
// multi-source run per cluster bank on the transpose graph — so the
// coarsened cost matrix is exact while the fan-out collapses from one
// run per supplier to one per column, with the envelope refined on
// that same matrix (row bounds, then an entropic solve, finally an
// exact min-cost-flow solve); the row-level screening bounds of the
// exact pipeline, accepted when their gap fits the budget rather than
// only when they coincide; and an entropic (Sinkhorn) transport solve
// whose rounded plan and repaired duals certify an envelope on
// mid-size instances. Terms no stage decides fall through to the
// exact solver, so the contract holds for every input — eps only
// controls how often the cheap stages win.
//
// eps = 0 disables every approximate stage and is bit-identical to the
// exact entry points, for any worker count.
// Exact results carry the degenerate envelope LB = UB = SND.
// Engine.Stats reports how many terms each stage decided
// (TermsApproxCoarse, TermsApproxGap, TermsApproxSinkhorn);
// Options.NoBounds pins the exhaustive pipeline and disables the
// approximation gates along with the screening bounds.
//
// # Errors
//
// Input validation fails with errors wrapping the structured sentinels
// ErrStateSize, ErrInvalidOpinion, ErrClusterLabels, ErrShortSeries,
// ErrDeltaIndex, ErrBadEpsilon, and ErrEngineClosed; branch with
// errors.Is. A malformed StateDelta entry (user index out of range,
// invalid opinion value) wraps ErrDeltaIndex together with the
// matching shape sentinel.
//
// # What is inside
//
// The package re-exports the full pipeline of the paper:
//
//   - Network / Engine: the handle and its concurrent batch compute
//     layer. Engine remains available (Network.Engine) for callers
//     that want the lower level.
//   - SND itself (eq. 3), computed exactly in time near-linear in the
//     number of users via the Theorem 4 reduction (Options selects
//     engines, solvers, ground-cost models, and Dijkstra heaps).
//   - EMDStar: the generalized Earth Mover's Distance EMD* (eq. 4)
//     with local bank bins, plus the classic EMD, EMD-hat and
//     EMD-alpha variants for comparison.
//   - Ground-cost models: model-agnostic penalties, Independent
//     Cascade with Competition, and competitive Linear Threshold
//     (Section 3).
//   - Baseline distance measures (hamming, quad-form, walk-dist, ...),
//     the anomaly-detection pipeline of Section 6.2, and the opinion
//     prediction methods of Section 6.3.
//   - Synthetic data: scale-free network generation, the Section 6.1
//     opinion evolution process, and a Twitter-like corpus generator
//     with a labelled 2008-2011 event timeline.
//
// The cmd/sndbench tool regenerates every table and figure of the
// paper's evaluation section, plus the engine, delta, sssp, flow, and
// scalingcores experiments behind the committed BENCH_baseline.json,
// BENCH_delta.json, BENCH_sssp.json, BENCH_flow.json, and
// BENCH_scaling.json snapshots. docs/ARCHITECTURE.md maps the layers
// and their locking rules; docs/PERFORMANCE.md is the tuning handbook
// (every knob, every snapshot, how to read Engine.Stats).
//
// # Serving
//
// cmd/sndserve hosts the library as a long-running multi-tenant
// monitoring service (HTTP+JSON, package snd/internal/serve): a
// tenant registry of Network handles, streaming delta ingestion over
// StepFrom, snapshot-isolated queries that pin the state versions
// they opened with, bounded-in-flight admission control with
// per-request deadlines, and per-tenant Engine.Stats in Prometheus
// text at /metrics. cmd/sndload drives mixed traffic at a server,
// verifies sampled responses bit-identical against direct library
// calls, and writes the committed BENCH_serve.json latency snapshot.
//
// With -data-dir the server is durable: every acked mutation is
// written ahead to a CRC-framed WAL (snd/internal/wal) under the
// default fsync-before-ack policy, periodic snapshot checkpoints
// compact the log, and startup replays snapshot + tail so recovered
// states are bit-identical to the pre-crash ones (acked data is never
// lost; an unacked torn tail truncates cleanly). A failing disk
// degrades the server to read-only — ingest answers 503 Degraded,
// queries keep serving — rather than crashing, and /readyz separates
// readiness (replay done, not degraded) from /healthz liveness.
// The README's "Running the server" section is the quickstart;
// docs/ARCHITECTURE.md ("The serving layer", "Durability") has the
// design.
package snd
