package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"snd/internal/opinion"
)

// TestWarmStartMatchesCold pins the warm-start exactness claim at the
// engine level: repeated Series and Matrix traffic (the workloads whose
// second pass exact-hits retained bases, and whose overlapping
// instances transplant) is bit-identical with and without warm
// starting, across engine strategies, clusterings, and worker counts.
func TestWarmStartMatchesCold(t *testing.T) {
	g := engineTestGraph(250, 71)
	for oi, opts := range engineTestOptions(g) {
		for _, workers := range []int{1, 3} {
			we := NewEngine(g, opts, EngineConfig{Workers: workers})
			ce := NewEngine(g, opts, EngineConfig{Workers: workers, WarmCacheBytes: -1})
			states := engineTestStates(g.N(), 6, 25, int64(100+oi))
			ctx := context.Background()
			for pass := 0; pass < 2; pass++ { // second pass hits retained bases
				got, err := we.Series(ctx, states)
				if err != nil {
					t.Fatalf("opts %d workers %d pass %d: warm series: %v", oi, workers, pass, err)
				}
				want, err := ce.Series(ctx, states)
				if err != nil {
					t.Fatalf("opts %d workers %d pass %d: cold series: %v", oi, workers, pass, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("opts %d workers %d pass %d: warm series diverged:\n%v\n%v",
						oi, workers, pass, got, want)
				}
			}
			gotM, err := we.Matrix(ctx, states)
			if err != nil {
				t.Fatalf("opts %d workers %d: warm matrix: %v", oi, workers, err)
			}
			wantM, err := ce.Matrix(ctx, states)
			if err != nil {
				t.Fatalf("opts %d workers %d: cold matrix: %v", oi, workers, err)
			}
			if !reflect.DeepEqual(gotM, wantM) {
				t.Fatalf("opts %d workers %d: warm matrix diverged", oi, workers)
			}
		}
	}
}

// TestWarmStartMonitoringMatchesCold drives the transplant path the way
// nearest-neighbor and monitoring traffic does — one fixed query state
// against a slowly evolving series, where consecutive instances share
// most of their users — and pins every result to the cold pipeline.
func TestWarmStartMonitoringMatchesCold(t *testing.T) {
	g := engineTestGraph(300, 73)
	rng := rand.New(rand.NewSource(74))
	query := randState(g.N(), 0.3, rng)
	cur := perturb(query, 40, rng)
	we := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 1})
	ce := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 1, WarmCacheBytes: -1})
	ctx := context.Background()
	for tick := 0; tick < 25; tick++ {
		got, err := we.Distance(ctx, query, cur)
		if err != nil {
			t.Fatalf("tick %d: warm: %v", tick, err)
		}
		want, err := ce.Distance(ctx, query, cur)
		if err != nil {
			t.Fatalf("tick %d: cold: %v", tick, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tick %d: warm result diverged:\n%+v\n%+v", tick, got, want)
		}
		cur = perturb(cur, 3, rng)
	}
	if s := we.Stats(); s.TermsWarmExact+s.TermsWarmSolved == 0 {
		t.Fatalf("monitoring workload never warmed: %+v", s)
	}
}

// TestScreenedPairsAndMatrixMatchExhaustive pins the bounds-first
// decided passes: batches salted with identical-state pairs and
// duplicate states produce bit-identical results with and without
// screening.
func TestScreenedPairsAndMatrixMatchExhaustive(t *testing.T) {
	g := engineTestGraph(200, 75)
	states := engineTestStates(g.N(), 5, 20, 76)
	// Salt with duplicates (same content, distinct backing arrays).
	states = append(states, states[1].Clone(), states[3].Clone(), states[1].Clone())
	var pairs []StatePair
	for i := range states {
		for j := range states {
			pairs = append(pairs, StatePair{A: states[i], B: states[j]})
		}
	}
	for oi, opts := range engineTestOptions(g) {
		ex := opts
		ex.NoBounds = true
		se := NewEngine(g, opts, EngineConfig{Workers: 3})
		ee := NewEngine(g, ex, EngineConfig{Workers: 3})
		ctx := context.Background()
		got, err := se.Pairs(ctx, pairs)
		if err != nil {
			t.Fatalf("opts %d: screened pairs: %v", oi, err)
		}
		want, err := ee.Pairs(ctx, pairs)
		if err != nil {
			t.Fatalf("opts %d: exhaustive pairs: %v", oi, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("opts %d: screened pairs diverged", oi)
		}
		gotM, err := se.Matrix(ctx, states)
		if err != nil {
			t.Fatalf("opts %d: screened matrix: %v", oi, err)
		}
		wantM, err := ee.Matrix(ctx, states)
		if err != nil {
			t.Fatalf("opts %d: exhaustive matrix: %v", oi, err)
		}
		if !reflect.DeepEqual(gotM, wantM) {
			t.Fatalf("opts %d: screened matrix diverged", oi)
		}
		if oi == 0 {
			if s := se.Stats(); s.PairsDecided == 0 {
				t.Fatalf("identical pairs never decided: %+v", s)
			}
		}
	}
}

// TestEngineLowerBoundsAdmissible pins Engine.LowerBounds at or below
// the exact SND for every pair — cold (mass-mismatch term only) and
// warm (row-minima refinement against the provider's retained rows).
func TestEngineLowerBoundsAdmissible(t *testing.T) {
	const slack = 1e-9
	g := engineTestGraph(220, 77)
	for oi, opts := range engineTestOptions(g) {
		e := NewEngine(g, opts, EngineConfig{Workers: 2})
		states := engineTestStates(g.N(), 6, 30, int64(200+oi))
		var pairs []StatePair
		for i := range states {
			for j := i + 1; j < len(states); j++ {
				pairs = append(pairs, StatePair{A: states[i], B: states[j]})
			}
		}
		ctx := context.Background()
		coldLBs, err := e.LowerBounds(ctx, pairs)
		if err != nil {
			t.Fatalf("opts %d: cold bounds: %v", oi, err)
		}
		results, err := e.Pairs(ctx, pairs)
		if err != nil {
			t.Fatalf("opts %d: pairs: %v", oi, err)
		}
		warmLBs, err := e.LowerBounds(ctx, pairs) // provider rows now cached
		if err != nil {
			t.Fatalf("opts %d: warm bounds: %v", oi, err)
		}
		for k, r := range results {
			if coldLBs[k] > r.SND+slack {
				t.Fatalf("opts %d pair %d: cold bound %v > exact %v", oi, k, coldLBs[k], r.SND)
			}
			if warmLBs[k] > r.SND+slack {
				t.Fatalf("opts %d pair %d: warm bound %v > exact %v", oi, k, warmLBs[k], r.SND)
			}
			if warmLBs[k] < coldLBs[k] {
				t.Fatalf("opts %d pair %d: refinement lowered the bound: %v < %v",
					oi, k, warmLBs[k], coldLBs[k])
			}
		}
	}
}

// TestTransplantArcLayout validates the warm transplant's arc-id and
// node-id formulas against the assembly itself (the Explain arc list is
// ground truth). A wrong formula would not corrupt results — the warm
// drain repairs anything — but it would silently replay flow onto the
// wrong arcs and erase the speedup, which no exactness test can catch.
func TestTransplantArcLayout(t *testing.T) {
	g := engineTestGraph(150, 79)
	rng := rand.New(rand.NewSource(80))
	for trial := 0; trial < 40; trial++ {
		a := randState(g.N(), 0.3, rng)
		b := perturb(a, 5+rng.Intn(30), rng)
		var clusters []int
		if trial%2 == 1 {
			clusters = make([]int, g.N())
			for i := range clusters {
				clusters[i] = i % 8
			}
		}
		o := DefaultOptions()
		o.Clusters = clusters
		o = o.withDefaults()
		for term := 0; term < 4; term++ {
			spec := eqSpec(a, b, term)
			red := reduce(spec, clusters, g.N())
			if len(red.S) == 0 && len(red.C) == 0 && len(red.banks) == 0 {
				continue
			}
			_, nw, arcs, err := termBipartiteNetwork(g, spec, red, o, termCtx{}, true, 0)
			if err != nil {
				t.Fatalf("trial %d term %d: %v", trial, term, err)
			}
			nS, nC, nB := len(red.S), len(red.C), len(red.banks)
			rev := red.banksOnSupplier
			supIdx := map[int]int{}
			for i, u := range red.S {
				supIdx[int(u)] = i
			}
			conIdx := map[int]int{}
			for j, u := range red.C {
				conIdx[int(u)] = j
			}
			bankIdx := map[int]int{}
			for bi := range red.banks {
				bankIdx[int(red.banks[bi].members[0])] = bi
			}
			for _, ar := range arcs {
				var wantID int
				switch {
				case ar.fromBank:
					wantID = arcBank(rev, nS, nC, nB, bankIdx[ar.from], conIdx[ar.to])
				case ar.toBank:
					wantID = arcBank(rev, nS, nC, nB, bankIdx[ar.to], supIdx[ar.from])
				default:
					wantID = arcSC(rev, nS, nC, nB, supIdx[ar.from], conIdx[ar.to])
				}
				if ar.id != wantID {
					t.Fatalf("trial %d term %d: arc %+v: layout id %d != assembly id %d",
						trial, term, ar, wantID, ar.id)
				}
			}
			// Node formulas, checked against the declared excesses.
			for i := 0; i < nS; i++ {
				want := red.scale
				if got := nw.Excess(nodeSup(rev, nS, nB, i)); got != want {
					t.Fatalf("trial %d term %d: supplier node %d excess %d != %d", trial, term, i, got, want)
				}
			}
			for j := 0; j < nC; j++ {
				if got := nw.Excess(nodeCon(rev, nS, nB, j)); got != -red.scale {
					t.Fatalf("trial %d term %d: consumer node %d excess %d", trial, term, j, got)
				}
			}
			for bi := 0; bi < nB; bi++ {
				want := red.banks[bi].units
				if !rev {
					want = -want
				}
				if got := nw.Excess(nodeBank(rev, nS, nC, bi)); got != want {
					t.Fatalf("trial %d term %d: bank node %d excess %d != %d", trial, term, bi, got, want)
				}
			}
		}
	}
}

// TestTrackedExactHitWithStrippedBasis reproduces the crash scenario of
// a structure-only warm basis: a tracked reference state's term
// instance exact-matches a basis whose network was stripped under
// budget pressure. The tracked branch must then solve cold rather than
// transplant from the missing network.
func TestTrackedExactHitWithStrippedBasis(t *testing.T) {
	g := engineTestGraph(200, 91)
	rng := rand.New(rand.NewSource(92))
	// A 1 MiB budget keeps every structure (exact hits stay possible)
	// while interleaving several distinct instances strips the older
	// networks — exactly the structure-only exact-hit state.
	e := NewEngine(g, DefaultOptions(), EngineConfig{Workers: 1, WarmCacheBytes: 1 << 20})
	ctx := context.Background()
	prev := randState(g.N(), 0.3, rng)
	tracked := perturb(prev, 5, rng)
	var changed []int32
	for u := range prev {
		if prev[u] != tracked[u] {
			changed = append(changed, int32(u))
		}
	}
	e.AdvanceRef(prev, tracked, changed)
	query := perturb(tracked, 40, rng)
	// Enough distinct interleaved instances that the query pair's
	// re-stored bases lose their networks before the pair recurs.
	others := make([]opinion.State, 16)
	for i := range others {
		others[i] = perturb(tracked, 25+i, rng)
	}
	cold := NewEngine(g, Options{NoBounds: true}, EngineConfig{Workers: 1, WarmCacheBytes: -1})
	for round := 0; round < 4; round++ {
		got, err := e.Distance(ctx, query, tracked)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want, err := cold.Distance(ctx, query, tracked)
		if err != nil {
			t.Fatalf("round %d cold: %v", round, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d diverged: %+v vs %+v", round, got, want)
		}
		for _, o := range others {
			if _, err := e.Distance(ctx, o, tracked); err != nil {
				t.Fatalf("round %d pressure: %v", round, err)
			}
		}
	}
}

// TestMatrixValidatesDuplicateInvalidStates pins that the deduplicating
// Matrix rejects invalid input exactly like the unscreened path, even
// when every state collapses to one representative.
func TestMatrixValidatesDuplicateInvalidStates(t *testing.T) {
	g := engineTestGraph(60, 93)
	bad := make(opinion.State, g.N())
	bad[3] = 7 // invalid opinion value
	states := []opinion.State{bad, append(opinion.State(nil), bad...)}
	for _, noBounds := range []bool{false, true} {
		opts := DefaultOptions()
		opts.NoBounds = noBounds
		e := NewEngine(g, opts, EngineConfig{Workers: 1})
		if _, err := e.Matrix(context.Background(), states); err == nil {
			t.Fatalf("NoBounds=%v: invalid duplicate states accepted", noBounds)
		}
	}
}
