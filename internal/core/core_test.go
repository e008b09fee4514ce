package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"snd/internal/graph"
	"snd/internal/opinion"
	"snd/internal/pqueue"
)

func randState(n int, activeFrac float64, rng *rand.Rand) opinion.State {
	st := opinion.NewState(n)
	for i := range st {
		if rng.Float64() < activeFrac {
			if rng.Float64() < 0.5 {
				st[i] = opinion.Positive
			} else {
				st[i] = opinion.Negative
			}
		}
	}
	return st
}

// perturb flips k random users' opinions.
func perturb(st opinion.State, k int, rng *rand.Rand) opinion.State {
	out := st.Clone()
	for i := 0; i < k; i++ {
		u := rng.Intn(len(out))
		switch rng.Intn(3) {
		case 0:
			out[u] = opinion.Positive
		case 1:
			out[u] = opinion.Negative
		default:
			out[u] = opinion.Neutral
		}
	}
	return out
}

func TestDistanceIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.ErdosRenyi(40, 240, 1)
	st := randState(40, 0.4, rng)
	for _, engine := range []ComputeEngine{EngineBipartite, EngineNetwork, EngineDense} {
		opts := DefaultOptions()
		opts.Engine = engine
		res, err := Distance(g, st, st, opts)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if res.SND != 0 {
			t.Errorf("%v: SND(s,s) = %v, want 0", engine, res.SND)
		}
		if res.NDelta != 0 {
			t.Errorf("%v: NDelta = %d", engine, res.NDelta)
		}
	}
}

func TestDistanceSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.ErdosRenyi(30, 180, 2)
	for trial := 0; trial < 10; trial++ {
		a := randState(30, 0.4, rng)
		b := perturb(a, 5, rng)
		opts := DefaultOptions()
		ab, err := Distance(g, a, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := Distance(g, b, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ab.SND-ba.SND) > 1e-9*math.Max(1, ab.SND) {
			t.Fatalf("trial %d: SND(a,b)=%v != SND(b,a)=%v", trial, ab.SND, ba.SND)
		}
	}
}

// TestEnginesAgree is the heart of the Theorem 4 claim: the reduced
// bipartite pipeline and the network-routed flow compute exactly the
// dense-oracle value (singleton banks).
func TestEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 12; trial++ {
		n := 15 + rng.Intn(25)
		g := graph.ErdosRenyi(n, 6*n, int64(trial))
		a := randState(n, 0.3+0.3*rng.Float64(), rng)
		b := perturb(a, 1+rng.Intn(8), rng)
		var values [3]float64
		for i, engine := range []ComputeEngine{EngineBipartite, EngineNetwork, EngineDense} {
			opts := DefaultOptions()
			opts.Engine = engine
			res, err := Distance(g, a, b, opts)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, engine, err)
			}
			values[i] = res.SND
		}
		if math.Abs(values[0]-values[2]) > 1e-6*math.Max(1, values[2]) {
			t.Fatalf("trial %d: bipartite %v != dense %v", trial, values[0], values[2])
		}
		if math.Abs(values[1]-values[2]) > 1e-6*math.Max(1, values[2]) {
			t.Fatalf("trial %d: network %v != dense %v", trial, values[1], values[2])
		}
	}
}

// TestDirectMatchesFast: the un-reduced simplex baseline equals the
// fast engines (Lemmas 1 and 2 are exact).
func TestDirectMatchesFast(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		n := 12 + rng.Intn(15)
		g := graph.ErdosRenyi(n, 5*n, int64(100+trial))
		a := randState(n, 0.4, rng)
		b := perturb(a, 1+rng.Intn(6), rng)
		opts := DefaultOptions()
		fast, err := Distance(g, a, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := Direct(g, a, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast.SND-direct.SND) > 1e-6*math.Max(1, direct.SND) {
			t.Fatalf("trial %d: fast %v != direct %v (terms %v vs %v)",
				trial, fast.SND, direct.SND, fast.Terms, direct.Terms)
		}
	}
}

func TestDisconnectedGraph(t *testing.T) {
	// Two components; opinion moves across require the escape hatch and
	// both fast engines must agree on the saturated cost.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(2, 3)
	b.AddEdge(3, 2)
	// 4, 5 isolated.
	g := b.Build()
	a := opinion.State{opinion.Positive, opinion.Neutral, opinion.Neutral, opinion.Neutral, opinion.Neutral, opinion.Neutral}
	c := opinion.State{opinion.Neutral, opinion.Neutral, opinion.Neutral, opinion.Neutral, opinion.Positive, opinion.Neutral}
	var vals []float64
	for _, engine := range []ComputeEngine{EngineBipartite, EngineNetwork, EngineDense} {
		opts := DefaultOptions()
		opts.Engine = engine
		res, err := Distance(g, a, c, opts)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		vals = append(vals, res.SND)
	}
	if vals[0] != vals[1] || vals[0] != vals[2] {
		t.Errorf("engines disagree on disconnected graph: %v", vals)
	}
	if vals[0] <= 0 {
		t.Error("disconnected move should cost > 0")
	}
}

func TestMassMismatchOnlyPositive(t *testing.T) {
	// b adds activations; SND must be positive even though no user
	// flipped between + and -.
	g := graph.Ring(10)
	a := opinion.NewState(10)
	a[0] = opinion.Positive
	b := a.Clone()
	b[5] = opinion.Positive
	res, err := Distance(g, a, b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.SND <= 0 {
		t.Errorf("SND = %v, want > 0 for a new activation", res.SND)
	}
	if res.NDelta != 1 {
		t.Errorf("NDelta = %d, want 1", res.NDelta)
	}
}

// TestPropagationCheaperThanTeleport is the SND-level Fig. 5 check: a
// new activation adjacent to existing same-opinion mass costs less
// than one far from it.
func TestPropagationCheaperThanTeleport(t *testing.T) {
	g := graph.Ring(20)
	base := opinion.NewState(20)
	base[0] = opinion.Positive
	near := base.Clone()
	near[1] = opinion.Positive // neighbor of the active user
	far := base.Clone()
	far[10] = opinion.Positive // diametrically opposite
	opts := DefaultOptions()
	dNear, err := Distance(g, base, near, opts)
	if err != nil {
		t.Fatal(err)
	}
	dFar, err := Distance(g, base, far, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dNear.SND >= dFar.SND {
		t.Errorf("near activation %v should cost less than far %v", dNear.SND, dFar.SND)
	}
}

// TestAdverseBlocking: propagating + through a wall of - users costs
// more than through neutral users (the competition the ground distance
// encodes).
func TestAdverseBlocking(t *testing.T) {
	// Path: 0 -> 1 -> 2; activation appears at 2; user 1 is the wall.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	mk := func(wall opinion.Opinion) (opinion.State, opinion.State) {
		a := opinion.State{opinion.Positive, wall, opinion.Neutral}
		c := a.Clone()
		c[2] = opinion.Positive
		return a, c
	}
	opts := DefaultOptions()
	aN, bN := mk(opinion.Neutral)
	dNeutral, err := Distance(g, aN, bN, opts)
	if err != nil {
		t.Fatal(err)
	}
	aA, bA := mk(opinion.Negative)
	dAdverse, err := Distance(g, aA, bA, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dAdverse.SND <= dNeutral.SND {
		t.Errorf("adverse wall %v should cost more than neutral %v", dAdverse.SND, dNeutral.SND)
	}
}

func TestValidationErrors(t *testing.T) {
	g := graph.Ring(4)
	good := opinion.NewState(4)
	if _, err := Distance(g, opinion.NewState(3), good, DefaultOptions()); err == nil {
		t.Error("state size mismatch accepted")
	}
	bad := good.Clone()
	bad[0] = opinion.Opinion(7)
	if _, err := Distance(g, bad, good, DefaultOptions()); err == nil {
		t.Error("invalid opinion accepted")
	}
	opts := DefaultOptions()
	opts.Clusters = []int{0, 1}
	if _, err := Distance(g, good, good, opts); err == nil {
		t.Error("short cluster labels accepted")
	}
}

func TestSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.ErdosRenyi(20, 120, 3)
	states := []opinion.State{randState(20, 0.4, rng)}
	for i := 0; i < 3; i++ {
		states = append(states, perturb(states[len(states)-1], 3, rng))
	}
	e := NewEngine(g, DefaultOptions(), EngineConfig{})
	defer e.Close()
	out, err := e.Series(context.Background(), states)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("len = %d, want 3", len(out))
	}
	if _, err := e.Series(context.Background(), states[:1]); err == nil {
		t.Error("single-state series accepted")
	}
}

func TestClusteredBanksUpperBoundDense(t *testing.T) {
	// With coarse clusters the fast engines charge a bank the distance
	// to its nearest member, approximating the dense oracle's
	// inter-cluster bank distance from above; both fast engines agree.
	rng := rand.New(rand.NewSource(8))
	g := graph.ErdosRenyi(24, 140, 5)
	clusters := make([]int, 24)
	for i := range clusters {
		clusters[i] = i % 4
	}
	a := randState(24, 0.5, rng)
	b := perturb(a, 6, rng)
	optsF := DefaultOptions()
	optsF.Clusters = clusters
	optsF.Engine = EngineBipartite
	fast, err := Distance(g, a, b, optsF)
	if err != nil {
		t.Fatal(err)
	}
	optsN := optsF
	optsN.Engine = EngineNetwork
	net, err := Distance(g, a, b, optsN)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast.SND-net.SND) > 1e-9*math.Max(1, fast.SND) {
		t.Errorf("bipartite %v != network %v under clustering", fast.SND, net.SND)
	}
}

// TestEngineAutoSwitches drives EngineAuto across its size rule: a
// small reduced instance runs the bipartite pipeline, and one whose
// reduced node count exceeds max(n/4, 1000) routes through the network.
func TestEngineAutoSwitches(t *testing.T) {
	g := graph.ErdosRenyi(2000, 10000, 7)
	// Small churn: every term's reduced instance has multiple suppliers
	// and consumers, far below the size limit.
	a := opinion.NewState(g.N())
	b := opinion.NewState(g.N())
	for i := 0; i < 4; i++ {
		a[i] = opinion.Positive
		b[4+i] = opinion.Positive
		a[8+i] = opinion.Negative
		b[12+i] = opinion.Negative
	}
	res, err := Distance(g, a, b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.EnginesUsed {
		if res.Terms[i] > 0 && e != EngineBipartite {
			t.Errorf("small churn: term %d used %v, want bipartite", i, e)
		}
	}
	if res.SSSPRuns == 0 {
		t.Error("bipartite engine should report SSSP runs")
	}
	// Large churn: 600 positive users move elsewhere, so each positive
	// term reduces to 1200 residual users, above the 1000-node limit.
	a = opinion.NewState(g.N())
	b = opinion.NewState(g.N())
	for i := 0; i < 600; i++ {
		a[i] = opinion.Positive
		b[600+i] = opinion.Positive
	}
	res, err = Distance(g, a, b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.EnginesUsed {
		if res.Terms[i] > 0 && e != EngineNetwork {
			t.Errorf("large churn: term %d used %v, want network", i, e)
		}
	}
}

func TestEngineNames(t *testing.T) {
	names := map[string]bool{}
	for _, e := range []ComputeEngine{EngineAuto, EngineBipartite, EngineNetwork, EngineDense} {
		names[e.String()] = true
	}
	if len(names) != 4 {
		t.Errorf("engine names collide: %v", names)
	}
}

// TestAutoSolverThreshold runs bipartite terms on each side of the
// SSP/cost-scaling threshold (sspNodeLimit reduced-instance nodes) and
// pins both to the network engine, which always runs cost-scaling.
func TestAutoSolverThreshold(t *testing.T) {
	g := graph.ErdosRenyi(1500, 7500, 13)
	rng := rand.New(rand.NewSource(14))
	a := randState(g.N(), 0.3, rng)
	for _, c := range []struct {
		name  string
		flips int
		large bool
	}{{"ssp", 20, false}, {"cost-scaling", 2000, true}} {
		b := perturb(a, c.flips, rng)
		// The positive A+ -> B+ term decides which solver runs.
		red := reduce(termSpec{op: opinion.Positive, p: a, q: b, ref: a}, nil, g.N())
		if nodes := len(red.S) + len(red.C) + len(red.banks); (nodes > sspNodeLimit) != c.large {
			t.Fatalf("%s: fixture reduces to %d nodes, wrong side of %d", c.name, nodes, sspNodeLimit)
		}
		// NoBounds keeps the row gate from deciding terms without a
		// flow solve.
		bip := DefaultOptions()
		bip.Engine = EngineBipartite
		bip.NoBounds = true
		net := bip
		net.Engine = EngineNetwork
		got, err := Distance(g, a, b, bip)
		if err != nil {
			t.Fatalf("%s: bipartite: %v", c.name, err)
		}
		want, err := Distance(g, a, b, net)
		if err != nil {
			t.Fatalf("%s: network: %v", c.name, err)
		}
		if got.Terms != want.Terms || got.SND != want.SND {
			t.Errorf("%s: bipartite %v %v != network %v %v", c.name, got.SND, got.Terms, want.SND, want.Terms)
		}
	}
}

// TestAutoQueueChoice covers the Dijkstra queue the cost model selects:
// Dial's bucket queue under the default unit costs, the radix heap once
// per-user stubbornness pushes the edge-cost bound past the bucket
// limit. Either way the automatic engine matches the network engine
// bit for bit and the dense oracle within float tolerance.
func TestAutoQueueChoice(t *testing.T) {
	g := graph.ErdosRenyi(200, 1200, 15)
	rng := rand.New(rand.NewSource(16))
	stubborn := DefaultOptions()
	stubborn.Costs.PerUserIn = make([]int32, g.N())
	for i := range stubborn.Costs.PerUserIn {
		stubborn.Costs.PerUserIn[i] = int32(rng.Intn(6000))
	}
	a := randState(g.N(), 0.3, rng)
	b := perturb(a, 25, rng)
	for _, c := range []struct {
		name string
		opts Options
		want pqueue.Kind
	}{{"dial", DefaultOptions(), pqueue.KindDial}, {"radix", stubborn, pqueue.KindRadix}} {
		if got := c.opts.withDefaults().heap(); got != c.want {
			t.Fatalf("%s: cost bound %d resolves to %v", c.name, c.opts.Costs.MaxCost(), got)
		}
		auto, err := Distance(g, a, b, c.opts)
		if err != nil {
			t.Fatalf("%s: auto: %v", c.name, err)
		}
		net := c.opts
		net.Engine = EngineNetwork
		nres, err := Distance(g, a, b, net)
		if err != nil {
			t.Fatalf("%s: network: %v", c.name, err)
		}
		if auto.SND != nres.SND {
			t.Errorf("%s: auto %v != network %v", c.name, auto.SND, nres.SND)
		}
		dense := c.opts
		dense.Engine = EngineDense
		dres, err := Distance(g, a, b, dense)
		if err != nil {
			t.Fatalf("%s: dense: %v", c.name, err)
		}
		if math.Abs(auto.SND-dres.SND) > 1e-9*math.Max(1, dres.SND) {
			t.Errorf("%s: auto %v != dense %v", c.name, auto.SND, dres.SND)
		}
	}
}
