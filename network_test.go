package snd

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

func networkTestFixture(t *testing.T, n, count int, seed int64) (*Graph, []State) {
	t.Helper()
	g := ScaleFreeGraph(ScaleFreeConfig{N: n, OutDeg: 4, Exponent: -2.3, Reciprocity: 0.3, Seed: seed})
	ev := NewEvolution(g, n/10, seed+1)
	states := []State{ev.State()}
	for i := 1; i < count; i++ {
		states = append(states, ev.Step(0.2, 0.02))
	}
	return g, states
}

// TestNetworkStructuredErrors checks every structured error is
// reachable through the public API and detectable with errors.Is.
func TestNetworkStructuredErrors(t *testing.T) {
	g, states := networkTestFixture(t, 60, 3, 33)
	ctx := context.Background()
	nw := NewNetwork(g, DefaultOptions(), EngineConfig{})
	defer nw.Close()
	ok := states[0]

	// ErrStateSize: wrong-length state, via batch and tracked paths.
	short := NewState(10)
	if _, err := nw.Distance(ctx, ok, short); !errors.Is(err, ErrStateSize) {
		t.Errorf("short state: err = %v, want ErrStateSize", err)
	}
	if err := nw.SetState(short); !errors.Is(err, ErrStateSize) {
		t.Errorf("SetState short: err = %v, want ErrStateSize", err)
	}

	// ErrInvalidOpinion: out-of-domain opinion value.
	bad := ok.Clone()
	bad[0] = Opinion(5)
	if _, err := nw.Distance(ctx, ok, bad); !errors.Is(err, ErrInvalidOpinion) {
		t.Errorf("bad opinion: err = %v, want ErrInvalidOpinion", err)
	}
	if err := nw.SetState(bad); !errors.Is(err, ErrInvalidOpinion) {
		t.Errorf("SetState bad opinion: err = %v, want ErrInvalidOpinion", err)
	}

	// ErrClusterLabels: clusters of the wrong length.
	badOpts := DefaultOptions()
	badOpts.Clusters = []int{0, 1}
	cnw := NewNetwork(g, badOpts, EngineConfig{})
	defer cnw.Close()
	if _, err := cnw.Distance(ctx, ok, states[1]); !errors.Is(err, ErrClusterLabels) {
		t.Errorf("bad clusters: err = %v, want ErrClusterLabels", err)
	}

	// ErrShortSeries: series and anomaly pipelines with < 2 states.
	if _, err := nw.Series(ctx, states[:1]); !errors.Is(err, ErrShortSeries) {
		t.Errorf("1-state Series: err = %v, want ErrShortSeries", err)
	}
	if _, err := nw.DetectAnomalies(ctx, nil); !errors.Is(err, ErrShortSeries) {
		t.Errorf("empty DetectAnomalies: err = %v, want ErrShortSeries", err)
	}
	if _, err := DetectAnomalies(nil, HammingMeasure(g.N())); !errors.Is(err, ErrShortSeries) {
		t.Errorf("free DetectAnomalies(nil): err = %v, want ErrShortSeries", err)
	}
	if _, err := DetectAnomalies(states[:1], HammingMeasure(g.N())); !errors.Is(err, ErrShortSeries) {
		t.Errorf("free DetectAnomalies(1 state): err = %v, want ErrShortSeries", err)
	}

	// Delta validation: out-of-range user and invalid opinion.
	if err := nw.SetState(ok); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Apply(StateDelta{{User: g.N(), Opinion: Positive}}); !errors.Is(err, ErrStateSize) {
		t.Errorf("delta out of range: err = %v, want ErrStateSize", err)
	}
	if _, err := nw.Apply(StateDelta{{User: 0, Opinion: Opinion(-3)}}); !errors.Is(err, ErrInvalidOpinion) {
		t.Errorf("delta bad opinion: err = %v, want ErrInvalidOpinion", err)
	}
	fresh := NewNetwork(g, DefaultOptions(), EngineConfig{})
	defer fresh.Close()
	if _, err := fresh.Apply(StateDelta{{User: 0, Opinion: Positive}}); !errors.Is(err, ErrStateSize) {
		t.Errorf("Apply before SetState: err = %v, want ErrStateSize", err)
	}

	// ErrEngineClosed: the whole handle fails after Close.
	closed := NewNetwork(g, DefaultOptions(), EngineConfig{})
	closed.Close()
	if _, err := closed.Distance(ctx, ok, states[1]); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("closed Distance: err = %v, want ErrEngineClosed", err)
	}
	if _, _, err := closed.Explain(ctx, ok, states[1]); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("closed Explain: err = %v, want ErrEngineClosed", err)
	}
	if err := closed.SetState(ok); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("closed SetState: err = %v, want ErrEngineClosed", err)
	}
	if _, err := closed.Apply(nil); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("closed Apply: err = %v, want ErrEngineClosed", err)
	}
	if _, err := closed.Step(ctx, nil); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("closed Step: err = %v, want ErrEngineClosed", err)
	}

	// Closing the exposed engine closes the whole handle (the engine is
	// the single source of truth for closedness).
	viaEngine := NewNetwork(g, DefaultOptions(), EngineConfig{})
	viaEngine.Engine().Close()
	if _, _, err := viaEngine.Explain(ctx, ok, states[1]); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("Explain after Engine().Close(): err = %v, want ErrEngineClosed", err)
	}
	if err := viaEngine.SetState(ok); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("SetState after Engine().Close(): err = %v, want ErrEngineClosed", err)
	}
}

// TestNetworkCancellation checks ctx.Err() propagation through the
// handle's batch methods and Step.
func TestNetworkCancellation(t *testing.T) {
	g, states := networkTestFixture(t, 120, 4, 35)
	nw := NewNetwork(g, DefaultOptions(), EngineConfig{})
	defer nw.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := nw.Pairs(cancelled, []StatePair{{A: states[0], B: states[1]}}); !errors.Is(err, context.Canceled) {
		t.Errorf("Pairs: err = %v, want context.Canceled", err)
	}
	if _, err := nw.Series(cancelled, states); !errors.Is(err, context.Canceled) {
		t.Errorf("Series: err = %v, want context.Canceled", err)
	}
	if _, err := nw.Matrix(cancelled, states); !errors.Is(err, context.Canceled) {
		t.Errorf("Matrix: err = %v, want context.Canceled", err)
	}
	if _, err := nw.DetectAnomalies(cancelled, states); !errors.Is(err, context.Canceled) {
		t.Errorf("DetectAnomalies: err = %v, want context.Canceled", err)
	}
	if err := nw.SetState(states[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Step(cancelled, StateDelta{{User: 0, Opinion: Positive}}); !errors.Is(err, context.Canceled) {
		t.Errorf("Step: err = %v, want context.Canceled", err)
	}
	// Step's state advance happens regardless of the cancelled
	// distance evaluation (documented), and the handle keeps working.
	cur, _ := nw.Current()
	if cur[0] != Positive {
		t.Error("cancelled Step did not advance the tracked state")
	}
	if _, err := nw.Step(context.Background(), StateDelta{{User: 1, Opinion: Negative}}); err != nil {
		t.Errorf("Step after cancellation: %v", err)
	}
}

// TestNetworkDeltaRoundTrip pins the incremental-state layer against
// full-state recomputation: a delta stream must produce exactly the
// states — and exactly the distances — that shipping every full state
// would.
func TestNetworkDeltaRoundTrip(t *testing.T) {
	g, states := networkTestFixture(t, 130, 10, 37)
	ctx := context.Background()
	nw := NewNetwork(g, DefaultOptions(), EngineConfig{})
	defer nw.Close()
	if err := nw.SetState(states[0]); err != nil {
		t.Fatal(err)
	}
	if cur, v := nw.Current(); v != 1 || cur.DiffCount(states[0]) != 0 {
		t.Fatalf("after SetState: version %d, diff %d", v, cur.DiffCount(states[0]))
	}
	// 9 ticks of deltas exercise the provider's tracked window (states
	// scroll through it, refunding their retained bytes).
	for i := 1; i < len(states); i++ {
		var delta StateDelta
		prev, cur := states[i-1], states[i]
		for u := range cur {
			if cur[u] != prev[u] {
				delta = append(delta, OpinionChange{User: u, Opinion: cur[u]})
			}
		}
		got, err := nw.Step(ctx, delta)
		if err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
		want, err := freshDistance(g, prev, cur, DefaultOptions())
		if err != nil {
			t.Fatalf("full recompute %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tick %d: Step %+v != full-state Distance %+v", i, got, want)
		}
		snapshot, version := nw.Current()
		if version != uint64(i+1) {
			t.Errorf("tick %d: version %d, want %d", i, version, i+1)
		}
		if snapshot.DiffCount(cur) != 0 {
			t.Errorf("tick %d: tracked state diverged from full state", i)
		}
	}
	// Quiet ticks: an empty delta is a zero-distance self-transition
	// and must not disturb the tracked state (its cache entries stay
	// live — eviction skips content still in the window).
	for i := 0; i < 6; i++ {
		res, err := nw.Step(ctx, nil)
		if err != nil {
			t.Fatalf("empty Step %d: %v", i, err)
		}
		if res.SND != 0 || res.NDelta != 0 {
			t.Errorf("empty Step %d: SND=%v NDelta=%d, want zeros", i, res.SND, res.NDelta)
		}
	}
	if cur, _ := nw.Current(); cur.DiffCount(states[len(states)-1]) != 0 {
		t.Error("empty Steps changed the tracked state")
	}

	// Apply (without distance) also matches, and duplicate changes
	// resolve last-wins.
	rng := rand.New(rand.NewSource(39))
	u := rng.Intn(g.N())
	next, err := nw.Apply(StateDelta{
		{User: u, Opinion: Negative},
		{User: u, Opinion: Positive},
	})
	if err != nil {
		t.Fatal(err)
	}
	if next[u] != Positive {
		t.Errorf("duplicate delta entries: got %v, want last-wins Positive", next[u])
	}
	// Snapshots returned earlier stay valid: the final full state must
	// still equal states[len-1] except for the applied change.
	last, _ := nw.Current()
	if last.DiffCount(states[len(states)-1]) > 1 {
		t.Error("Apply mutated history it should have copied")
	}
}
