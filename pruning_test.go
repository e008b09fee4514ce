package snd

import (
	"context"
	"reflect"
	"testing"
)

// TestNetworkPruningAndParallelInvariance pins, at the public Network
// level, that the goal-pruned SSSP fan-out and intra-term work
// stealing change no result bit: whole-series distances match the
// network engine (which runs no fan-out) with one worker and with
// many, including the tracked delta path (Step).
func TestNetworkPruningAndParallelInvariance(t *testing.T) {
	g, states := networkTestFixture(t, 200, 6, 77)
	ctx := context.Background()

	ref := DefaultOptions()
	ref.Engine = EngineNetwork
	baseline := NewNetwork(g, ref, EngineConfig{Workers: 1})
	defer baseline.Close()
	want, err := baseline.Series(ctx, states)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		nw := NewNetwork(g, DefaultOptions(), EngineConfig{Workers: workers})
		got, err := nw.Series(ctx, states)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: pruned series diverged from network engine:\n%v\n%v", workers, got, want)
		}
		nw.Close()
	}

	// The tracked delta path: Step distances must match the network
	// engine fed the same states.
	warm := NewNetwork(g, DefaultOptions(), EngineConfig{Workers: 4})
	defer warm.Close()
	if err := warm.SetState(states[0]); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(states); i++ {
		var delta StateDelta
		prev := states[i-1]
		for u := range states[i] {
			if states[i][u] != prev[u] {
				delta = append(delta, OpinionChange{User: u, Opinion: states[i][u]})
			}
		}
		res, err := warm.Step(ctx, delta)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if res.SND != want[i-1] {
			t.Fatalf("step %d: tracked pruned path %v, network baseline %v", i, res.SND, want[i-1])
		}
	}
}
