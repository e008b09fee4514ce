package main

import (
	"math/rand"

	"snd"
)

// graphConfig is the scale-free recipe every workload uses (the
// sndload shape): out-degree 5, in-degree exponent -2.3, 20%
// reciprocated follows. The graph is one fixed network per size; the
// run seed varies the opinions on it. Hub placement moves op costs by
// more than the run-to-run noise, so a per-seed graph would hide
// regressions behind graph-to-graph variation.
func graphConfig(n int) snd.ScaleFreeConfig {
	return snd.ScaleFreeConfig{N: n, OutDeg: 5, Exponent: -2.3, Reciprocity: 0.2, Seed: 1}
}

// activeFrac is the share of users holding an opinion in a random state.
const activeFrac = 0.3

// randomState draws a state whose users are active with probability
// activeFrac, each active user positive or negative with equal odds.
func randomState(n int, rng *rand.Rand) snd.State {
	st := snd.NewState(n)
	for u := range st {
		if rng.Float64() < activeFrac {
			st[u] = snd.Opinion(1 - 2*rng.Intn(2))
		}
	}
	return st
}

// randomDelta draws k changes on distinct users, each to an opinion the
// user does not hold in cur — the sndload delta generator.
func randomDelta(cur snd.State, k int, rng *rand.Rand) snd.StateDelta {
	used := make(map[int]bool, k)
	d := make(snd.StateDelta, 0, k)
	for len(d) < k {
		u := rng.Intn(len(cur))
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

// applied returns a copy of st with delta applied.
func applied(st snd.State, delta snd.StateDelta) snd.State {
	next := st.Clone()
	for _, ch := range delta {
		next[ch.User] = ch.Opinion
	}
	return next
}

// trajectory draws count deltas of k changes starting from base and
// returns them with the states they lead through (states[0] = base).
func trajectory(base snd.State, count, k int, rng *rand.Rand) ([]snd.StateDelta, []snd.State) {
	deltas := make([]snd.StateDelta, count)
	states := make([]snd.State, count+1)
	states[0] = base
	for i := range deltas {
		deltas[i] = randomDelta(states[i], k, rng)
		states[i+1] = applied(states[i], deltas[i])
	}
	return deltas, states
}

// equalStates reports whether two states hold the same opinions.
func equalStates(a, b snd.State) bool {
	return len(a) == len(b) && a.DiffCount(b) == 0
}
