package core

import (
	"math/rand"
	"testing"

	"snd/internal/graph"
)

// benchTerm builds one mid-size EMD* term on a 5000-user scale-free
// network: activeFrac sets the activation density (which drives the
// bank-member target count — the dense case exceeds the fan-out's
// pruning threshold, the sparse case engages the goal-pruned search),
// flips the number of opinion changes between the two states.
func benchTerm(b *testing.B, activeFrac float64, flips int) (*graph.Digraph, termSpec, Options) {
	b.Helper()
	g := graph.ScaleFree(graph.ScaleFreeConfig{
		N: 5000, OutDeg: 6, Exponent: -2.3, Reciprocity: 0.2, Seed: 17,
	})
	rng := rand.New(rand.NewSource(18))
	a := randState(g.N(), activeFrac, rng)
	bb := perturb(a, flips, rng)
	opts := DefaultOptions().withDefaults()
	return g, termSpec{op: 1, p: a, q: bb, ref: a}, opts
}

// BenchmarkTermBipartite measures one term of the Theorem 4 pipeline
// through the worker scratch arena (goal-pruned below the
// target-density threshold, full rows above it), at a dense and a
// sparse activation. Run with -benchmem: both shapes must stay
// allocation-light (rows, headers, and targets all live in the arena).
func BenchmarkTermBipartite(b *testing.B) {
	for _, shape := range []struct {
		name       string
		activeFrac float64
		flips      int
	}{{"dense", 0.1, 200}, {"sparse", 0.01, 40}} {
		g, spec, opts := benchTerm(b, shape.activeFrac, shape.flips)
		red := reduce(spec, nil, g.N())
		b.Run(shape.name, func(b *testing.B) {
			tc := termCtx{sc: &scratch{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := termBipartite(g, spec, red, opts, tc, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
