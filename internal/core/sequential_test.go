package core

import (
	"fmt"

	"snd/internal/graph"
	"snd/internal/opinion"
)

// Distance computes SND(a, b) over network g (eq. 3) one term after
// another on the zero termCtx: no worker pool, no scratch arena, no
// ground provider, no warm ring. It is the sequential reference the
// engine's batch, cached, and parallel paths are pinned against.
func Distance(g *graph.Digraph, a, b opinion.State, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(g, a, b); err != nil {
		return Result{}, err
	}
	var res Result
	res.NDelta = a.DiffCount(b)
	for i, spec := range eqSpecs(a, b) {
		tv, err := computeTerm(g, spec, opts, termCtx{})
		if err != nil {
			return Result{}, fmt.Errorf("core: term %d (%s over D(%s)): %w", i, spec.op, refName(i), err)
		}
		res.Terms[i] = tv.val
		res.SSSPRuns += tv.runs
		res.EnginesUsed[i] = tv.used
	}
	res.SND = (res.Terms[0] + res.Terms[1] + res.Terms[2] + res.Terms[3]) / 2
	res.LB, res.UB = res.SND, res.SND
	return res, nil
}
