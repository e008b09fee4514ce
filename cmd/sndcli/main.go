// Command sndcli computes the Social Network Distance between two
// network-state files over a graph file.
//
// Usage:
//
//	sndcli -graph network.txt -a before.txt -b after.txt [flags]
//
// The graph file is the edge-list format of snd.ReadGraph ("n m"
// header, one "u v" line per directed edge); state files hold the user
// count followed by one -1/0/1 opinion per line (snd.ReadState).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"snd"
	"snd/internal/core"
)

func main() {
	graphPath := flag.String("graph", "", "edge-list graph file (required)")
	aPath := flag.String("a", "", "first state file (required)")
	bPath := flag.String("b", "", "second state file (required)")
	engine := flag.String("engine", "auto", "computation engine: auto, bipartite, network, dense, direct")
	gamma := flag.Int64("gamma", 0, "bank-bin ground distance (0 = default)")
	clusters := flag.Int("clusters", 0, "bank clusters (0 = one bank per user)")
	verbose := flag.Bool("v", false, "print per-term breakdown and statistics")
	timeout := flag.Duration("timeout", 0, "abort the computation after this duration (0 = no deadline)")
	flag.Parse()
	if *graphPath == "" || *aPath == "" || *bPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	g, err := readGraph(*graphPath)
	exitOn(err)
	a, err := readState(*aPath)
	exitOn(err)
	b, err := readState(*bPath)
	exitOn(err)

	opts := snd.DefaultOptions()
	opts.Gamma = *gamma
	switch *engine {
	case "auto", "direct":
	case "bipartite":
		opts.Engine = core.EngineBipartite
	case "network":
		opts.Engine = core.EngineNetwork
	case "dense":
		opts.Engine = core.EngineDense
	default:
		exitOn(fmt.Errorf("unknown engine %q", *engine))
	}
	if *clusters > 0 {
		opts.Clusters = snd.BFSClusterLabels(g, *clusters)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var res snd.Result
	if *engine == "direct" {
		// The direct (dense simplex) baseline predates the handle API
		// and takes no context.
		res, err = snd.DirectDistance(g, a, b, opts)
	} else {
		// One distance per process: the ground cache could never hit, so
		// it is disabled (values are identical either way).
		nw := snd.NewNetwork(g, opts, snd.EngineConfig{GroundCacheBytes: -1})
		defer nw.Close()
		res, err = nw.Distance(ctx, a, b)
	}
	exitOn(err)
	if *verbose {
		fmt.Printf("users:      %d\n", g.N())
		fmt.Printf("edges:      %d\n", g.M())
		fmt.Printf("n-delta:    %d\n", res.NDelta)
		fmt.Printf("sssp runs:  %d\n", res.SSSPRuns)
		fmt.Printf("terms:      %+v\n", res.Terms)
	}
	fmt.Printf("%g\n", res.SND)
}

func readGraph(path string) (*snd.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return snd.ReadGraph(f)
}

func readState(path string) (snd.State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return snd.ReadState(f)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sndcli:", err)
		os.Exit(1)
	}
}
