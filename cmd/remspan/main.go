// Command remspan constructs and verifies remote-spanners on generated
// or loaded graphs.
//
// Usage:
//
//	remspan -gen udg -n 500 -algo exact -verify
//	remspan -gen er -n 256 -p 0.05 -algo lowstretch -eps 0.5 -dot out.dot
//	remspan -in graph.txt -algo 2conn -verify
//
// Input files use the edge-list format: a "n m" header line followed by
// one "u v" line per edge.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"remspan"
	"remspan/internal/graph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("remspan: ")

	var (
		genKind = flag.String("gen", "udg", "generator: udg | ubg | er | grid | ring | hypercube")
		inFile  = flag.String("in", "", "read graph from edge-list file instead of generating")
		n       = flag.Int("n", 500, "target node count")
		side    = flag.Float64("side", 4, "square/box side for udg/ubg")
		dim     = flag.Int("dim", 2, "ambient dimension for ubg")
		p       = flag.Float64("p", 0.05, "edge probability for er")
		seed    = flag.Int64("seed", 1, "RNG seed")
		algo    = flag.String("algo", "exact", "spanner: exact | kconn | 2conn | lowstretch")
		k       = flag.Int("k", 2, "k for kconn")
		eps     = flag.Float64("eps", 0.5, "epsilon for lowstretch")
		verify  = flag.Bool("verify", false, "verify the guarantee exactly (all pairs)")
		distrib = flag.Bool("distributed", false, "run the RemSpan protocol instead of the centralized builder")
		dotOut  = flag.String("dot", "", "write Graphviz overlay (graph gray, spanner red) to file")
		outFile = flag.String("out", "", "write the spanner as an edge list to file")
	)
	flag.Parse()

	g, err := makeGraph(*inFile, *genKind, *n, *side, *dim, *p, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d maxdeg=%d\n", g.N(), g.M(), g.MaxDegree())

	var s *remspan.Spanner
	if *distrib {
		s, err = runDistributed(g, *algo, *k, *eps)
	} else {
		s, err = runCentralized(g, *algo, *k, *eps)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spanner: kind=%s edges=%d (%.1f%% of m) guarantee=%s k-connecting=%d\n",
		s.Kind, s.Edges(), 100*float64(s.Edges())/float64(g.M()),
		s.Guarantee, s.KConnecting)

	if *verify {
		if err := remspan.VerifySpanner(g, s); err != nil {
			log.Fatalf("VERIFY FAILED: %v", err)
		}
		fmt.Println("verify: all guarantees hold (exact check over all pairs)")
	}
	prof := remspan.MeasureStretch(g, s.H)
	fmt.Printf("observed: max stretch %.3f, avg %.3f over %d pairs\n",
		prof.MaxStretch, prof.AvgStretch, prof.Pairs)

	if *dotOut != "" {
		if err := writeDOT(*dotOut, g, s); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *dotOut)
	}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := writeEdgeList(f, s.H); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *outFile)
	}
}

func makeGraph(inFile, kind string, n int, side float64, dim int, p float64, seed int64) (*remspan.Graph, error) {
	if inFile != "" {
		f, err := os.Open(inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		gg, err := graph.ReadEdgeList(f)
		if err != nil {
			return nil, err
		}
		return remspan.FromEdges(gg.N(), toPairs(gg)), nil
	}
	switch kind {
	case "udg":
		return remspan.RandomUDG(n, side, seed), nil
	case "ubg":
		return remspan.RandomUBG(n, dim, side, seed), nil
	case "er":
		return remspan.ErdosRenyi(n, p, seed), nil
	case "grid":
		w := 1
		for w*w < n {
			w++
		}
		return remspan.Grid(w, w), nil
	case "ring":
		return remspan.Ring(n), nil
	case "hypercube":
		d := 0
		for 1<<d < n {
			d++
		}
		return remspan.Hypercube(d), nil
	}
	return nil, fmt.Errorf("unknown generator %q", kind)
}

func runCentralized(g *remspan.Graph, algo string, k int, eps float64) (*remspan.Spanner, error) {
	switch algo {
	case "exact":
		return remspan.Exact(g), nil
	case "kconn":
		if k < 1 {
			return nil, kconnError(k)
		}
		return remspan.KConnecting(g, k), nil
	case "2conn":
		return remspan.TwoConnecting(g), nil
	case "lowstretch":
		return remspan.LowStretch(g, eps)
	}
	return nil, fmt.Errorf("unknown algorithm %q", algo)
}

func runDistributed(g *remspan.Graph, algo string, k int, eps float64) (*remspan.Spanner, error) {
	var (
		a  remspan.Algorithm
		sp *remspan.Spanner
	)
	switch algo {
	case "exact":
		a, sp = remspan.AlgoExact, remspan.Exact(g)
	case "kconn":
		if k < 1 {
			return nil, kconnError(k)
		}
		a, sp = remspan.AlgoKConnecting, remspan.KConnecting(g, k)
	case "2conn":
		a, sp = remspan.AlgoTwoConnecting, remspan.TwoConnecting(g)
	case "lowstretch":
		low, err := remspan.LowStretch(g, eps)
		if err != nil {
			return nil, err
		}
		a, sp = remspan.AlgoLowStretch, low
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
	res, err := remspan.RunDistributed(g, a, k, eps)
	if err != nil {
		return nil, err
	}
	lsMsgs, lsWords := remspan.FullLinkStateCost(g)
	fmt.Printf("distributed: rounds=%d messages=%d words=%d (full link-state: %d msgs, %d words)\n",
		res.Rounds, res.Messages, res.Words, lsMsgs, lsWords)
	sp.H = res.H
	return sp, nil
}

// kconnError rejects a k-connecting request with k < 1.
func kconnError(k int) error { return fmt.Errorf("need k >= 1 for kconn, got %d", k) }

func toPairs(g *graph.Graph) [][2]int {
	var out [][2]int
	g.EachEdge(func(u, v int) { out = append(out, [2]int{u, v}) })
	return out
}

func writeDOT(path string, g *remspan.Graph, s *remspan.Spanner) error {
	gg := graph.FromEdges(g.N(), g.Edges())
	hl := graph.FromEdges(s.H.N(), s.H.Edges())
	return os.WriteFile(path, []byte(graph.DOT(gg, "remspan", hl)), 0o644)
}

func writeEdgeList(f *os.File, h *remspan.Graph) error {
	return graph.WriteEdgeList(f, graph.FromEdges(h.N(), h.Edges()))
}
