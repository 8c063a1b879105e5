package ext

import (
	"remspan/internal/flow"
	"remspan/internal/graph"
	"remspan/internal/spanner"
)

// LowStretchKConnecting is the paper's "interesting followup":
// a sparse k-connecting (1+ε, O(1))-remote-spanner. The heuristic takes
// the union of the Th. 1 low-stretch spanner (distance preservation up
// to 1+ε) and the Alg. 5 k-connecting trees (disjoint-path
// preservation near each node). No stretch proof exists; use
// MeasureKStretch to quantify how far the conjecture holds.
func LowStretchKConnecting(g *graph.Graph, eps float64, k int) *spanner.Result {
	low := spanner.LowStretch(g, eps)
	kc := spanner.KMIS(g, k)
	low.H = graph.NewEdgeSet(g.N(), append(low.H.Edges(), kc.H.Edges()...))
	return low
}

// KStretchSample is the observed k-connecting stretch of one pair.
type KStretchSample struct {
	S, T, K  int
	DG, DH   int
	Stretch  float64 // DH/DG
	Additive int     // DH − DG
}

// MeasureKStretch samples the k-connecting stretch d^{k'}_{H_s}/d^{k'}_G
// over the given pairs for every k' ≤ k, returning the worst sample per
// k' (index k'−1; zero-value samples mean no eligible pair).
func MeasureKStretch(g, h *graph.Graph, k int, pairs [][2]int) []KStretchSample {
	worst := make([]KStretchSample, k)
	for _, p := range pairs {
		s, t := p[0], p[1]
		if s == t || g.HasEdge(s, t) {
			continue
		}
		dg := flow.KDistanceProfile(g, s, t, k)
		hs := spanner.View(g, h, s)
		dh := flow.KDistanceProfile(hs, s, t, k)
		for kp := 1; kp <= k; kp++ {
			if dg[kp-1] < 0 {
				break
			}
			sample := KStretchSample{S: s, T: t, K: kp, DG: dg[kp-1], DH: dh[kp-1]}
			if dh[kp-1] < 0 {
				// Disjoint paths lost entirely: treat as unbounded.
				sample.Stretch = -1
				worst[kp-1] = sample
				continue
			}
			sample.Stretch = float64(sample.DH) / float64(sample.DG)
			sample.Additive = sample.DH - sample.DG
			w := worst[kp-1]
			if w.Stretch >= 0 && (w.DG == 0 || sample.Stretch > w.Stretch) {
				worst[kp-1] = sample
			}
		}
	}
	return worst
}
