package routing

import "remspan/internal/graph"

// SpannerMirror maintains the union-of-trees spanner H incrementally:
// a per-edge multiplicity count over the stored dominating trees and
// one Graph of H, which the table builders and the replicas' greedy
// fallback read. Tree updates increment the new edges before
// decrementing the old, so edges shared by both versions never toggle
// through the graph.
//
// The Store embeds one to track its maintainer; the replica tier
// (internal/replica) keeps an independent one per replica, fed by
// shipped tree diffs, so a replica can serve degraded-mode greedy
// routing from its own local view of H when its tables lag.
type SpannerMirror struct {
	g     *graph.Graph
	cnt   map[uint64]int32
	trees [][][2]int32
}

// NewSpannerMirror returns an empty n-vertex mirror; install the
// trees with UpdateTree.
func NewSpannerMirror(n int) *SpannerMirror {
	return &SpannerMirror{
		g:     graph.New(n),
		cnt:   make(map[uint64]int32, 4*n),
		trees: make([][][2]int32, n),
	}
}

// Graph returns H (mirror-owned: read it between updates, never
// mutate it).
func (hm *SpannerMirror) Graph() *graph.Graph { return hm.g }

func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

//remspan:refinc
func (hm *SpannerMirror) inc(u, v int32) {
	k := edgeKey(u, v)
	c := hm.cnt[k]
	hm.cnt[k] = c + 1
	if c == 0 {
		hm.g.AddEdge(int(u), int(v))
	}
}

//remspan:refdec
func (hm *SpannerMirror) dec(u, v int32) {
	k := edgeKey(u, v)
	if c := hm.cnt[k]; c > 1 {
		hm.cnt[k] = c - 1
		return
	}
	delete(hm.cnt, k)
	hm.g.RemoveEdge(int(u), int(v))
}

// UpdateTree replaces root r's contribution to H with the given
// (child, parent) edges, keeping a compact copy for the next diff.
func (hm *SpannerMirror) UpdateTree(r int, edges [][2]int32) {
	for _, e := range edges {
		hm.inc(e[0], e[1])
	}
	for _, e := range hm.trees[r] {
		hm.dec(e[0], e[1])
	}
	hm.trees[r] = append(hm.trees[r][:0], edges...)
}
