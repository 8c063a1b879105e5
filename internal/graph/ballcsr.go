package graph

import "slices"

// BallScratch extracts the radius-R "local view" of a root — the
// subgraph a RemSpan node assembles from flooded neighbor lists: every
// edge incident to a source within distance R, including the one-sided
// fringe edges to distance-(R+1) vertices — into a reusable sub-CSR.
//
// Vertex ids are remapped to a dense range 0..|members|-1 in increasing
// global-id order. The remap is monotone, so sorted adjacency stays
// sorted and every id-based tie-break of the domtree builders (heap
// order, MIS processing order) is preserved: a builder run on the
// extracted view produces exactly the tree it would produce on the full
// graph, which is the paper's locality property. It is the locality
// oracle of the distributed simulation's tests (FuzzDistsimEquivalence
// pins every root's tree, built on the global view in production,
// against the builder run on its extracted ball).
//
// All returned data is owned by the scratch and valid only until the
// next Extract. A BallScratch is not safe for concurrent use; give each
// worker its own.
type BallScratch struct {
	bfs     *BFSScratch
	localID []int32  // global → local id, valid where stamp matches epoch
	stamp   []uint32 // epoch stamps for localID/membership
	epoch   uint32
	members []int32 // local → global id, ascending
	sub     CSR     // reusable offsets/targets backing the extracted view
}

// NewBallScratch returns extraction scratch for graphs with up to n
// vertices.
func NewBallScratch(n int) *BallScratch {
	return &BallScratch{
		bfs:     NewBFSScratch(n),
		localID: make([]int32, n),
		stamp:   make([]uint32, n),
	}
}

// Extract builds the local view of root u at the given flooding radius
// over v: the sub-CSR induced by the full adjacency of every vertex
// within distance radius of u (fringe vertices keep only their edges
// back into the ball). It returns the view, u's local id, and the
// member list mapping local ids back to global ids (sorted ascending).
// Everything returned is scratch-owned and valid until the next call.
//
//remspan:hotpath
func (b *BallScratch) Extract(v View, u, radius int) (local *CSR, root int, members []int32) {
	dist, _, visited := b.bfs.BoundedView(v, u, radius)

	// Epoch wrap: re-zero at a boundary where no live epochs exist (the
	// BFSScratch union-accumulator scheme).
	if b.epoch >= 1<<31 {
		for i := range b.stamp {
			b.stamp[i] = 0
		}
		b.epoch = 0
	}
	b.epoch++
	e := b.epoch

	// Members = ball ∪ fringe. The ball comes from the bounded BFS; the
	// fringe is every unreached endpoint of a ball vertex's adjacency.
	mem := b.members[:0]
	for _, x := range visited {
		b.stamp[x] = e
		mem = append(mem, x)
	}
	for _, x := range visited {
		for _, w := range v.Neighbors(int(x)) {
			if dist[w] == Unreached && b.stamp[w] != e {
				b.stamp[w] = e
				mem = append(mem, w)
			}
		}
	}
	slices.Sort(mem)
	b.members = mem
	for i, g := range mem {
		b.localID[g] = int32(i)
	}

	// Fill the sub-CSR in local-id order. Ball vertices carry their full
	// adjacency; fringe vertices only the reverse edges into the ball.
	// Global adjacency is sorted and the remap is monotone, so every row
	// lands sorted without any per-row sort.
	offsets := b.sub.offsets[:0]
	targets := b.sub.targets[:0]
	for _, g := range mem {
		offsets = append(offsets, int32(len(targets)))
		if dist[g] != Unreached {
			for _, w := range v.Neighbors(int(g)) {
				targets = append(targets, b.localID[w])
			}
		} else {
			for _, w := range v.Neighbors(int(g)) {
				if dist[w] != Unreached {
					targets = append(targets, b.localID[w])
				}
			}
		}
	}
	offsets = append(offsets, int32(len(targets)))
	b.sub.offsets = offsets
	b.sub.targets = targets
	return &b.sub, int(b.localID[u]), mem
}
