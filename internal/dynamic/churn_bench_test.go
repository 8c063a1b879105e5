package dynamic

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"remspan/internal/geom"
	"remspan/internal/graph"
)

// churnUDG is the churn workload graph: the largest component of a
// Poisson unit-disk graph in a square of side √(π·n/deg), so the mean
// degree stays ≈ deg at every n and the matrix isolates the effect of
// n, not of densification. deg must sit above the 2D continuum
// percolation threshold (mean degree ≈ 4.5), or the largest component
// is a sliver and the benchmark is vacuous. It is the graph
// remspan.RandomUDG(n, side, seed) returns.
func churnUDG(n, deg int, seed int64) *graph.Graph {
	side := math.Sqrt(math.Pi * float64(n) / float64(deg))
	rng := rand.New(rand.NewSource(seed))
	g := geom.UnitDiskGraph(geom.PoissonSquare(float64(n)/(side*side), side, rng), 1.0)
	keep, _ := graph.LargestComponent(g)
	return g.InducedSubgraph(keep)
}

// candidatePairs returns the pool of vertex pairs a churn run toggles.
// Localized churn confines the pool to a BFS ball around a max-degree
// vertex (the paper's locality dividend case); scattered churn draws
// from the whole vertex set.
func candidatePairs(g *graph.Graph, localized bool, rng *rand.Rand) [][2]int {
	pool := 256
	var members []int32
	if localized {
		center := 0
		for u := 1; u < g.N(); u++ {
			if g.Degree(u) > g.Degree(center) {
				center = u
			}
		}
		dist := graph.BFS(g, center)
		for radius := int32(4); len(members) < 64 && radius <= 8; radius++ {
			members = members[:0]
			for v, d := range dist {
				if d != graph.Unreached && d <= radius {
					members = append(members, int32(v))
				}
			}
		}
	} else {
		for v := 0; v < g.N(); v++ {
			members = append(members, int32(v))
		}
	}
	// Canonicalize (u < v) and dedupe so the pool holds distinct
	// undirected pairs: batches dealt from it then contain no repeated
	// edge, and every toggle in a batch applies.
	seen := make(map[[2]int]struct{}, pool)
	out := make([][2]int, 0, pool)
	for attempts := 0; len(out) < pool && attempts < 64*pool; attempts++ {
		u := int(members[rng.Intn(len(members))])
		v := int(members[rng.Intn(len(members))])
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		p := [2]int{u, v}
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}
	return out
}

// snapshotSink keeps the snapshot arm's re-snapshot live, so the
// compiler cannot drop it.
var snapshotSink *graph.CSR

// BenchmarkMaintainerChurn is the churn matrix: every production
// builder × localized/scattered churn × three modes, on the degree-8
// UDG. The modes are "single" (one toggle per repair), "batch"
// (ApplyBatch of 64 toggles with one unioned repair) and "snapshot"
// (as single, plus the O(n+m) CSR re-snapshot the maintainer paid per
// change before its delta — the ablation baseline). n = 2000 always
// runs; 10k, 50k, 200k and 1M run only without -short, and past 100k
// only kgreedy1 (the radius-2/3 families' initial builds dominate
// there, and the radius-1 builder already shows the locality
// dividend). Each cell reports ns, trees rebuilt and allocations per
// applied change.
func BenchmarkMaintainerChurn(b *testing.B) {
	const deg, seed, batchSize = 8, 1, 64
	sizes := []int{2000}
	if !testing.Short() {
		sizes = append(sizes, 10_000, 50_000, 200_000, 1_000_000)
	}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := churnUDG(n, deg, seed)
			specs := Builders()
			if n > 100_000 {
				specs = specs[:1] // kgreedy1
			}
			for _, bb := range specs {
				for _, locality := range []string{"localized", "scattered"} {
					pairs := candidatePairs(g, locality == "localized", rand.New(rand.NewSource(seed+7)))
					for _, mode := range []string{"single", "batch", "snapshot"} {
						b.Run(bb.Name+"/"+locality+"/"+mode, func(b *testing.B) {
							benchChurn(b, g, bb, pairs, mode, batchSize)
						})
					}
				}
			}
		})
	}
}

// benchChurn runs one (builder, locality, mode) cell. The op is one
// applied change in single/snapshot mode and one ApplyBatch of
// batchSize toggles in batch mode; the per-change metrics normalize
// either way.
func benchChurn(b *testing.B, g *graph.Graph, bb BuilderSpec, pairs [][2]int, mode string, batchSize int) {
	// Own the pool: batch mode shuffles it, and the three mode arms must
	// draw identically-ordered streams from the same pairs to be
	// directly comparable.
	pairs = append([][2]int(nil), pairs...)
	var batch []Change
	if mode == "batch" {
		batch = make([]Change, min(batchSize, len(pairs)))
		// The pool holds distinct undirected pairs; trimming it to a
		// multiple of the batch size aligns batches with reshuffle
		// boundaries, so pairs within one batch are always distinct,
		// every toggle applies, and ApplyBatch does exactly len(batch)
		// changes per op.
		pairs = pairs[:len(pairs)/len(batch)*len(batch)]
	}
	m := New(g, bb.Radius, bb.Build)
	rng := rand.New(rand.NewSource(99))
	rebuiltBase := m.TreesRebuilt()
	var changes int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	if batch != nil {
		next := len(pairs)
		for i := 0; i < b.N; i++ {
			for j := range batch {
				if next >= len(pairs) {
					rng.Shuffle(len(pairs), func(a, c int) { pairs[a], pairs[c] = pairs[c], pairs[a] })
					next = 0
				}
				p := pairs[next]
				next++
				kind := AddEdge
				if m.View().HasEdge(p[0], p[1]) {
					kind = RemoveEdge
				}
				batch[j] = Change{Kind: kind, U: p[0], V: p[1]}
			}
			changes += int64(m.ApplyBatch(batch))
		}
	} else {
		for i := 0; i < b.N; i++ {
			p := pairs[rng.Intn(len(pairs))]
			kind := AddEdge
			if m.View().HasEdge(p[0], p[1]) {
				kind = RemoveEdge
			}
			applyOne(m, kind, p[0], p[1])
			if mode == "snapshot" {
				snapshotSink = graph.NewCSR(m.View())
			}
			changes++
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if changes == 0 {
		b.Fatal("no change applied")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(changes), "ns/change")
	b.ReportMetric(float64(m.TreesRebuilt()-rebuiltBase)/float64(changes), "trees/change")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(changes), "allocs/change")
}
