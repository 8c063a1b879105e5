package routing

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"remspan/internal/graph"
	"remspan/internal/spanner"
	"remspan/internal/testutil"
)

// tableProcs returns the GOMAXPROCS values a table width pin sweeps:
// serial, minimal parallel, a prime that never divides the group count
// evenly, any extra values, and the host width.
func tableProcs(extra ...int) []int {
	ps := append([]int{1, 2, 7}, extra...)
	if p := runtime.GOMAXPROCS(0); !slices.Contains(ps, p) {
		ps = append(ps, p)
	}
	return ps
}

// batchedAt builds every table of (g, h) on the shared batched env at
// GOMAXPROCS procs.
func batchedAt(procs int, g, h *graph.Graph) []Table {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return BuildTablesBatched(g, graph.NewCSR(h))
}

// TestBatchedTablesWidthDeterminism pins the table-construction fan-out
// across GOMAXPROCS: every width produces tables bit-identical to the
// scalar per-owner builder, and so to GOMAXPROCS 1, spanner quality
// (exact, broken, empty) notwithstanding.
func TestBatchedTablesWidthDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	procs := tableProcs()
	for fam, g := range routingFamilies() {
		for hname, h := range routingSpanners(g, rng) {
			want := BuildTables(g, h)
			for _, p := range procs {
				tablesEqual(t, fmt.Sprintf("%s/%s GOMAXPROCS=%d", fam, hname, p), want, batchedAt(p, g, h))
			}
		}
	}
}

// TestBatchedTablesWidthSweepUDG widens the sweep on the geometric
// family the production path serves: one spanner, many widths.
func TestBatchedTablesWidthSweepUDG(t *testing.T) {
	g := routingFamilies()["udg"]
	h := spanner.Exact(g).Graph()
	want := BuildTables(g, h)
	for _, p := range tableProcs(3, 5, 8, 13) {
		tablesEqual(t, fmt.Sprintf("udg GOMAXPROCS=%d", p), want, batchedAt(p, g, h))
	}
}

// TestBatchedTablesWidthZeroAlloc pins the warm shard fan-out
// allocation-free, serially and in parallel: once the shared env's
// per-worker builders, batch order scratch, and pool helpers are
// grown, repeat builds touch no heap.
func TestBatchedTablesWidthZeroAlloc(t *testing.T) {
	g := routingFamilies()["udg"]
	h := graph.NewCSR(spanner.Exact(g).Graph())
	tables := NewTables(g.N())
	for _, procs := range []int{1, 4} {
		testutil.PinAllocsAt(t, "warm batched table fan-out", procs, 5, func() {
			BuildTablesBatchedInto(g, h, tables)
		})
	}
}
