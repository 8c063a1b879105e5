package routing

import (
	"strings"
	"testing"

	"remspan/internal/graph"
	"remspan/internal/reference"
)

// TestBatchEngineSelectionBoundary pins the engine's limit exactly:
// 65535 vertices still get a builder, one more panics with a routing:
// message naming n, as does a table set of that size.
func TestBatchEngineSelectionBoundary(t *testing.T) {
	if b := NewBatchBuilder(MaxN); len(b.scr) != 64*MaxN {
		t.Fatalf("n=%d: scratch holds %d words, want %d", MaxN, len(b.scr), 64*MaxN)
	}
	for name, f := range map[string]func(){
		"NewBatchBuilder": func() { NewBatchBuilder(MaxN + 1) },
		"NewTables":       func() { NewTables(MaxN + 1) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "routing: ") || !strings.Contains(msg, "65536") {
					t.Errorf("%s(%d): panic %q, want a routing: message naming n", name, MaxN+1, msg)
				}
			}()
			f()
		}()
	}
}

// checkBoundaryTables builds the tables of a few extreme-id owners on
// the word-parallel engine and compares them row-for-row with the
// scalar per-owner builder. A star keeps distances (and therefore the
// sweep) shallow, so the test exercises the full vertex-id range —
// including n-1 as owner, destination, and packed next-hop value —
// without materializing n×n state.
func checkBoundaryTables(t *testing.T, n int) {
	t.Helper()
	g := reference.Star(n)
	owners := []int32{0, int32(n / 2), int32(n - 1)}

	b := NewBatchBuilder(n)
	next := make([][]int32, len(owners))
	dist := make([][]int32, len(owners))
	for i := range owners {
		next[i] = make([]int32, n)
		dist[i] = make([]int32, n)
	}
	b.buildGroup(g, graph.NewCSR(g), owners, next, dist)

	ts := NewTableScratch(n)
	refNext := make([]int32, n)
	refDist := make([]int32, n)
	for i, u := range owners {
		ts.BuildTableInto(g, g, int(u), refNext, refDist)
		for v := 0; v < n; v++ {
			if next[i][v] != refNext[v] || dist[i][v] != refDist[v] {
				t.Fatalf("n=%d owner %d dest %d: batched (next=%d dist=%d), scalar (next=%d dist=%d)",
					n, u, v, next[i][v], dist[i][v], refNext[v], refDist[v])
			}
		}
	}
}

// TestBatchBoundaryHalfWidthTop drives the engine at its very last
// admissible size, n = 65535.
func TestBatchBoundaryHalfWidthTop(t *testing.T) {
	checkBoundaryTables(t, MaxN)
}

// TestBatchHalfWidthOverdriveChecked pins the no-silent-truncation
// contract: a half-width builder handed a graph past 65535 vertices
// must panic rather than truncate vertex ids to 16 bits.
func TestBatchHalfWidthOverdriveChecked(t *testing.T) {
	b := NewBatchBuilder(64)
	big := reference.Star(MaxN + 1)
	next := [][]int32{make([]int32, big.N())}
	dist := [][]int32{make([]int32, big.N())}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("half-width engine accepted a graph past 65535 vertices without panicking")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "half-width") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	b.buildGroup(big, graph.NewCSR(big), []int32{0}, next, dist)
}
