package remspan

import (
	"remspan/internal/oracle"
)

// DistanceOracle answers approximate distance queries from a
// remote-spanner: Query(u, v) = d_{H_u}(u, v), which the spanner's
// guarantee bounds by α·d_G(u, v) + β while never underestimating.
// One of the classical spanner applications from the paper's
// introduction, in the remote setting.
//
// A DistanceOracle is not safe for concurrent use; Clone per goroutine.
type DistanceOracle struct {
	o *oracle.Oracle
	n int
}

// NewOracle builds an oracle from a graph and a spanner of it.
func NewOracle(g *Graph, s *Spanner) *DistanceOracle {
	return &DistanceOracle{o: oracle.New(g.raw(), s.H.raw(), s.Guarantee.internal()), n: g.N()}
}

// Query returns the estimated distance (an upper bound within the
// spanner's stretch), or -1 when v is unreachable from u in H_u.
func (d *DistanceOracle) Query(u, v int) int {
	checkVertices(d.n, u, v)
	return d.o.Query(u, v)
}

// QueryBatch answers one source against many targets with a single
// traversal.
func (d *DistanceOracle) QueryBatch(u int, targets []int) []int {
	checkVertices(d.n, u)
	checkVertices(d.n, targets...)
	return d.o.QueryBatch(u, targets)
}

// Clone returns an independently usable oracle for another goroutine.
func (d *DistanceOracle) Clone() *DistanceOracle { return &DistanceOracle{o: d.o.Clone(), n: d.n} }

// Validate exhaustively checks the oracle's two-sided guarantee
// (d_G ≤ Query ≤ α·d_G + β) over all pairs, returning the first
// violating pair in (u, v) order, or (-1, -1) when the guarantee holds
// everywhere. Like Verify, it tries the local 2-hop certificate first
// when exact distances meet the stretch, and otherwise runs the
// word-parallel 64-source verification engine.
func (d *DistanceOracle) Validate() (int, int) { return d.o.Validate() }

// StorageWords reports the oracle's memory footprint in 4-byte words —
// compare against the n² of an exact distance table.
func (d *DistanceOracle) StorageWords() int { return d.o.StorageWords() }
