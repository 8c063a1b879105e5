package y

import (
	"a/internal/sched"
	"a/internal/testutil" // want "production package a/internal/y imports test-only a/internal/testutil"
)

type worker struct {
	pool *sched.Pool // want "sched.Pool field outside internal/sched"
}

// edgeKeys is a second representation of a spanner H.
type edgeKeys map[uint64]struct{} // want "hash set of edge keys"

// Run is reached from production.
func Run() {
	_ = worker{}
	_ = edgeKeys{}
	testutil.Helper()
}
