package sched

import "sync"

// Pool is the one worker pool; a field of it inside sched is allowed.
type Pool struct {
	mu sync.Mutex
}

type env struct {
	pool *Pool
}

// Run takes the pool's lock the only place that may.
func Run() {
	e := env{pool: &Pool{}}
	if e.pool.mu.TryLock() {
		e.pool.mu.Unlock()
	}
}
