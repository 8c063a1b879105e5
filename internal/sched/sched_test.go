package sched

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"remspan/internal/testutil"
)

// coverage runs body over items at the given width/span and asserts
// every index is visited exactly once, by a worker id within range.
func coverage(t *testing.T, p *Pool, items, width, span int) {
	t.Helper()
	covers(t, fmt.Sprintf("span=%d", span), items, width, func(body func(w, lo, hi int)) {
		p.RunSpan(items, width, span, body)
	})
}

// covers hands run a body recording each shard it is called on, per
// worker, and asserts the shards tile [0, items) exactly — so every
// index was visited exactly once — on worker ids below width.
func covers(t *testing.T, what string, items, width int, run func(body func(w, lo, hi int))) {
	t.Helper()
	perWorker := make([][][2]int, width)
	var badWorker atomic.Int32
	badWorker.Store(-1)
	run(func(w, lo, hi int) {
		if w < 0 || w >= width {
			badWorker.Store(int32(w))
			return
		}
		perWorker[w] = append(perWorker[w], [2]int{lo, hi})
	})
	if bw := badWorker.Load(); bw >= 0 {
		t.Fatalf("items=%d width=%d %s: worker id %d out of range", items, width, what, bw)
	}
	shards := slices.Concat(perWorker...)
	slices.SortFunc(shards, func(a, b [2]int) int { return a[0] - b[0] })
	next := 0
	for _, sh := range shards {
		if sh[0] != next || sh[1] <= sh[0] {
			t.Fatalf("items=%d width=%d %s: shard [%d, %d) after index %d, want a non-empty shard from %d",
				items, width, what, sh[0], sh[1], next, next)
		}
		next = sh[1]
	}
	if next != items {
		t.Fatalf("items=%d width=%d %s: shards end at %d, want %d", items, width, what, next, items)
	}
}

func TestRunCoversEveryIndexOnce(t *testing.T) {
	var p Pool
	for _, items := range []int{0, 1, 2, 63, 64, 65, 1000, 4097, 100000} {
		for _, width := range []int{1, 2, 3, 7, 16} {
			for _, span := range []int{1, 2, 64, 1024, items + 1} {
				if span < 1 {
					continue
				}
				coverage(t, &p, items, width, span)
			}
		}
	}
}

func TestRunAutoSpan(t *testing.T) {
	var p Pool
	for _, items := range []int{0, 1, 500, 65536} {
		for _, width := range []int{1, 2, 7, Workers(items)} {
			span := spanFor(items, width)
			if items > 0 && span < 1 {
				t.Fatalf("spanFor(%d,%d) = %d", items, width, span)
			}
			coverage(t, &p, items, width, span)
		}
	}
}

// TestSameWorkerNeverConcurrent pins the per-worker scratch contract:
// one worker id never executes two shards at the same time.
func TestSameWorkerNeverConcurrent(t *testing.T) {
	var p Pool
	const width = 7
	var active [width]atomic.Int32
	var violated atomic.Bool
	p.RunSpan(10000, width, 16, func(w, lo, hi int) {
		if active[w].Add(1) != 1 {
			violated.Store(true)
		}
		for i := lo; i < hi; i++ {
			_ = i * i
		}
		active[w].Add(-1)
	})
	if violated.Load() {
		t.Fatal("one worker id executed two shards concurrently")
	}
}

func TestWorkersClamp(t *testing.T) {
	if w := Workers(0); w != 1 {
		t.Fatalf("Workers(0) = %d, want 1", w)
	}
	if w := Workers(1); w != 1 {
		t.Fatalf("Workers(1) = %d, want 1", w)
	}
	if w := Workers(1 << 30); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(big) = %d, want GOMAXPROCS", w)
	}
}

func TestSpanForBounds(t *testing.T) {
	if s := spanFor(10, 1); s != 10 {
		t.Fatalf("serial span = %d, want whole range", s)
	}
	if s := spanFor(0, 4); s != 1 {
		t.Fatalf("empty span = %d, want 1", s)
	}
	if s := spanFor(1<<20, 4); s != maxSpan {
		t.Fatalf("huge span = %d, want cap %d", s, maxSpan)
	}
	if s := spanFor(1000, 4); s != minSpan {
		t.Fatalf("small span = %d, want floor %d", s, minSpan)
	}
}

// TestSerialPathZeroAlloc pins the width-1 fast path: no goroutines,
// no synchronization, no allocations.
func TestSerialPathZeroAlloc(t *testing.T) {
	var p Pool
	sink := 0
	body := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			sink += i
		}
	}
	testutil.PinAllocs(t, "sched.Pool.Run width=1", 100, func() {
		p.Run(4096, 1, body)
	})
}

// TestWarmParallelRunZeroAlloc pins the steady-state parallel path: a
// warm pool with a prebound body performs no per-run heap allocations
// (helper goroutines are parked, cursors are retained).
func TestWarmParallelRunZeroAlloc(t *testing.T) {
	var p Pool
	var sinks [4][8]int64 // padded-ish per-worker slots
	body := func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			sinks[w][0] += int64(i)
		}
	}
	p.RunSpan(100000, 4, 1024, body) // warm: spawn helpers
	testutil.PinAllocs(t, "sched.Pool.RunSpan warm width=4", 50, func() {
		p.RunSpan(100000, 4, 1024, body)
	})
}

// TestRunsAreReusableAcrossWidths exercises shrinking and growing the
// width on one pool.
func TestRunsAreReusableAcrossWidths(t *testing.T) {
	var p Pool
	for _, width := range []int{5, 1, 3, 8, 2} {
		coverage(t, &p, 5000, width, 64)
	}
}

// poolOwner stands for any struct that embeds a Pool by value (a
// maintainer, an engine, a pooled env).
type poolOwner struct {
	pool Pool
	rows []int32
}

// TestPoolOwnerCollected pins the pool lifetime rule: a struct embedding
// a Pool that ran a parallel job is collected once unreachable, and the
// pool's parked helpers exit with it.
func TestPoolOwnerCollected(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()
	collected := make(chan struct{})
	func() {
		o := &poolOwner{rows: make([]int32, 1024)}
		runtime.SetFinalizer(o, func(*poolOwner) { close(collected) })
		o.pool.Run(4096, 2, func(w, lo, hi int) {})
	}()
	// The owner's finalizer keeps what it reaches alive for one more
	// cycle, so the pool's own sentinel is finalized a cycle later.
	deadline := time.Now().Add(10 * time.Second)
	for done := false; !done || runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("owner collected %v; goroutines %d, want <= %d", done, runtime.NumGoroutine(), before)
		}
		runtime.GC()
		select {
		case <-collected:
			done = true
		default:
		}
		time.Sleep(time.Millisecond)
	}
}
