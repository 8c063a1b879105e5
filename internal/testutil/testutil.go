// Package testutil holds the small helpers shared by the repo's test
// suites, so cross-package invariants are asserted one way everywhere.
package testutil

import (
	"runtime"
	"testing"
)

// PinAllocs pins fn allocation-free: the steady-state zero-alloc
// contract every warm scratch path in this repo advertises. It fails
// the test when fn averages any heap allocation over runs; what names
// the pinned operation in the failure message. Callers are expected to
// warm buffers to their high-water mark before pinning. Like
// testing.AllocsPerRun, it measures at GOMAXPROCS 1.
//
// The static half of the same contract is remspanlint's hotalloc
// analyzer; this dynamic pin catches what escape analysis does at run
// time on real graph shapes.
// Under -race the pin is skipped: the race runtime allocates shadow
// state on its own schedule (goroutine park/unpark, sync bookkeeping),
// so the count measures the detector, not the code. The non-race test
// run enforces every pin.
func PinAllocs(t *testing.T, what string, runs int, fn func()) {
	t.Helper()
	PinAllocsAt(t, what, 1, runs, fn)
}

// PinAllocsAt is PinAllocs measured at GOMAXPROCS procs. A fan-out that
// sizes its width from GOMAXPROCS (sched.Workers) runs serially at 1,
// so its parallel path needs a pin at procs ≥ 2.
//
// A collection runs first, so that finalizers of garbage left by
// earlier tests (a sched.Pool's sentinel, say) are queued and run
// outside the measured window, not inside it. Above one proc the
// runtime itself allocates now and then when a parked goroutine is
// woken (a new OS thread, a sudog after a GC emptied the cache), so
// the pin then takes the best of three measurements: an allocation in
// fn recurs on every run and still fails all three.
func PinAllocsAt(t *testing.T, what string, procs, runs int, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skipf("%s: allocation pins are not meaningful under -race", what)
	}
	runtime.GC()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn() // warm at the measured width
	attempts := 1
	if procs > 1 {
		attempts = 3
	}
	var allocs uint64
	for i := 0; i < attempts; i++ {
		if allocs = mallocsPerRun(runs, fn); allocs == 0 {
			return
		}
	}
	t.Fatalf("%s allocates %d times per run at GOMAXPROCS %d, want 0", what, allocs, procs)
}

// mallocsPerRun is testing.AllocsPerRun's count — heap allocations per
// run, rounded down — without its reset to GOMAXPROCS 1.
func mallocsPerRun(runs int, fn func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.Mallocs
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&ms)
	return (ms.Mallocs - start) / uint64(runs)
}
