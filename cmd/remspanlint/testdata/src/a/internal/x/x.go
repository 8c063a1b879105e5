package x

import (
	"fmt"
	"sync"
)

// Used is reached from production.
func Used() {
	Recursive(3)
	Stale()
	var mu sync.Mutex
	if mu.TryLock() { // want "TryLock outside internal/sched"
		mu.Unlock()
	}
}

// Recursive is reached from production; its use inside its own body
// does not matter either way.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// OnlyTests is called by x_test.go alone.
func OnlyTests() int { // want `x\.OnlyTests: production never reaches it`
	return OnlyFromFlagged()
}

// OnlyFromFlagged's one caller is a reported function.
func OnlyFromFlagged() int { return 1 } // want `x\.OnlyFromFlagged: production never reaches it`

// OnlyFromReference is called by the test-only reference package,
// which does not count.
func OnlyFromReference() int { return 2 } // want `x\.OnlyFromReference: production never reaches it`

// PingA and PingB only call each other.
func PingA(n int) int { // want `x\.PingA: production never reaches it`
	if n == 0 {
		return 0
	}
	return PingB(n - 1)
}

// PingB: see PingA.
func PingB(n int) int { return PingA(n) } // want `x\.PingB: production never reaches it`

// UsedByB is called from the second module only.
func UsedByB() int { return 3 }

// Kept is reached by nothing but is on the corpus allowlist.
func Kept() {}

// Stale is on the corpus allowlist although production reaches it.
func Stale() {} // want `x\.Stale is allowlisted but production reaches it`

// T carries a method only a test calls.
type T struct{}

// Method is called by x_test.go alone.
func (T) Method() {} // want `\(x\.T\)\.Method: production never reaches it`

// Name is used only through fmt, which calls String dynamically.
type Name int

// String makes Name a fmt.Stringer.
func (n Name) String() string { return fmt.Sprint(int(n)) }

// Heap is a container/heap.Interface; heap calls its methods.
type Heap []int

func (h Heap) Len() int           { return len(h) }
func (h Heap) Less(i, j int) bool { return h[i] < h[j] }
func (h Heap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *Heap) Push(v any)        { *h = append(*h, v.(int)) }
func (h *Heap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}
