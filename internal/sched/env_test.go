package sched

import (
	"sync"
	"sync/atomic"
	"testing"

	"remspan/internal/testutil"
)

// TestSharedOneHolderAtATime pins the shared-or-transient policy: the
// shared value goes to one holder at a time, a caller that finds it
// busy gets a fresh value of its own, releasing that fresh value
// leaves the shared one held, and the shared value comes back once its
// holder releases it.
func TestSharedOneHolderAtATime(t *testing.T) {
	var s Shared[[]int]
	first := s.Acquire()
	if first != &s.val {
		t.Fatal("an idle Shared did not hand out its shared value")
	}
	*first = append(*first, 7)
	busy := s.Acquire()
	if busy == first || len(*busy) != 0 {
		t.Fatal("a busy Shared handed out its held value instead of a fresh one")
	}
	s.Release(busy)
	if again := s.Acquire(); again == first {
		t.Fatal("releasing a transient value released the shared one")
	} else {
		s.Release(again)
	}
	s.Release(first)
	back := s.Acquire()
	if back != first || len(*back) != 1 || (*back)[0] != 7 {
		t.Fatal("the shared value, with its state, did not come back after Release")
	}
	s.Release(back)
}

// TestSharedConcurrentHolders has goroutines acquire at once. Each
// holder writes its value unsynchronized, so two holders of one value
// trip the in-use flag, and the race detector under -race.
func TestSharedConcurrentHolders(t *testing.T) {
	type val struct {
		inUse  atomic.Bool
		writes int64
	}
	var s Shared[val]
	var sharedHands atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v := s.Acquire()
				if !v.inUse.CompareAndSwap(false, true) {
					t.Error("two holders got one value at once")
					return
				}
				v.writes++
				if v == &s.val {
					sharedHands.Add(1)
				}
				v.inUse.Store(false)
				s.Release(v)
			}
		}()
	}
	wg.Wait()
	if n := sharedHands.Load(); n == 0 || s.val.writes != n {
		t.Fatalf("shared value handed out %d times but written %d times", n, s.val.writes)
	}
}

type envSlot struct{ runs, width int }

// TestEnvSlotsKeepStateAcrossWidths pins the slot lifecycle: a slot
// keeps its state through narrower and wider runs, and growing the
// slot table never moves an existing slot.
func TestEnvSlotsKeepStateAcrossWidths(t *testing.T) {
	var e Env[envSlot]
	var first []*envSlot
	for _, width := range []int{3, 1, 8, 2, 5} {
		slots := e.Slots(width)
		if len(slots) != width {
			t.Fatalf("Slots(%d) returned %d slots", width, len(slots))
		}
		for w, s := range slots {
			if w < len(first) && s != first[w] {
				t.Fatalf("width %d: slot %d moved when the table grew", width, w)
			}
			if e.Slot(w) != s {
				t.Fatalf("width %d: Slot(%d) is not Slots()[%d]", width, w, w)
			}
			s.runs++
			s.width = width
		}
		if len(slots) > len(first) {
			first = append(first, slots[len(first):]...)
		}
	}
	// Slot 0 ran in all five runs; slots 5..7 only in the width-8 one.
	want := []envSlot{{5, 5}, {4, 5}, {3, 5}, {2, 5}, {2, 5}, {1, 8}, {1, 8}, {1, 8}}
	for w, s := range first {
		if *s != want[w] {
			t.Fatalf("slot %d = %+v, want %+v", w, *s, want[w])
		}
	}
}

// TestEnvSlotsWarmZeroAlloc pins a warm Slots allocation-free.
func TestEnvSlotsWarmZeroAlloc(t *testing.T) {
	var e Env[envSlot]
	e.Slots(4)
	testutil.PinAllocs(t, "warm Env.Slots", 100, func() {
		e.Slots(4)
		e.Slots(2)
	})
}

// TestRunHeavyCoversEveryIndexOnce sweeps every item count from 1 to
// 4,097 — past the width·stealShards boundary where the heavy span
// leaves 1 — at widths 1, 2 and 7.
func TestRunHeavyCoversEveryIndexOnce(t *testing.T) {
	var p Pool
	for _, width := range []int{1, 2, 7} {
		for items := 1; items <= 4097; items++ {
			covers(t, "heavy", items, width, func(body func(w, lo, hi int)) {
				p.RunHeavy(items, width, body)
			})
		}
	}
}
