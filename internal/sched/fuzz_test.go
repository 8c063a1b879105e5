package sched

import (
	"testing"
)

// FuzzShardCoverage drives the scheduler over adversarial (items,
// width, span) triples and asserts the load-bearing invariant of both
// shard sizings, the explicit span and RunHeavy's: every index runs
// exactly once, on a worker id below width.
func FuzzShardCoverage(f *testing.F) {
	f.Add(100, 4, 7)
	f.Add(1, 16, 1)
	f.Add(65, 2, 64)
	f.Add(4096, 3, 4096)
	f.Add(9999, 8, 0)
	f.Fuzz(func(t *testing.T, items, width, span int) {
		if items < 0 || items > 1<<16 {
			items = (items%(1<<16) + 1<<16) % (1 << 16)
		}
		width = (width%17+17)%17 + 1
		if span < 1 || span > items+1 {
			span = spanFor(items, width)
		}
		var p Pool
		coverage(t, &p, items, width, span)
		covers(t, "heavy", items, width, func(body func(w, lo, hi int)) {
			p.RunHeavy(items, width, body)
		})
	})
}
