package distsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"remspan/internal/spanner"
)

func TestAsyncMatchesSyncMPR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := randomConnected(15+rng.Intn(30), 50, rng)
		sync := RunRemSpan(g, 1, kgreedyCSR(1))
		async := RunRemSpanAsync(g, 1, kgreedyCSR(1), rand.New(rand.NewSource(int64(trial))))
		if sync.H.Len() != async.H.Len() {
			t.Fatalf("trial %d: sync %d vs async %d edges", trial, sync.H.Len(), async.H.Len())
		}
		se, ae := sync.H.Edges(), async.H.Edges()
		for i := range se {
			if se[i] != ae[i] {
				t.Fatalf("trial %d: edge sets differ", trial)
			}
		}
	}
}

// The paper's "no synchronization" claim as a property: the async
// spanner is invariant under the delay seed.
func TestQuickAsyncTimingInvariance(t *testing.T) {
	f := func(graphSeed, delaySeedA, delaySeedB int64) bool {
		rng := rand.New(rand.NewSource(graphSeed))
		g := randomConnected(12+rng.Intn(18), 35, rng)
		a := RunRemSpanAsync(g, 2, kmisCSR(2), rand.New(rand.NewSource(delaySeedA)))
		b := RunRemSpanAsync(g, 2, kmisCSR(2), rand.New(rand.NewSource(delaySeedB)))
		if a.H.Len() != b.H.Len() {
			return false
		}
		ea, eb := a.H.Edges(), b.H.Edges()
		for i := range ea {
			if ea[i] != eb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncSpannerIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(40, 80, rng)
	res := RunRemSpanAsync(g, 1, kgreedyCSR(1), rand.New(rand.NewSource(9)))
	if v := spanner.Check(g, res.H.Graph(), spanner.NewStretch(1, 0)); v != nil {
		t.Fatalf("%v", v)
	}
	if res.Messages == 0 || res.Deliveries == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestAsyncRadiusTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomConnected(25, 50, rng)
	sync := RunRemSpan(g, 2, kmisCSR(2))
	async := RunRemSpanAsync(g, 2, kmisCSR(2), rand.New(rand.NewSource(5)))
	if sync.H.Len() != async.H.Len() {
		t.Fatalf("sync %d vs async %d", sync.H.Len(), async.H.Len())
	}
}
