package geom

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"remspan/internal/reference"
	"remspan/internal/testutil"
)

func TestPointDist(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if d := p.Dist(q); math.Abs(d-5) > 1e-12 {
		t.Fatalf("dist=%v, want 5", d)
	}
	if d := p.Dist(p); d != 0 {
		t.Fatalf("self dist=%v", d)
	}
}

func TestEuclideanMetric(t *testing.T) {
	m := EuclideanMetric{Points: []Point{{0, 0}, {1, 0}, {0, 1}}}
	if m.Len() != 3 {
		t.Fatal("len wrong")
	}
	if d := m.Dist(1, 2); math.Abs(d-math.Sqrt2) > 1e-12 {
		t.Fatalf("dist=%v", d)
	}
	// symmetry & triangle inequality
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m.Dist(i, j) != m.Dist(j, i) {
				t.Fatal("asymmetric")
			}
			for k := 0; k < 3; k++ {
				if m.Dist(i, j) > m.Dist(i, k)+m.Dist(k, j)+1e-12 {
					t.Fatal("triangle inequality violated")
				}
			}
		}
	}
}

func TestPoissonCountMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, lambda := range []float64{0.5, 5, 50, 800} {
		n := 4000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(PoissonCount(lambda, rng))
		}
		mean := sum / float64(n)
		tol := 5 * math.Sqrt(lambda/float64(n)) // ~5 sigma of the sample mean
		if math.Abs(mean-lambda) > tol+0.05 {
			t.Errorf("lambda=%v: sample mean %v", lambda, mean)
		}
	}
	if PoissonCount(0, rng) != 0 || PoissonCount(-1, rng) != 0 {
		t.Error("nonpositive lambda should give 0")
	}
}

func TestUniformBoxBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := UniformBox(100, 3, 2.5, rng)
	if len(pts) != 100 {
		t.Fatal("wrong count")
	}
	for _, p := range pts {
		if len(p) != 3 {
			t.Fatal("wrong dim")
		}
		for _, c := range p {
			if c < 0 || c > 2.5 {
				t.Fatalf("coordinate %v out of box", c)
			}
		}
	}
}

func TestPoissonSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := PoissonSquare(10, 4, rng) // expect ~160 points
	if len(pts) < 80 || len(pts) > 260 {
		t.Fatalf("unlikely point count %d for mean 160", len(pts))
	}
}

func TestUnitDiskGraphMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		pts := UniformBox(60, 2, 5, rng)
		r := 0.5 + rng.Float64()
		g := UnitDiskGraph(pts, r)
		m := EuclideanMetric{Points: pts}
		b := UnitBallGraph(m, r)
		if !reference.Equal(g, b) {
			t.Fatalf("trial %d: grid UDG differs from brute force", trial)
		}
	}
}

func TestUnitDiskGraphEdgeCases(t *testing.T) {
	if g := UnitDiskGraph(nil, 1); g.N() != 0 {
		t.Fatal("empty input")
	}
	pts := []Point{{0, 0}, {0.5, 0}, {2, 0}}
	g := UnitDiskGraph(pts, 1)
	if !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Fatal("wrong edges")
	}
	// boundary: exactly at distance r is connected
	g2 := UnitDiskGraph([]Point{{0, 0}, {1, 0}}, 1)
	if !g2.HasEdge(0, 1) {
		t.Fatal("boundary distance should connect")
	}
}

func TestBallGraphEdges(t *testing.T) {
	m := EuclideanMetric{Points: []Point{{0, 0}, {0.5, 0}, {3, 0}}}
	es := BallGraphEdges(m, 1)
	if len(es) != 1 || es[0].U != 0 || es[0].V != 1 {
		t.Fatalf("edges = %v", es)
	}
	if math.Abs(es[0].W-0.5) > 1e-12 {
		t.Fatalf("weight = %v", es[0].W)
	}
}

// TestPoissonCountRejectsNonFinite pins the panic on a non-finite mean.
// A NaN mean (PoissonSquare on a zero side: Inf·0) used to spin the
// inversion loop forever, so each call runs under a deadline.
func TestPoissonCountRejectsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	calls := map[string]func(){
		"NaN":                  func() { PoissonCount(math.NaN(), rng) },
		"+Inf":                 func() { PoissonCount(math.Inf(1), rng) },
		"-Inf":                 func() { PoissonCount(math.Inf(-1), rng) },
		"PoissonSquare side 0": func() { PoissonSquare(math.Inf(1), 0, rng) },
	}
	for name, call := range calls {
		if msg := testutil.PanicWithin(t, 5*time.Second, call); !strings.HasPrefix(msg, "geom:") || !strings.Contains(msg, "non-finite") {
			t.Errorf("%s: panic %q, want a geom: message naming a non-finite mean", name, msg)
		}
	}
	if k := PoissonCount(0, rng); k != 0 {
		t.Fatalf("PoissonCount(0) = %d", k)
	}
}
