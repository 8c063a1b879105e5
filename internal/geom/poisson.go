package geom

import (
	"fmt"
	"math"
	"math/rand"
)

// PoissonCount samples a Poisson(lambda) count using inversion for
// small lambda and a normal approximation beyond (lambda > 500), which
// is ample for generating point processes. A non-finite lambda panics:
// NaN passes both range tests and would spin the inversion loop
// forever, and +Inf would convert to an arbitrary count.
func PoissonCount(lambda float64, rng *rand.Rand) int {
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		panic(fmt.Sprintf("geom: PoissonCount of a non-finite mean %v", lambda))
	}
	if lambda <= 0 {
		return 0
	}
	if lambda > 500 {
		// Normal approximation with continuity correction.
		n := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	// Knuth inversion.
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// PoissonSquare samples a uniform Poisson point process of intensity
// lambda on the side×side square: the number of points is
// Poisson(lambda·side²) and positions are i.i.d. uniform. This is the
// paper's random unit-disk-graph model ("uniform Poisson distribution
// of nodes in a fixed square").
func PoissonSquare(lambda, side float64, rng *rand.Rand) []Point {
	n := PoissonCount(lambda*side*side, rng)
	return UniformBox(n, 2, side, rng)
}

// UniformBox returns n i.i.d. uniform points in [0, side]^dim.
func UniformBox(n, dim int, side float64, rng *rand.Rand) []Point {
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, dim)
		for d := range p {
			p[d] = rng.Float64() * side
		}
		pts[i] = p
	}
	return pts
}
