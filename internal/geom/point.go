// Package geom provides the geometric substrate for the paper's input
// models: point sets in R^d, Poisson point processes in a fixed square,
// unit-disk graphs and unit-ball graphs of arbitrary metrics.
package geom

import "math"

// Point is a point in R^d.
type Point []float64

// Dist returns the Euclidean distance between p and q (which must have
// equal dimension).
func (p Point) Dist(q Point) float64 {
	s := 0.0
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Metric exposes pairwise distances between n abstract points. The
// paper's unit ball graphs are defined over a metric of bounded
// doubling dimension; the metric itself is *not* given to the
// remote-spanner algorithms (only the graph is).
type Metric interface {
	Len() int
	Dist(i, j int) float64
}

// EuclideanMetric is the metric of a finite point set in R^d.
type EuclideanMetric struct {
	Points []Point
}

// Len returns the number of points.
func (m EuclideanMetric) Len() int { return len(m.Points) }

// Dist returns the Euclidean distance between points i and j.
func (m EuclideanMetric) Dist(i, j int) float64 { return m.Points[i].Dist(m.Points[j]) }
