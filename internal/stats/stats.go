// Package stats provides the small statistics toolkit used by the
// experiment harness: summary statistics, least-squares fits (notably
// log–log slope fits for scaling-exponent estimation) and aligned
// text-table rendering.
package stats

import "math"

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Fit is a least-squares line y = Slope·x + Intercept with the
// coefficient of determination R².
type Fit struct {
	Slope, Intercept, R2 float64
}

// LeastSquares fits a line to (xs, ys) (panics on length mismatch;
// returns zero Fit for fewer than 2 points).
func LeastSquares(xs, ys []float64) Fit {
	if len(xs) != len(ys) {
		panic("stats: length mismatch")
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return Fit{}
	}
	mx, my := Mean(xs), Mean(ys)
	sxx, sxy, syy := 0.0, 0.0, 0.0
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{Intercept: my}
	}
	slope := sxy / sxx
	fit := Fit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R2 = sxy * sxy / (sxx * syy)
	} else {
		fit.R2 = 1
	}
	_ = n
	return fit
}

// LogLogSlope fits log(y) against log(x), returning the scaling
// exponent: y ≈ C·x^Slope. Non-positive points are skipped.
func LogLogSlope(xs, ys []float64) Fit {
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	return LeastSquares(lx, ly)
}
