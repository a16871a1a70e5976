// Package stats provides the probability and sampling utilities used across
// the optimizer: the standard normal distribution (pdf, cdf), the
// Latin-hypercube initial design, descriptive statistics for result tables,
// and deterministic RNG streams.
package stats

import "math"

const (
	invSqrt2   = 1.0 / math.Sqrt2
	invSqrt2Pi = 0.3989422804014326779399460599343818684758586311649346576659258296
)

// NormPDF returns the standard normal density at z.
func NormPDF(z float64) float64 {
	return invSqrt2Pi * math.Exp(-0.5*z*z)
}

// NormCDF returns P(Z <= z) for a standard normal Z.
func NormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z*invSqrt2)
}

// LogNormPDF returns the log of the standard normal density at z.
func LogNormPDF(z float64) float64 {
	return -0.5*z*z - 0.5*math.Log(2*math.Pi)
}
