package stats

import (
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample, matching the columns of
// the paper's result tables (Best / Worst / Mean / Std).
type Summary struct {
	N          int
	Best       float64 // maximum (the paper maximizes FOM)
	Worst      float64 // minimum
	Mean       float64
	Std        float64 // sample standard deviation (n-1 denominator)
	Median     float64
	Q1, Q3     float64
	BestIndex  int
	WorstIndex int
}

// Summarize computes descriptive statistics of xs.
// An empty sample yields a zero Summary with NaN moments.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Best: math.Inf(-1), Worst: math.Inf(1)}
	if len(xs) == 0 {
		s.Best, s.Worst = math.NaN(), math.NaN()
		s.Mean, s.Std, s.Median = math.NaN(), math.NaN(), math.NaN()
		return s
	}
	var sum float64
	for i, x := range xs {
		sum += x
		if x > s.Best {
			s.Best, s.BestIndex = x, i
		}
		if x < s.Worst {
			s.Worst, s.WorstIndex = x, i
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantileSorted(sorted, 0.5)
	s.Q1 = quantileSorted(sorted, 0.25)
	s.Q3 = quantileSorted(sorted, 0.75)
	return s
}

// quantileSorted returns the linearly interpolated p-quantile of a sorted
// sample.
func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for n < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}
