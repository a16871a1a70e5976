package stats

import (
	"math"
	"sort"
)

// MannWhitneyU performs the two-sided Mann–Whitney rank-sum test on samples
// a and b, returning the U statistic (for sample a) and the approximate
// two-sided p-value under the normal approximation with tie correction.
// Used by the experiment analysis to state whether one algorithm's
// best-FOM distribution significantly beats another's.
//
// The normal approximation is appropriate for the sample sizes used here
// (n >= 5 per the paper's repeated runs).
func MannWhitneyU(a, b []float64) (u, p float64) {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return 0, 1
	}
	type obs struct {
		v     float64
		fromA bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Assign mid-ranks, accumulating the tie-correction term Σ(t³−t).
	ranks := make([]float64, len(all))
	var tieTerm float64
	for i := 0; i < len(all); {
		j := i
		//easybolint:ok floateq a statistical tie IS exact numeric equality of sorted neighbors
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		if t := float64(j - i); t > 1 {
			tieTerm += t*t*t - t
		}
		i = j
	}
	var r1 float64
	for i, o := range all {
		if o.fromA {
			r1 += ranks[i]
		}
	}
	u = r1 - float64(n1)*float64(n1+1)/2

	mean := float64(n1) * float64(n2) / 2
	nn := float64(n1 + n2)
	variance := float64(n1) * float64(n2) / 12 * (nn + 1 - tieTerm/(nn*(nn-1)))
	if variance <= 0 {
		return u, 1
	}
	// Continuity correction.
	z := (u - mean)
	switch {
	case z > 0.5:
		z -= 0.5
	case z < -0.5:
		z += 0.5
	default:
		z = 0
	}
	z /= math.Sqrt(variance)
	p = 2 * (1 - NormCDF(math.Abs(z)))
	if p > 1 {
		p = 1
	}
	return u, p
}

// SignTest returns the exact two-sided p-value of the sign test for wins and
// losses among paired differences (ties dropped beforehand): the probability,
// were either sign equally likely, of a split at least as lopsided. It is the
// test behind a paired comparison of two boards at equal seeds.
func SignTest(wins, losses int) float64 {
	n := wins + losses
	if n == 0 {
		return 1
	}
	k := min(wins, losses)
	// Σ_{i≤k} C(n,i) / 2ⁿ, the terms built up multiplicatively.
	term := math.Pow(0.5, float64(n))
	tail := term
	for i := 1; i <= k; i++ {
		term *= float64(n-i+1) / float64(i)
		tail += term
	}
	return math.Min(1, 2*tail)
}

// StudentT975 approximates the 97.5 % quantile of Student's t distribution
// with df degrees of freedom (df need not be whole: Welch's are not) by the
// Cornish–Fisher expansion around the normal quantile — within 0.3 % from
// df = 3 up (2.769 for the exact 2.776 at df = 4), 3 % low at df = 2, and
// 1.96 in the limit. It is what widens a two-standard-error tolerance to the
// run counts of a quick scoreboard, where two is not 97.5 % of anything.
func StudentT975(df float64) float64 {
	const z = 1.959963984540054
	if !(df > 0) {
		return math.Inf(1)
	}
	z2 := z * z
	return z * (1 +
		(z2+1)/(4*df) +
		((5*z2+16)*z2+3)/(96*df*df) +
		(((3*z2+19)*z2+17)*z2-15)/(384*df*df*df))
}
