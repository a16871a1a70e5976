// Package acq implements the acquisition functions compared in the EasyBO
// paper: UCB/LCB (Eq. 3), EI, PI, the weighted pBO acquisition (Eq. 4/7),
// the pHCBO high-coverage penalty (Eq. 5–6), and EasyBO's randomized-weight
// acquisition with hallucinated uncertainty (Eq. 8–9).
//
// All acquisitions are formulated for MAXIMIZATION of the objective and are
// intended to be evaluated on standardized surrogate outputs (zero-mean,
// unit-variance), which is how the weighted forms keep µ and σ commensurate.
package acq

import (
	"math"
	"math/rand"

	"easybo/internal/stats"
)

// Surrogate is the posterior interface acquisitions consume.
type Surrogate interface {
	// Predict returns the posterior mean and standard deviation at x.
	Predict(x []float64) (mu, sigma float64)
}

// Func scores a candidate point; higher is better. Every acquisition here
// is a function of the posterior mean and deviation at the point alone, and
// Partials returns its two derivatives there, ∂α/∂µ and ∂α/∂σ — with the
// posterior's own gradients (surrogate.Predictor.PredictGrad) all a
// gradient-based maximizer needs: ∇α = ∂α/∂µ·∇µ + ∂α/∂σ·∇σ.
type Func interface {
	Value(s Surrogate, x []float64) float64
	Partials(mu, sigma float64) (dMu, dSigma float64)
	Name() string
}

// UCB is the upper confidence bound µ + κσ (paper Eq. 3).
type UCB struct{ Kappa float64 }

// Name implements Func.
func (UCB) Name() string { return "UCB" }

// Value implements Func.
func (u UCB) Value(s Surrogate, x []float64) float64 {
	mu, sigma := s.Predict(x)
	return mu + u.Kappa*sigma
}

// Partials implements Func.
func (u UCB) Partials(_, _ float64) (dMu, dSigma float64) { return 1, u.Kappa }

// LCB is the optimistic lower-confidence-bound strategy from the paper's
// baseline list. For a maximization problem the optimistic rule coincides
// with UCB; the type exists so experiment tables can name it faithfully.
type LCB struct{ Kappa float64 }

// Name implements Func.
func (LCB) Name() string { return "LCB" }

// Value implements Func.
func (l LCB) Value(s Surrogate, x []float64) float64 {
	return UCB{Kappa: l.Kappa}.Value(s, x)
}

// Partials implements Func.
func (l LCB) Partials(_, _ float64) (dMu, dSigma float64) { return 1, l.Kappa }

// EI is the expected improvement over Best by at least Xi.
type EI struct {
	Best float64
	Xi   float64
}

// Name implements Func.
func (EI) Name() string { return "EI" }

// Value implements Func.
func (e EI) Value(s Surrogate, x []float64) float64 {
	mu, sigma := s.Predict(x)
	if sigma <= 1e-12 {
		if d := mu - e.Best - e.Xi; d > 0 {
			return d
		}
		return 0
	}
	z := (mu - e.Best - e.Xi) / sigma
	v := (mu-e.Best-e.Xi)*stats.NormCDF(z) + sigma*stats.NormPDF(z)
	// Expected improvement is non-negative by definition; floating-point
	// cancellation at extreme magnitudes can produce tiny negatives or NaN.
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	return v
}

// Partials implements Func: ∂EI/∂µ = Φ(z), ∂EI/∂σ = φ(z). On the certain
// posterior (σ ≤ 1e-12) EI is max(µ − Best − Xi, 0), and where Value clamps
// to zero so does the gradient.
func (e EI) Partials(mu, sigma float64) (dMu, dSigma float64) {
	d := mu - e.Best - e.Xi
	if sigma <= 1e-12 {
		if d > 0 {
			return 1, 0
		}
		return 0, 0
	}
	z := d / sigma
	cdf, pdf := stats.NormCDF(z), stats.NormPDF(z)
	if v := d*cdf + sigma*pdf; math.IsNaN(v) || v < 0 {
		return 0, 0
	}
	return cdf, pdf
}

// PI is the probability of improvement over Best by at least Xi.
type PI struct {
	Best float64
	Xi   float64
}

// Name implements Func.
func (PI) Name() string { return "PI" }

// Value implements Func.
func (p PI) Value(s Surrogate, x []float64) float64 {
	mu, sigma := s.Predict(x)
	if sigma <= 1e-12 {
		if mu-p.Best-p.Xi > 0 {
			return 1
		}
		return 0
	}
	return stats.NormCDF((mu - p.Best - p.Xi) / sigma)
}

// Partials implements Func: with z = (µ − Best − Xi)/σ, ∂PI/∂µ = φ(z)/σ and
// ∂PI/∂σ = −z·φ(z)/σ; PI is a step on the certain posterior, flat on both
// sides.
func (p PI) Partials(mu, sigma float64) (dMu, dSigma float64) {
	if sigma <= 1e-12 {
		return 0, 0
	}
	z := (mu - p.Best - p.Xi) / sigma
	pdf := stats.NormPDF(z)
	return pdf / sigma, -z * pdf / sigma
}

// Weighted is the pBO/EasyBO weighted acquisition (paper Eq. 4, 7, 8, 9):
//
//	α(x, w) = (1−w)·µ(x) + w·σ(x)
//
// With the EasyBO penalization the Surrogate passed in is the hallucinated
// model, making σ the deflated σ̂ of Eq. (9).
type Weighted struct{ W float64 }

// Name implements Func.
func (Weighted) Name() string { return "Weighted" }

// Value implements Func.
func (a Weighted) Value(s Surrogate, x []float64) float64 {
	mu, sigma := s.Predict(x)
	return (1-a.W)*mu + a.W*sigma
}

// Partials implements Func.
func (a Weighted) Partials(_, _ float64) (dMu, dSigma float64) { return 1 - a.W, a.W }

// PBOWeights returns the fixed weight ladder used by pBO/pHCBO in the paper:
// w_i = (i−1)/(B−1) for batch size B (w = 0 for B = 1).
func PBOWeights(b int) []float64 {
	w := make([]float64, b)
	if b <= 1 {
		return w
	}
	for i := 0; i < b; i++ {
		w[i] = float64(i) / float64(b-1)
	}
	return w
}

// SampleWeight draws EasyBO's randomized weight (paper §III-B):
// κ ~ U[0, λ], w = κ/(κ+1). The induced density of w rises toward 1,
// favouring exploration and batch diversity. λ = 6 in the paper.
func SampleWeight(rng *rand.Rand, lambda float64) float64 {
	if lambda <= 0 {
		lambda = DefaultLambda
	}
	kappa := rng.Float64() * lambda
	return kappa / (kappa + 1)
}

// DefaultLambda is the paper's λ = 6.0 (§III-B).
const DefaultLambda = 6.0

// WeightDensity returns the analytic density of w under κ ~ U[0, λ],
// w = κ/(κ+1); used to regenerate the paper's Figure 2. The support is
// [0, λ/(λ+1)].
func WeightDensity(w, lambda float64) float64 {
	if lambda <= 0 {
		lambda = DefaultLambda
	}
	wMax := lambda / (lambda + 1)
	if w < 0 || w > wMax {
		return 0
	}
	// κ = w/(1−w), dκ/dw = 1/(1−w)²; density = (1/λ)·dκ/dw.
	d := 1 - w
	return 1 / (lambda * d * d)
}

// HCPenalty is the pHCBO high-coverage penalization term (paper Eq. 6):
//
//	α_HC(x) = N_HC · (∏_{j=1}^{5} exp[(d/dx_j)^10])^{1/5}
//
// where dx_j is the distance from x to the j-th most recent query of the
// same weight index and d is a manually chosen radius. Far from all recent
// queries the term tends to the constant N_HC (which does not move the
// argmax); within radius d it explodes and vetoes the region.
type HCPenalty struct {
	NHC    float64     // penalty scale (paper: "extremely large"; default 100)
	D      float64     // veto radius in normalized input space (default 0.1)
	Recent [][]float64 // up to 5 most recent queries for this weight index
}

// Value returns the penalty to SUBTRACT from the base acquisition.
func (h HCPenalty) Value(x []float64) float64 { return h.ValueGrad(x, nil) }

// ValueGrad returns the penalty and, when grad is not nil, writes its
// gradient in x there:
//
//	∇α_HC = α_HC · ⅕ Σ_j ∇e_j,   e_j = (d/dx_j)^10,   ∇e_j = −10·e_j·(x − q_j)/dx_j²,
//
// a term at the overflow guard contributing nothing (it is constant there).
// On top of a recent query the penalty is +Inf and the gradient zero.
func (h HCPenalty) ValueGrad(x, grad []float64) float64 {
	nhc := h.NHC
	if nhc == 0 {
		nhc = 100
	}
	d := h.D
	if d == 0 {
		d = 0.1
	}
	for i := range grad {
		grad[i] = 0
	}
	if len(h.Recent) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for _, q := range h.Recent {
		if n == 5 {
			break
		}
		n++
		var dist2 float64
		for i := range x {
			diff := x[i] - q[i]
			dist2 += diff * diff
		}
		dx := math.Sqrt(dist2)
		if dx < 1e-12 {
			for i := range grad {
				grad[i] = 0
			}
			return math.Inf(1)
		}
		e := math.Pow(d/dx, 10)
		if e > 600 { // exp overflow guard: the veto is already absolute
			e = 600
		} else if grad != nil {
			c := -10 * e / dist2
			for i := range grad {
				grad[i] += c * (x[i] - q[i])
			}
		}
		sum += e
	}
	v := nhc * math.Exp(sum/5)
	for i := range grad {
		grad[i] *= v / 5
	}
	return v
}
