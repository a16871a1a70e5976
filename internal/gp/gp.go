package gp

import (
	"errors"
	"fmt"
	"math"

	"easybo/internal/linalg"
)

// GP is a fitted Gaussian-process regressor over inputs and outputs taken
// as given — in practice the unit cube and standardized outputs that
// surrogate.Exact maps raw units into.
type GP struct {
	Kern     Kernel
	X        [][]float64
	Y        []float64
	Theta    []float64 // kernel hyperparameters (log space)
	LogNoise float64   // log σn

	chol  *linalg.Cholesky
	alpha []float64 // K⁻¹y

	// st holds the theta-derived constants of the kernel, prepared once per
	// fit so every covariance evaluation costs a single exponential.
	st distState
}

// Fit builds the covariance matrix and factors it. X rows are d-dimensional
// inputs; Y observations. The inputs are retained by reference — callers
// must not mutate them afterwards.
func Fit(kern Kernel, x [][]float64, y []float64, theta []float64, logNoise float64) (*GP, error) {
	if err := checkTrainingSet(x, y); err != nil {
		return nil, err
	}
	validateTheta(kern, theta, len(x[0]))
	g := &GP{Kern: kern, X: x, Y: y, Theta: append([]float64(nil), theta...), LogNoise: logNoise,
		st: prepDist(theta, len(x[0]))}
	chol, err := linalg.NewCholesky(g.buildCov())
	if err != nil {
		return nil, fmt.Errorf("gp: covariance factorization: %w", err)
	}
	g.chol = chol
	g.alpha = chol.Solve(y)
	return g, nil
}

// checkTrainingSet rejects an empty, ragged or mismatched training set.
func checkTrainingSet(x [][]float64, y []float64) error {
	n := len(x)
	if n == 0 {
		return errors.New("gp: empty training set")
	}
	if len(y) != n {
		return fmt.Errorf("gp: %d inputs but %d observations", n, len(y))
	}
	d := len(x[0])
	for i, xi := range x {
		if len(xi) != d {
			return fmt.Errorf("gp: input %d has dimension %d, want %d", i, len(xi), d)
		}
	}
	return nil
}

// kernEval evaluates k(a, b) at the fitted hyperparameters.
func (g *GP) kernEval(a, b []float64) float64 {
	return g.Kern.evalScaled(&g.st, g.st.scaledSq(a, b))
}

// minNoise2 floors the observation-noise variance wherever it enters a
// linear system (covariance diagonals, feature-space information matrices):
// a numerically zero σn² would make those systems singular. The floor is far
// below the hyperparameter optimizer's noise bounds, so it only binds for
// hand-set FixedNoise values.
const minNoise2 = 1e-10

// NoiseVar returns the floored observation-noise variance σn² for a
// log-noise parameter. Shared by the covariance assembly, the incremental
// extension, the Gram cache, and the RFF machinery so the floor cannot
// drift between them.
func NoiseVar(logNoise float64) float64 {
	n2 := math.Exp(2 * logNoise)
	if n2 < minNoise2 {
		return minNoise2
	}
	return n2
}

// buildCov assembles K + σn²I over the training inputs.
func (g *GP) buildCov() *linalg.Matrix {
	n := len(g.X)
	k := linalg.NewMatrix(n, n)
	noise2 := NoiseVar(g.LogNoise)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := g.kernEval(g.X[i], g.X[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
		k.Add(i, i, noise2)
	}
	return k
}

// N returns the number of training points.
func (g *GP) N() int { return len(g.X) }

// Dim returns the input dimension.
func (g *GP) Dim() int { return len(g.X[0]) }

// PredictBuf holds reusable scratch for allocation-free predictions: the
// kernel vectors of up to linalg.SolveWidth query points, and what a busy set's
// correction needs per point. A buf belongs to one goroutine at a time; create
// one per worker. The zero value is ready and sizes itself to the GP, the busy
// set and the batch widths it meets.
type PredictBuf struct {
	flat []float64
	ks   [linalg.SolveWidth][]float64
	busy []float64 // c, z and ∂k/∂s to the busy points, len(Busy.x) each
}

// sized returns w kernel vectors of length n.
func (b *PredictBuf) sized(w, n int) [][]float64 {
	if len(b.flat) < w*n {
		b.flat = make([]float64, w*n)
	}
	for j := 0; j < w; j++ {
		b.ks[j] = b.flat[j*n : (j+1)*n : (j+1)*n]
	}
	return b.ks[:w]
}

// busyScratch returns the c, z and ∂k/∂s vectors for a busy set of nb points.
func (b *PredictBuf) busyScratch(nb int) (c, z, dk []float64) {
	if len(b.busy) < 3*nb {
		b.busy = make([]float64, 3*nb)
	}
	return b.busy[:nb:nb], b.busy[nb : 2*nb : 2*nb], b.busy[2*nb : 3*nb : 3*nb]
}

// PredictBatchWith predicts at every xs[i] into mu[i] and sigma[i] (paper
// Eq. (2); the deviation is the latent function's, without the observation
// noise), conditioned on the busy set when it is not nil. The deviation needs
// v = L⁻¹·k(x), a forward substitution whose every row is a floating-point
// dependency chain; linalg.SolveWidth points go through the factor together
// and the solve interleaves their chains — a lone point's rows with one
// another — so no width runs at add latency. Each point's arithmetic is
// exactly the single-point sequence — kernel vector, mean, solve, variance,
// busy correction — so the values are bit-identical to predicting the points
// one at a time, in any grouping.
//
// keep, when not nil, is asked about each point before its solve, with its
// mean and sigmaMax = √k(x,x). The variance is that same k(x,x) less a sum of
// squares, less another with a busy set, which cannot make it larger under
// rounding either, so σ ≤ sigmaMax holds in floating point with no margin. A
// point keep rejects skips the solve and gets sigma −1, which no deviation
// is; the points it keeps fill the solve groups in order, so each gets the
// bits it gets with keep nil.
func (g *GP) PredictBatchWith(buf *PredictBuf, busy *Busy, xs [][]float64, mu, sigma []float64, keep func(mu, sigmaMax float64) bool) {
	ks := buf.sized(min(len(xs), linalg.SolveWidth), g.N())
	var at [linalg.SolveWidth]int // the point each pending kernel vector is for
	var kss [linalg.SolveWidth]float64
	w := 0
	for i, x := range xs {
		k := ks[w]
		for t, xt := range g.X {
			k[t] = g.kernEval(x, xt)
		}
		mu[i] = linalg.Dot(k, g.alpha)
		kss[w] = g.kernEval(x, x)
		if keep != nil && !keep(mu[i], math.Sqrt(kss[w])) {
			sigma[i] = -1
			continue
		}
		at[w] = i
		if w++; w == len(ks) {
			g.deviations(buf, busy, xs, ks, at[:], kss[:], sigma)
			w = 0
		}
	}
	if w > 0 {
		g.deviations(buf, busy, xs, ks[:w], at[:w], kss[:w], sigma)
	}
}

// deviations solves the pending kernel vectors ks in place (v = L⁻¹·k) and
// writes σ = √(k(x,x) − ‖v‖² − busy.reduction) of the point at[j] each is for.
func (g *GP) deviations(buf *PredictBuf, busy *Busy, xs, ks [][]float64, at []int, kss []float64, sigma []float64) {
	g.chol.SolveLowerMulti(ks)
	for j, v := range ks {
		s2 := kss[j] - linalg.Dot(v, v)
		if busy != nil {
			c, _, _ := buf.busyScratch(len(busy.x))
			x := xs[at[j]]
			for i, b := range busy.x {
				c[i] = g.kernEval(x, b) - linalg.Dot(v, busy.w[i])
			}
			s2 -= busy.reduction(c)
		}
		if s2 < 0 {
			s2 = 0
		}
		sigma[at[j]] = math.Sqrt(s2)
	}
}

// sigmaFloor is the deviation at or below which the posterior is treated as
// certain: ∇σ = ∇σ²/(2σ) is then reported as zero instead of a quotient of
// two rounding errors. It is the floor the acquisitions use (acq.EI).
const sigmaFloor = 1e-12

// PredictGradWith returns the posterior mean and deviation at x, conditioned
// on the busy set when it is not nil, and writes their gradients in x into
// dmu and dsigma:
//
//	∇µ = Σᵢ αᵢ·∇k(x, xᵢ),   ∇σ² = −2 Σᵢ βᵢ·∇k(x, xᵢ),   β = K⁻¹k(x),
//
// with ∇k(x, xᵢ) = dk/ds·2(x − xᵢ)/l². A busy set adds −2 Σⱼ zⱼ·∇cⱼ to ∇σ²
// (z = S⁻¹c, see Busy): β loses Σⱼ zⱼγⱼ, and the busy points join the sum
// with weights zⱼ. The mean and deviation are computed by PredictBatchWith's
// arithmetic on a batch of one, so they are the same bits; the gradient
// costs one more triangular solve (β = L⁻ᵀ·L⁻¹k, whose first half the
// deviation already paid for) and an O((n + |busy|)·d) pass. Where
// σ ≤ sigmaFloor — at a noise-free training point — dsigma is zero. The
// scratch is three of buf's kernel vectors.
func (g *GP) PredictGradWith(buf *PredictBuf, busy *Busy, x, dmu, dsigma []float64) (mu, sigma float64) {
	n := g.N()
	ks := buf.sized(3, n)
	k, c, beta := ks[0], ks[1], ks[2]
	for i, xi := range g.X {
		s := g.st.scaledSq(x, xi)
		k[i] = g.Kern.evalScaled(&g.st, s)
		c[i] = g.Kern.dkds(&g.st, s, k[i])
	}
	mu = linalg.Dot(k, g.alpha)
	g.chol.SolveLowerInto(k, k) // v = L⁻¹k
	s2 := g.kernEval(x, x) - linalg.Dot(k, k)
	var cb, z, dkb []float64
	if busy != nil {
		cb, z, dkb = buf.busyScratch(len(busy.x))
		for i, b := range busy.x {
			s := g.st.scaledSq(x, b)
			kb := g.Kern.evalScaled(&g.st, s)
			dkb[i] = g.Kern.dkds(&g.st, s, kb)
			cb[i] = kb - linalg.Dot(k, busy.w[i])
		}
		s2 -= busy.reduction(cb)
	}
	if s2 < 0 {
		s2 = 0
	}
	sigma = math.Sqrt(s2)
	g.chol.SolveUpperTInto(beta, k) // β = L⁻ᵀv
	if busy != nil {
		busy.weights(z, cb)
		for i, gi := range busy.gamma {
			for t, v := range gi {
				beta[t] -= z[i] * v
			}
		}
	}

	for j := range dmu {
		dmu[j], dsigma[j] = 0, 0
	}
	for i, xi := range g.X {
		wm, ws := g.alpha[i]*c[i], beta[i]*c[i]
		for j, xj := range x {
			r := xj - xi[j]
			dmu[j] += wm * r
			dsigma[j] += ws * r
		}
	}
	if busy != nil {
		for i, b := range busy.x {
			ws := z[i] * dkb[i]
			for j, xj := range x {
				dsigma[j] += ws * (xj - b[j])
			}
		}
	}
	// dsigma holds Σ βᵢcᵢ(x − xᵢ) (+ Σ zⱼ·dk/dsⱼ·(x − bⱼ)): ∇σ² is
	// −4·invl2 times it, ∇σ that over 2σ.
	toSigma := 0.0
	if sigma > sigmaFloor {
		toSigma = -2 / sigma
	}
	for j, l := range g.st.invl2 {
		dmu[j] *= 2 * l
		dsigma[j] *= toSigma * l
	}
	return mu, sigma
}

// LogMarginalLikelihood returns log p(y | X, θ).
func (g *GP) LogMarginalLikelihood() float64 {
	n := float64(g.N())
	return -0.5*linalg.Dot(g.Y, g.alpha) - 0.5*g.chol.LogDet() - 0.5*n*math.Log(2*math.Pi)
}

// LMLGradient returns the gradient of the log marginal likelihood with
// respect to [kernel hyperparameters…, log σn], using
// ∂LML/∂θ = ½·tr((ααᵀ − K⁻¹)·∂K/∂θ). It is the hyperparameter optimizer's
// gradient (trainWork.gradient) on a one-off workspace.
func (g *GP) LMLGradient() []float64 {
	w := newTrainWork(g.Kern, g.X, g.Y)
	w.cache.buildCovInto(w.k, g.Kern, &g.st, g.LogNoise)
	return w.gradient(g)
}

// Extend returns a new GP whose training set is augmented with the given
// observations at unchanged hyperparameters, extending the existing
// Cholesky factor by rank-append instead of refactoring: O(k·n²) for k new
// points against the O(n³) of a fresh Fit. The receiver is unchanged and
// remains usable. The posterior is identical (bitwise, for the built-in
// kernels) to a from-scratch Fit on the concatenated data; if the appended
// factorization loses positive definiteness the full refit is performed
// transparently.
func (g *GP) Extend(xNew [][]float64, yNew []float64) (*GP, error) {
	k := len(xNew)
	if k == 0 {
		return g, nil
	}
	if len(yNew) != k {
		return nil, fmt.Errorf("gp: %d new inputs but %d new observations", k, len(yNew))
	}
	d := g.Dim()
	for i, xi := range xNew {
		if len(xi) != d {
			return nil, fmt.Errorf("gp: new input %d has dimension %d, want %d", i, len(xi), d)
		}
	}
	n := g.N()
	x := make([][]float64, 0, n+k)
	x = append(x, g.X...)
	x = append(x, xNew...)
	y := make([]float64, 0, n+k)
	y = append(y, g.Y...)
	y = append(y, yNew...)

	noise2 := NoiseVar(g.LogNoise)
	rows := make([][]float64, k)
	diag := make([]float64, k)
	for i := 0; i < k; i++ {
		row := make([]float64, n+i)
		for j := 0; j < n+i; j++ {
			// Argument order matches buildCov (existing point first) so the
			// appended factor is bitwise identical to a from-scratch one.
			row[j] = g.kernEval(x[j], xNew[i])
		}
		rows[i] = row
		diag[i] = g.kernEval(xNew[i], xNew[i]) + noise2
	}
	chol, err := g.chol.Append(rows, diag)
	if err != nil {
		// The fixed jitter no longer suffices for the grown matrix; pay for
		// one full refactorization, which re-runs the adaptive jitter ladder.
		return Fit(g.Kern, x, y, g.Theta, g.LogNoise)
	}
	out := &GP{Kern: g.Kern, X: x, Y: y, Theta: g.Theta, LogNoise: g.LogNoise,
		chol: chol, st: g.st}
	out.alpha = chol.Solve(y)
	return out, nil
}
