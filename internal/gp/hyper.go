package gp

import (
	"math"
	"math/rand"

	"easybo/internal/linalg"
)

// FitOptions configures hyperparameter optimization.
type FitOptions struct {
	Restarts  int       // additional random restarts (default 1)
	Iters     int       // Adam iterations per start (default 60)
	InitTheta []float64 // warm start for the kernel hyperparameters
	InitNoise float64   // warm start for log σn (used when InitTheta != nil)
	NoiseLo   float64   // lower bound for log σn (default log 1e-4)
	NoiseHi   float64   // upper bound for log σn (default log 1)
	// WarmOnly restricts the optimization to the InitTheta start alone —
	// no default start, no random restarts. This is the cadenced-refit
	// configuration: the previous optimum is almost always in the right
	// basin, and the extra starts triple the cost of the hot path.
	WarmOnly bool
}

func (o *FitOptions) defaults() {
	if o.Restarts <= 0 {
		o.Restarts = 1
	}
	if o.Iters <= 0 {
		o.Iters = 60
	}
	if o.NoiseLo == 0 {
		o.NoiseLo = math.Log(1e-4)
	}
	if o.NoiseHi == 0 {
		o.NoiseHi = math.Log(1.0)
	}
}

// FitHyper fits GP hyperparameters by maximizing the log marginal likelihood
// with Adam on the analytic gradient, projected to the kernel bounds, over
// one default start, an optional warm start, and Restarts random starts.
// It returns the best fitted GP found. rng drives the random restarts and
// must not be nil.
func FitHyper(kern Kernel, x [][]float64, y []float64, rng *rand.Rand, opts *FitOptions) (*GP, error) {
	var o FitOptions
	if opts != nil {
		o = *opts
	}
	o.defaults()
	if err := checkTrainingSet(x, y); err != nil {
		return nil, err
	}
	d := len(x[0])
	lo, hi := kern.Bounds(d)

	type start struct {
		theta []float64
		noise float64
	}
	var starts []start
	if o.InitTheta != nil {
		validateTheta(kern, o.InitTheta, d)
		starts = append(starts, start{o.InitTheta, o.InitNoise})
	}
	if o.InitTheta == nil || !o.WarmOnly {
		starts = append(starts, start{kern.DefaultTheta(d), math.Log(1e-2)})
		for r := 0; r < o.Restarts; r++ {
			th := make([]float64, kern.NumHyper(d))
			for i := range th {
				th[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
			}
			starts = append(starts, start{th, o.NoiseLo + rng.Float64()*(o.NoiseHi-o.NoiseLo)})
		}
	}

	w := newTrainWork(kern, x, y)
	for _, st := range starts {
		w.adam(st.theta, st.noise, lo, hi, o)
	}
	if w.best == nil {
		// Last resort: plain fit at the default hyperparameters with a large
		// noise floor, which is always positive definite.
		return Fit(kern, x, y, kern.DefaultTheta(d), math.Log(0.1))
	}
	// The winner leaves with its slot's buffers — the workspace ends here, so
	// nothing else will write them — copied out of the slot array so that the
	// rest of the workspace does not stay reachable through it.
	g := *w.best
	return &g, nil
}

// trainWork is the storage one FitHyper call works in. The training inputs
// never change during a hyperparameter fit, so everything an Adam step
// touches is sized once: the pairwise coordinate differences (computed
// exactly once for every start and step), the Gram matrix, two factor slots,
// and the scratch of the K⁻¹ the gradient consumes. A step allocates nothing.
//
// Ownership: slot[0] and slot[1] are GPs whose Theta, distState, factor and
// alpha live here and are overwritten in place. best points at the slot
// holding the best fit visited so far (over all starts); each step fits into
// the other one, and takes over best — handing its predecessor's slot back
// for reuse — only by beating it. The workspace lives for one FitHyper call
// and is never pooled, so the winner can leave with its slot's buffers.
type trainWork struct {
	cache *gramCache
	k     *linalg.Matrix // K + σn²I of the step being taken; read un-jittered after factoring
	slot  [2]GP
	best  *GP // nil until some step's LML beats −Inf
	lml   float64

	ginv, kinv *linalg.Matrix // L⁻¹ (lower) and K⁻¹ (upper triangle only)
	zero       []float64      // a point's coordinate differences with itself
	grad       []float64
	p, m, v    []float64 // Adam parameters and moments
}

func newTrainWork(kern Kernel, x [][]float64, y []float64) *trainWork {
	n, d := len(x), len(x[0])
	nh := kern.NumHyper(d)
	w := &trainWork{
		cache: newGramCache(x),
		k:     linalg.NewMatrix(n, n),
		lml:   math.Inf(-1),
		ginv:  linalg.NewMatrix(n, n),
		kinv:  linalg.NewMatrix(n, n),
		zero:  make([]float64, d),
		grad:  make([]float64, nh+1),
		p:     make([]float64, nh+1),
		m:     make([]float64, nh+1),
		v:     make([]float64, nh+1),
	}
	for i := range w.slot {
		w.slot[i] = GP{Kern: kern, X: x, Y: y,
			Theta: make([]float64, nh),
			chol:  &linalg.Cholesky{},
			alpha: make([]float64, n),
			st:    distState{invl2: make([]float64, d)},
		}
	}
	return w
}

// fit is Fit at (theta, logNoise) into the slot g, Gram matrix into w.k.
func (w *trainWork) fit(g *GP, theta []float64, logNoise float64) error {
	copy(g.Theta, theta)
	g.LogNoise = logNoise
	g.st.prep(theta)
	w.cache.buildCovInto(w.k, g.Kern, &g.st, logNoise)
	if err := linalg.NewCholeskyInto(g.chol, w.k); err != nil {
		return err
	}
	g.chol.SolveInto(g.alpha, g.Y)
	return nil
}

// adam runs projected Adam ascent on the LML from one start, leaving the
// best GP visited in w.best if it beats what earlier starts found.
func (w *trainWork) adam(theta0 []float64, noise0 float64, lo, hi []float64, o FitOptions) {
	nh := len(theta0)
	p, m, v := w.p, w.m, w.v // parameters: kernel hypers + log noise
	copy(p, theta0)
	p[nh] = noise0
	clear(m)
	clear(v)
	clamp := func(p []float64) {
		for i := 0; i < nh; i++ {
			p[i] = math.Min(math.Max(p[i], lo[i]), hi[i])
		}
		p[nh] = math.Min(math.Max(p[nh], o.NoiseLo), o.NoiseHi)
	}
	clamp(p)
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	const learnRate = 0.08 // Adam step size in log space

	for iter := 1; iter <= o.Iters; iter++ {
		g := &w.slot[0]
		if g == w.best {
			g = &w.slot[1]
		}
		if w.fit(g, p[:nh], p[nh]) != nil {
			break
		}
		if lml := g.LogMarginalLikelihood(); lml > w.lml {
			w.best, w.lml = g, lml
		}
		if iter == o.Iters {
			break // the step below would only produce a never-fitted point
		}
		grad := w.gradient(g)
		// Adam ascent step.
		b1t := 1 - math.Pow(beta1, float64(iter))
		b2t := 1 - math.Pow(beta2, float64(iter))
		for i := range p {
			m[i] = beta1*m[i] + (1-beta1)*grad[i]
			v[i] = beta2*v[i] + (1-beta2)*grad[i]*grad[i]
			p[i] += learnRate * (m[i] / b1t) / (math.Sqrt(v[i]/b2t) + eps)
		}
		clamp(p)
	}
}

// gradient returns the LML gradient of g, whose Gram matrix is in w.k, into
// w.grad. The weight matrix W = ααᵀ − K⁻¹ is symmetric and never
// materialized: only the upper triangle of the inverse is computed and
// visited — off-diagonal pairs count twice — and each pair's covariance is
// read back from the Gram matrix rather than exponentiated again. On the
// diagonal that is σf², since K's diagonal carries the noise.
func (w *trainWork) gradient(g *GP) []float64 {
	n, d := w.cache.n, w.cache.d
	nh := len(g.Theta)
	grad := w.grad
	clear(grad)
	g.chol.InverseUpperInto(w.kinv, w.ginv)
	var trW float64
	off := 0
	for i := 0; i < n; i++ {
		ai := g.alpha[i]
		krow, kinvRow := w.k.Row(i), w.kinv.Row(i)
		wii := ai*ai - kinvRow[i]
		trW += wii
		g.Kern.accumGradDiff(&g.st, w.zero, g.st.sf2, 0.5*wii, grad[:nh])
		for j := i + 1; j < n; j++ {
			wij := ai*g.alpha[j] - kinvRow[j]
			g.Kern.accumGradDiff(&g.st, w.cache.sq[off:off+d], krow[j], wij, grad[:nh])
			off += d
		}
	}
	// Noise: ∂K/∂log σn = 2σn² I.
	noise2 := math.Exp(2 * g.LogNoise)
	grad[nh] = 0.5 * trW * 2 * noise2
	return grad
}
