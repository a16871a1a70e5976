package gp

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

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
// It returns the best fitted GP found: the first start, in start order,
// whose best LML is the largest. rng drives the random restarts, all drawn
// before any start runs, and must not be nil.
//
// With more than one start and GOMAXPROCS above 1, the starts run side by
// side on up to GOMAXPROCS goroutines, each in a training workspace of its
// own over one shared distance cache; the result is the serial loop's, bit
// for bit, on any schedule. A single start (the warm-only refit) or
// GOMAXPROCS 1 runs in one workspace on the calling goroutine. The distance
// cache's storage comes from a pool shared by every FitHyper in the process
// and goes back to it once the last start has finished.
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

	var starts []hyperStart
	if o.InitTheta != nil {
		validateTheta(kern, o.InitTheta, d)
		starts = append(starts, hyperStart{o.InitTheta, o.InitNoise})
	}
	if o.InitTheta == nil || !o.WarmOnly {
		starts = append(starts, hyperStart{kern.DefaultTheta(d), math.Log(1e-2)})
		for r := 0; r < o.Restarts; r++ {
			th := make([]float64, kern.NumHyper(d))
			for i := range th {
				th[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
			}
			starts = append(starts, hyperStart{th, o.NoiseLo + rng.Float64()*(o.NoiseHi-o.NoiseLo)})
		}
	}

	cache := newGramCache(x)
	var w *trainWork
	if workers := min(runtime.GOMAXPROCS(0), len(starts)); workers <= 1 {
		w = newTrainWork(kern, cache, x, y)
		for _, st := range starts {
			w.adam(st.theta, st.noise, lo, hi, o)
		}
	} else {
		ws := make([]*trainWork, workers)
		for i := range ws {
			ws[i] = newTrainWork(kern, cache, x, y)
		}
		w = adamStarts(ws, starts, lo, hi, o)
	}
	gramPool.Put(cache) // every start has finished; the winner's slot holds nothing of it
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

// hyperStart is where one start of the optimizer begins: the kernel
// hyperparameters and log σn.
type hyperStart struct {
	theta []float64
	noise float64
}

// adamStarts runs the starts on one goroutine per workspace, all reading
// one distance cache, and returns the workspace holding the fit the serial
// loop would have kept. A goroutine claims the lowest start nobody has
// claimed, so the starts one workspace runs are in increasing order and,
// within it, strict > keeps the earliest of equals as the serial loop does;
// across workspaces, winner keeps the larger LML and, of equals, the earlier
// start. No start reads anything another writes, so each start's values are
// those of the serial loop on any schedule.
func adamStarts(ws []*trainWork, starts []hyperStart, lo, hi []float64, o FitOptions) *trainWork {
	from := make([]int, len(ws)) // the start each workspace's best came from
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := ws[i]
			for s := int(next.Add(1) - 1); s < len(starts); s = int(next.Add(1) - 1) {
				lml := w.lml
				w.adam(starts[s].theta, starts[s].noise, lo, hi, o)
				if w.lml > lml {
					from[i] = s
				}
			}
		}(i)
	}
	wg.Wait()
	return winner(ws, from)
}

// winner returns the workspace whose best fit has the largest LML and, of
// equal ones, came from the earliest start. A workspace's lml is −Inf until
// some step's LML beats it and never NaN, so one without a fit wins only
// when none has one.
func winner(ws []*trainWork, from []int) *trainWork {
	win := 0
	for i, w := range ws {
		//easybolint:ok floateq a tie is exact equality, broken by start order as the serial loop's strict > breaks it; lml is never NaN
		if w.lml > ws[win].lml || w.lml == ws[win].lml && from[i] < from[win] {
			win = i
		}
	}
	return ws[win]
}

// trainWork is the storage one goroutine of a FitHyper call works in. The
// training inputs never change during a hyperparameter fit, so everything an
// Adam step touches is sized once: the pairwise coordinate differences
// (computed exactly once for every start and step, and only read, so every
// workspace of the call shares them), the Gram matrix, two factor slots,
// and the packed K⁻¹ the gradient consumes. A step allocates nothing.
//
// K's lower triangle is spent once factored: the factorization is the last
// reader of it and of the diagonal, the gradient reads only the strict upper
// triangle (σf² stands in for the diagonal), and the next step's
// buildCovInto writes both triangles again. So the inverse builds L⁻¹ in
// K's lower triangle instead of in a scratch matrix of its own.
//
// Ownership: slot[0] and slot[1] are GPs whose Theta, distState, factor and
// alpha live here and are overwritten in place. best points at the slot
// holding the best fit visited so far (over all the starts this workspace
// ran); each step fits into the other one, and takes over best — handing
// its predecessor's slot back for reuse — only by beating it. The workspace
// lives for one FitHyper call and is never pooled, so the winner can leave
// with its slot's buffers. Only the distance cache outlives it, in gramPool:
// no slot references it.
type trainWork struct {
	cache *gramCache
	k     *linalg.Matrix // K + σn²I of the step being taken; upper triangle read un-jittered after factoring
	slot  [2]GP
	best  *GP // nil until some step's LML beats −Inf
	lml   float64

	kinv    []float64 // K⁻¹'s upper triangle, packed by rows
	zero    []float64 // a point's coordinate differences with itself
	grad    []float64
	p, m, v []float64 // Adam parameters and moments
}

func newTrainWork(kern Kernel, cache *gramCache, x [][]float64, y []float64) *trainWork {
	n, d := len(x), len(x[0])
	nh := kern.NumHyper(d)
	w := &trainWork{
		cache: cache,
		k:     linalg.NewMatrix(n, n),
		lml:   math.Inf(-1),
		kinv:  make([]float64, n*(n+1)/2),
		zero:  make([]float64, d),
		grad:  make([]float64, nh+1),
		p:     make([]float64, nh+1),
		m:     make([]float64, nh+1),
		v:     make([]float64, nh+1),
	}
	for i := range w.slot {
		w.slot[i] = GP{Kern: kern, X: x[:n:n], Y: y[:n:n],
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
// read back from the Gram matrix's upper triangle rather than exponentiated
// again. On the diagonal that is σf², since K's diagonal carries the noise
// and, once the inverse is taken, L⁻¹.
func (w *trainWork) gradient(g *GP) []float64 {
	n, d := w.cache.n, w.cache.d
	nh := len(g.Theta)
	grad := w.grad
	clear(grad)
	g.chol.InverseUpperInto(w.kinv, w.k)
	var trW float64
	off := 0
	kinvRow := w.kinv
	for i := 0; i < n; i++ {
		ai := g.alpha[i]
		krow := w.k.Row(i)
		wii := ai*ai - kinvRow[0]
		trW += wii
		g.Kern.accumGradDiff(&g.st, w.zero, g.st.sf2, 0.5*wii, grad[:nh])
		for j := i + 1; j < n; j++ {
			wij := ai*g.alpha[j] - kinvRow[j-i]
			g.Kern.accumGradDiff(&g.st, w.cache.sq[off:off+d], krow[j], wij, grad[:nh])
			off += d
		}
		kinvRow = kinvRow[n-i:]
	}
	// Noise: ∂K/∂log σn = 2σn² I.
	noise2 := math.Exp(2 * g.LogNoise)
	grad[nh] = 0.5 * trW * 2 * noise2
	return grad
}
