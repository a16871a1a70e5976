package gp

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"

	"easybo/internal/linalg"
)

// The reference below is the hyperparameter optimizer as it stood before the
// training workspace: a fresh GP, Gram matrix, factor and inverse per Adam
// step, every pair's covariance exponentiated again inside the gradient. It
// is kept only to pin the workspace to it bit for bit.

// refFitHyper is the old FitHyper. sawJitter reports whether any step's
// factorization had to climb the jitter ladder.
func refFitHyper(kern Kernel, x [][]float64, y []float64, rng *rand.Rand, opts *FitOptions) (g *GP, sawJitter bool, err error) {
	var o FitOptions
	if opts != nil {
		o = *opts
	}
	o.defaults()
	d := len(x[0])
	lo, hi := kern.Bounds(d)
	type start struct {
		theta []float64
		noise float64
	}
	var starts []start
	if o.InitTheta != nil {
		starts = append(starts, start{append([]float64(nil), o.InitTheta...), o.InitNoise})
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
	var best *GP
	bestLML := math.Inf(-1)
	for _, st := range starts {
		g, lml, jit := refAdamFit(kern, x, y, st.theta, st.noise, lo, hi, o)
		sawJitter = sawJitter || jit
		if g != nil && lml > bestLML {
			best, bestLML = g, lml
		}
	}
	if best == nil {
		g, err := refFit(kern, x, y, kern.DefaultTheta(d), math.Log(0.1))
		return g, sawJitter, err
	}
	return best, sawJitter, nil
}

func refAdamFit(kern Kernel, x [][]float64, y []float64, theta0 []float64, noise0 float64,
	lo, hi []float64, o FitOptions) (best *GP, bestLML float64, sawJitter bool) {

	nh := len(theta0)
	p := make([]float64, nh+1)
	copy(p, theta0)
	p[nh] = noise0
	clamp := func(p []float64) {
		for i := 0; i < nh; i++ {
			p[i] = math.Min(math.Max(p[i], lo[i]), hi[i])
		}
		p[nh] = math.Min(math.Max(p[nh], o.NoiseLo), o.NoiseHi)
	}
	clamp(p)
	m := make([]float64, nh+1)
	v := make([]float64, nh+1)
	const beta1, beta2, eps, learnRate = 0.9, 0.999, 1e-8, 0.08
	bestLML = math.Inf(-1)
	for iter := 1; iter <= o.Iters; iter++ {
		g, err := refFit(kern, x, y, p[:nh], p[nh])
		if err != nil {
			break
		}
		sawJitter = sawJitter || g.chol.Jitter > 0
		lml := g.LogMarginalLikelihood()
		if lml > bestLML {
			best, bestLML = g, lml
		}
		if iter == o.Iters {
			break
		}
		grad := refLMLGradient(g)
		b1t := 1 - math.Pow(beta1, float64(iter))
		b2t := 1 - math.Pow(beta2, float64(iter))
		for i := range p {
			m[i] = beta1*m[i] + (1-beta1)*grad[i]
			v[i] = beta2*v[i] + (1-beta2)*grad[i]*grad[i]
			p[i] += learnRate * (m[i] / b1t) / (math.Sqrt(v[i]/b2t) + eps)
		}
		clamp(p)
	}
	return best, bestLML, sawJitter
}

// refFit is the old fitCached: a new Gram matrix through Set, a new factor.
func refFit(kern Kernel, x [][]float64, y []float64, theta []float64, logNoise float64) (*GP, error) {
	n := len(x)
	if len(y) != n {
		return nil, fmt.Errorf("gp: %d inputs but %d observations", n, len(y))
	}
	g := &GP{Kern: kern, X: x, Y: y, Theta: append([]float64(nil), theta...), LogNoise: logNoise,
		st: prepDist(theta, len(x[0]))}
	k := linalg.NewMatrix(n, n)
	diagV := g.st.sf2 + NoiseVar(logNoise)
	for i := 0; i < n; i++ {
		k.Set(i, i, diagV)
		for j := i + 1; j < n; j++ {
			v := kern.evalScaled(&g.st, g.st.scaledSqFromDiff(refDiff2(x[i], x[j])))
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	chol, err := linalg.NewCholesky(k)
	if err != nil {
		return nil, fmt.Errorf("gp: covariance factorization: %w", err)
	}
	g.chol = chol
	g.alpha = chol.Solve(y)
	return g, nil
}

func refDiff2(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		r := a[i] - b[i]
		out[i] = r * r
	}
	return out
}

// refLMLGradient is the old lmlGradient: the full mirrored inverse, and the
// old accumGradDiff, which derived k from the squared differences itself.
func refLMLGradient(g *GP) []float64 {
	n, d := g.N(), g.Dim()
	nh := g.Kern.NumHyper(d)
	grad := make([]float64, nh+1)
	kinv := g.chol.Inverse()
	var trW float64
	zero := make([]float64, d)
	for i := 0; i < n; i++ {
		ai := g.alpha[i]
		wii := ai*ai - kinv.At(i, i)
		trW += wii
		kinvRow := kinv.Row(i)
		refAccumGradDiff(g.Kern, &g.st, zero, 0.5*wii, grad[:nh])
		for j := i + 1; j < n; j++ {
			wij := ai*g.alpha[j] - kinvRow[j]
			refAccumGradDiff(g.Kern, &g.st, refDiff2(g.X[i], g.X[j]), wij, grad[:nh])
		}
	}
	noise2 := math.Exp(2 * g.LogNoise)
	grad[nh] = 0.5 * trW * 2 * noise2
	return grad
}

func refAccumGradDiff(kern Kernel, st *distState, diff2 []float64, w float64, grad []float64) {
	s := st.scaledSqFromDiff(diff2)
	switch kern.(type) {
	case SEARD:
		k := st.sf2 * math.Exp(-0.5*s)
		wk := w * k
		for i, d2 := range diff2 {
			grad[i] += wk * d2 * st.invl2[i]
		}
		grad[len(diff2)] += 2 * wk
	case Matern52:
		r := math.Sqrt(s)
		sr5 := math.Sqrt(5) * r
		e := math.Exp(-sr5)
		k := st.sf2 * (1 + sr5 + 5*s/3) * e
		dk := (5.0 / 3.0) * st.sf2 * e * (1 + sr5) / 2
		for i, d2 := range diff2 {
			grad[i] += w * 2 * dk * d2 * st.invl2[i]
		}
		grad[len(diff2)] += w * 2 * k
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameFit fails unless the two GPs are the same fit to the last bit: the
// hyperparameters, alpha, every entry of L, the jitter and the LML.
func sameFit(t *testing.T, what string, got, want *GP) {
	t.Helper()
	switch {
	case !bitsEqual(got.Theta, want.Theta):
		t.Fatalf("%s: Theta %v, reference %v", what, got.Theta, want.Theta)
	case math.Float64bits(got.LogNoise) != math.Float64bits(want.LogNoise):
		t.Fatalf("%s: LogNoise %v, reference %v", what, got.LogNoise, want.LogNoise)
	case !bitsEqual(got.alpha, want.alpha):
		t.Fatalf("%s: alpha differs from the reference", what)
	case got.chol.N != want.chol.N || math.Float64bits(got.chol.Jitter) != math.Float64bits(want.chol.Jitter):
		t.Fatalf("%s: factor N=%d jitter=%v, reference N=%d jitter=%v", what,
			got.chol.N, got.chol.Jitter, want.chol.N, want.chol.Jitter)
	case !bitsEqual(got.chol.L.Data, want.chol.L.Data):
		t.Fatalf("%s: L differs from the reference", what)
	case !bitsEqual(got.st.invl2, want.st.invl2) || math.Float64bits(got.st.sf2) != math.Float64bits(want.st.sf2):
		t.Fatalf("%s: kernel state differs from the reference", what)
	case math.Float64bits(got.LogMarginalLikelihood()) != math.Float64bits(want.LogMarginalLikelihood()):
		t.Fatalf("%s: LML %v, reference %v", what, got.LogMarginalLikelihood(), want.LogMarginalLikelihood())
	}
}

func warmOptions(kern Kernel, d, iters int) *FitOptions {
	th := kern.DefaultTheta(d)
	for i := range th {
		th[i] += 0.3 * float64(i%3-1)
	}
	return &FitOptions{Iters: iters, InitTheta: th, InitNoise: math.Log(3e-2), WarmOnly: true}
}

// TestFitHyperMatchesReference pins FitHyper on the reused workspace to the
// allocate-per-step optimizer it replaced: same rng draws, same Adam path,
// same winner, every bit of it.
func TestFitHyperMatchesReference(t *testing.T) {
	f := func(v []float64) float64 {
		s := math.Sin(5 * v[0])
		for _, vi := range v[1:] {
			s += vi * vi
		}
		return s
	}
	for _, kern := range []Kernel{SEARD{}, Matern52{}} {
		for _, d := range []int{1, 10} {
			for _, n := range []int{2, 25, 150} {
				iters := 30
				if n == 150 {
					iters = 8
				}
				x, y := trainData(rand.New(rand.NewSource(int64(100*d+n))), n, d, f)
				for _, c := range []struct {
					name string
					opts *FitOptions
				}{
					{"warm-only", warmOptions(kern, d, iters)},
					{"multi-start", &FitOptions{Iters: iters, Restarts: 2}},
				} {
					opts := c.opts
					what := fmt.Sprintf("%s d=%d n=%d %s", kern.Name(), d, n, c.name)
					want, _, err := refFitHyper(kern, x, y, rand.New(rand.NewSource(7)), opts)
					if err != nil {
						t.Fatalf("%s: reference: %v", what, err)
					}
					rng := rand.New(rand.NewSource(7))
					got, err := FitHyper(kern, x, y, rng, opts)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					sameFit(t, what, got, want)
					if !bitsEqual(got.LMLGradient(), refLMLGradient(want)) {
						t.Fatalf("%s: LMLGradient differs from the reference", what)
					}
				}
			}
		}
	}
}

// TestFitHyperMatchesReferenceOnHazards runs the same pin where the loop
// leaves its common path: Gram matrices that only factor on the jitter
// ladder, a start whose very first factorization fails while the others go
// on, and a training set on which every start fails.
func TestFitHyperMatchesReferenceOnHazards(t *testing.T) {
	for _, kern := range []Kernel{SEARD{}, Matern52{}} {
		// Exact duplicates under a signal variance far beyond the kernel's own
		// bounds (which is why this drives the Adam loop directly, with wider
		// ones): the duplicated rows cancel with rounding error above the
		// floored noise diagonal, so steps factor only on the jitter ladder.
		rng := rand.New(rand.NewSource(8))
		x, y := trainData(rng, 24, 3, func(v []float64) float64 { return v[0] - v[1] })
		for i := 0; i < len(x); i += 2 {
			x[i+1], y[i+1] = x[i], y[i]
		}
		lo, hi := kern.Bounds(3)
		hi[3] = math.Log(1e6)
		o := FitOptions{Iters: 25, NoiseLo: math.Log(1e-9), NoiseHi: math.Log(1e-6)}
		o.defaults()
		theta0 := []float64{math.Log(0.3), math.Log(0.3), math.Log(0.3), math.Log(1e4)}
		want, _, sawJitter := refAdamFit(kern, x, y, theta0, math.Log(1e-9), lo, hi, o)
		if want == nil || !sawJitter {
			t.Fatalf("%s: the duplicate-point set never needed the jitter ladder", kern.Name())
		}
		w := newTrainWork(kern, x, y)
		w.adam(theta0, math.Log(1e-9), lo, hi, o)
		if w.best == nil {
			t.Fatalf("%s: duplicates: no fit succeeded", kern.Name())
		}
		sameFit(t, kern.Name()+" duplicates", w.best, want)

		// A NaN warm start survives the clamp and poisons its Gram matrix:
		// that start breaks at its first step, the default and random ones run.
		x, y = trainData(rng, 20, 3, func(v []float64) float64 { return v[0] * v[2] })
		bad := &FitOptions{Iters: 12, InitTheta: []float64{0, math.NaN(), 0, 0}, InitNoise: -3}
		want, _, err := refFitHyper(kern, x, y, rand.New(rand.NewSource(10)), bad)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FitHyper(kern, x, y, rand.New(rand.NewSource(10)), bad)
		if err != nil {
			t.Fatal(err)
		}
		sameFit(t, kern.Name()+" failed first start", got, want)

		// A NaN coordinate fails every start and the last-resort fit alike.
		x[3][1] = math.NaN()
		_, _, wantErr := refFitHyper(kern, x, y, rand.New(rand.NewSource(11)), nil)
		_, gotErr := FitHyper(kern, x, y, rand.New(rand.NewSource(11)), nil)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: NaN input: error %v, reference %v", kern.Name(), gotErr, wantErr)
		}
	}
}

// TestFitResultOwnsItsFactor guards the workspace's one aliasing rule from
// the outside: what FitHyper returns is written by nothing after it returns
// and was written by nothing after the step that produced it — not by later
// steps, not by later starts, and not by a whole second FitHyper on other
// data (which is what pooling the workspace would break).
func TestFitResultOwnsItsFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := 3
	x, y := trainData(rng, 30, d, func(v []float64) float64 { return math.Cos(4*v[0]) + v[1] - v[2] })
	opts := &FitOptions{Iters: 20, Restarts: 2}
	first, err := FitHyper(SEARD{}, x, y, rng, opts)
	if err != nil {
		t.Fatal(err)
	}
	queries, _ := trainData(rng, 16, d, func([]float64) float64 { return 0 })
	predict := func() (out []float64) {
		for _, q := range queries {
			mu, sigma := first.Predict(q)
			out = append(out, mu, sigma, first.PredictMean(q))
		}
		return append(out, first.LogMarginalLikelihood())
	}
	before := predict()
	theta := append([]float64(nil), first.Theta...)

	x2, y2 := trainData(rng, 30, d, func(v []float64) float64 { return 50 * v[0] * v[1] })
	second, err := FitHyper(SEARD{}, x2, y2, rng, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(predict(), before) || !bitsEqual(first.Theta, theta) {
		t.Fatal("a second FitHyper changed the first result")
	}
	// And nothing of the first leaks into the second.
	if &first.chol.L.Data[0] == &second.chol.L.Data[0] || &first.alpha[0] == &second.alpha[0] ||
		&first.Theta[0] == &second.Theta[0] || &first.st.invl2[0] == &second.st.invl2[0] {
		t.Fatal("two FitHyper results share storage")
	}
	// The winner of a multi-start fit was found mid-run (the last start's last
	// step is rarely the best); it must still be a consistent fit of its own
	// hyperparameters, not a slot some later step wrote into.
	refit, err := Fit(SEARD{}, x, y, first.Theta, first.LogNoise)
	if err != nil {
		t.Fatal(err)
	}
	sameFit(t, "winner vs Fit at its hyperparameters", first, refit)
}

// TestRefitAllocationIndependentOfIters pins what the training workspace is
// for: a warm refit at n = 150 allocates its buffers once, so forty Adam
// steps cost (nearly) the heap bytes of ten. Counted in bytes, not read off a
// clock, so the verdict does not depend on the box. With a Gram matrix
// allocated per step the ratio is about 3.
func TestRefitAllocationIndependentOfIters(t *testing.T) {
	const n, d = 150, 10
	x, y := trainData(rand.New(rand.NewSource(13)), n, d, func(v []float64) float64 { return v[0] + math.Sin(6*v[3]) })
	measure := func(iters int) float64 {
		opts := warmOptions(SEARD{}, d, iters)
		var b [5]float64
		var before, after runtime.MemStats
		for i := range b {
			runtime.ReadMemStats(&before)
			if _, err := FitHyper(SEARD{}, x, y, rand.New(rand.NewSource(1)), opts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			b[i] = float64(after.TotalAlloc - before.TotalAlloc)
		}
		sort.Float64s(b[:])
		return b[len(b)/2]
	}
	short, long := measure(10), measure(40)
	t.Logf("bytes per warm refit at n=%d: %.0f at 10 iterations, %.0f at 40", n, short, long)
	if short <= 0 || long > 1.10*short {
		t.Errorf("ratio %.2f, want <= 1.10", long/short)
	}
}

var sinkGP *GP

// Two refits the bo-opamp benchmark workload ran at seed 2, at n = 60, taken
// as FitHyper received them (unit-cube inputs, standardized targets, the
// previous refit's hyperparameters as the warm start): one from a
// generation-1 history, one from a generation-2 history. The second lands
// where the factor, its inverse and K⁻¹ hold subnormal entries — its warm
// start has a length-scale on its lower bound — and the first does not.
const (
	refitNormal    = "testdata/refit_opamp_normal_n60.json"
	refitSubnormal = "testdata/refit_opamp_subnormal_n60.json"
)

// loadRefit reads one of those refits: the training set and the warm-only
// options the serving loop fitted it with.
func loadRefit(tb testing.TB, path string) ([][]float64, []float64, *FitOptions) {
	tb.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var r struct {
		InitTheta []float64   `json:"init_theta"`
		InitNoise float64     `json:"init_noise"`
		X         [][]float64 `json:"x"`
		Y         []float64   `json:"y"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	return r.X, r.Y, &FitOptions{Iters: 20, InitTheta: r.InitTheta, InitNoise: r.InitNoise, WarmOnly: true}
}

// subnormalOperands counts the nonzero entries below 2⁻¹⁰²² in the fitted
// factor L, in G = L⁻¹ and in the upper triangle of K⁻¹: the operands of the
// n³ loops of an Adam step, at the hyperparameters the fit ended on.
func subnormalOperands(g *GP) int {
	n := g.chol.N
	kinv, ginv := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	g.chol.InverseUpperInto(kinv, ginv)
	count := 0
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			for _, v := range [...]float64{g.chol.L.At(i, j), ginv.At(i, j), kinv.At(j, i)} {
				if v != 0 && math.Abs(v) < 0x1p-1022 {
					count++
				}
			}
		}
	}
	return count
}

// TestRefitSubnormalRegime logs the subnormal operands of each recorded
// refit and holds the two fixtures to the regimes they stand for, so that
// BenchmarkFitHyper's pair of them compares a refit in that regime with one
// outside it at equal n (DESIGN.md §17.4).
func TestRefitSubnormalRegime(t *testing.T) {
	for _, c := range []struct {
		path      string
		subnormal bool
	}{{refitNormal, false}, {refitSubnormal, true}} {
		x, y, opts := loadRefit(t, c.path)
		g, err := FitHyper(SEARD{}, x, y, rand.New(rand.NewSource(1)), opts)
		if err != nil {
			t.Fatal(err)
		}
		count := subnormalOperands(g)
		t.Logf("%s: n=%d, %d subnormal operands in L, L⁻¹ and K⁻¹", c.path, len(x), count)
		if (count > 0) != c.subnormal {
			t.Errorf("%s: %d subnormal operands; the fixture stands for a refit in the subnormal regime: %v", c.path, count, c.subnormal)
		}
	}
}

// BenchmarkFitHyper is one hyperparameter refit as the serving loop pays for
// it: the cadenced warm-only refit (20 iterations from the previous optimum)
// at two training-set sizes, and the cold fit a recovery or a first model
// runs (40 iterations from the default start and one random restart); then
// the two recorded op-amp refits at n = 60, outside and inside the
// subnormal regime, each reporting its count of subnormal operands.
func BenchmarkFitHyper(b *testing.B) {
	const d = 10
	type fitCase struct {
		name string
		x    [][]float64
		y    []float64
		opts *FitOptions
	}
	var cases []fitCase
	for _, c := range []struct {
		name string
		n    int
		opts *FitOptions
	}{
		{"warm/n=60", 60, warmOptions(SEARD{}, d, 20)},
		{"warm/n=150", 150, warmOptions(SEARD{}, d, 20)},
		{"cold/n=150", 150, &FitOptions{Iters: 40, Restarts: 1}},
	} {
		x, y := trainData(rand.New(rand.NewSource(14)), c.n, d, func(v []float64) float64 { return v[0] + math.Sin(6*v[3]) })
		cases = append(cases, fitCase{c.name, x, y, c.opts})
	}
	for _, c := range []struct{ name, path string }{
		{"warm/opamp-normal/n=60", refitNormal},
		{"warm/opamp-subnormal/n=60", refitSubnormal},
	} {
		x, y, opts := loadRefit(b, c.path)
		cases = append(cases, fitCase{c.name, x, y, opts})
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := FitHyper(SEARD{}, c.x, c.y, rand.New(rand.NewSource(15)), c.opts)
				if err != nil {
					b.Fatal(err)
				}
				sinkGP = g
			}
			b.ReportMetric(float64(subnormalOperands(sinkGP)), "subnormals")
		})
	}
}
