package gp

import (
	"math"
	"math/rand"
	"testing"

	"easybo/internal/linalg"
)

// checkPosteriorEqual asserts that two GPs over the same data agree on mean,
// deviation and LML to within tol at random query points.
func checkPosteriorEqual(t *testing.T, rng *rand.Rand, a, b *GP, d int, tol float64, label string) {
	t.Helper()
	if la, lb := a.LogMarginalLikelihood(), b.LogMarginalLikelihood(); math.Abs(la-lb) > tol*(1+math.Abs(la)) {
		t.Fatalf("%s: LML %v vs %v", label, la, lb)
	}
	for q := 0; q < 25; q++ {
		xq := make([]float64, d)
		for j := range xq {
			xq[j] = rng.Float64()
		}
		mu1, s1 := a.Predict(xq)
		mu2, s2 := b.Predict(xq)
		if math.Abs(mu1-mu2) > tol*(1+math.Abs(mu1)) {
			t.Fatalf("%s: mean %v vs %v at %v", label, mu1, mu2, xq)
		}
		if math.Abs(s1-s2) > tol*(1+s1) {
			t.Fatalf("%s: sigma %v vs %v at %v", label, s1, s2, xq)
		}
	}
}

// TestExtendMatchesBatchFit is the incremental-vs-batch equivalence
// guarantee: growing a GP one (or several) observations at a time through
// the rank-append factor update must reproduce a from-scratch Fit on the
// full data within 1e-9, across random problems and both kernels.
func TestExtendMatchesBatchFit(t *testing.T) {
	for _, kern := range []Kernel{SEARD{}, Matern52{}} {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			d := 1 + rng.Intn(6)
			n := 8 + rng.Intn(20)
			k := 1 + rng.Intn(6)
			x, y := trainData(rng, n+k, d, func(v []float64) float64 {
				return math.Sin(3*v[0]) + rng.NormFloat64()*0.05
			})
			theta := kern.DefaultTheta(d)
			for i := range theta {
				theta[i] += 0.3 * rng.NormFloat64()
			}
			logNoise := math.Log(1e-3 + rng.Float64()*1e-1)

			base, err := Fit(kern, x[:n], y[:n], theta, logNoise)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := base.Extend(x[n:], y[n:])
			if err != nil {
				t.Fatal(err)
			}
			batch, err := Fit(kern, x, y, theta, logNoise)
			if err != nil {
				t.Fatal(err)
			}
			checkPosteriorEqual(t, rng, inc, batch, d, 1e-9, kern.Name())

			// One-at-a-time extension must agree too.
			g := base
			for i := n; i < n+k; i++ {
				g, err = g.Extend(x[i:i+1], y[i:i+1])
				if err != nil {
					t.Fatal(err)
				}
			}
			checkPosteriorEqual(t, rng, g, batch, d, 1e-9, kern.Name()+"/one-at-a-time")

			// The base GP must remain untouched by the extensions.
			if base.N() != n {
				t.Fatalf("%s: Extend mutated the receiver: N=%d", kern.Name(), base.N())
			}
		}
	}
}

// TestExtendMatchesBatchFitNearSingular covers the jittered path: duplicated
// inputs with essentially-zero noise force the adaptive jitter ladder, and
// the appended factor must still match the from-scratch factorization.
func TestExtendMatchesBatchFitNearSingular(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	d := 3
	n := 10
	x, y := trainData(rng, n, d, func(v []float64) float64 { return v[0] + v[1] })
	// Duplicate several points exactly: K becomes numerically singular at
	// tiny noise, so the base factorization needs jitter.
	x[4] = append([]float64(nil), x[1]...)
	y[4] = y[1]
	x[7] = append([]float64(nil), x[2]...)
	y[7] = y[2]
	theta := SEARD{}.DefaultTheta(d)
	// A huge signal variance makes the duplicated rows cancel with rounding
	// error far above the floored noise diagonal (noiseVar clamps log(1e-9)
	// to minNoise2), so the factorization genuinely needs the jitter ladder.
	theta[d] = math.Log(1e4)
	logNoise := math.Log(1e-9)

	base, err := Fit(SEARD{}, x, y, theta, logNoise)
	if err != nil {
		t.Fatal(err)
	}
	if base.chol.Jitter <= 0 {
		t.Fatal("test setup: expected the base fit to require jitter")
	}
	// Extend with another exact duplicate plus a fresh point.
	xNew := [][]float64{append([]float64(nil), x[0]...), {0.42, 0.13, 0.77}}
	yNew := []float64{y[0], 0.55}
	inc, err := base.Extend(xNew, yNew)
	if err != nil {
		t.Fatal(err)
	}
	xa := append(append([][]float64{}, x...), xNew...)
	ya := append(append([]float64{}, y...), yNew...)
	batch, err := Fit(SEARD{}, xa, ya, theta, logNoise)
	if err != nil {
		t.Fatal(err)
	}
	checkPosteriorEqual(t, rng, inc, batch, d, 1e-9, "near-singular")
}

// TestWithPseudoMatchesBatchFit pins the hallucination path (the Suggest hot
// path) to the from-scratch behaviour it replaced.
func TestWithPseudoMatchesBatchFit(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	d := 4
	x, y := trainData(rng, 30, d, func(v []float64) float64 { return v[0]*v[1] - v[2] })
	g, err := Fit(SEARD{}, x, y, SEARD{}.DefaultTheta(d), math.Log(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	busy, _ := trainData(rng, 5, d, func(v []float64) float64 { return 0 })
	mus := make([]float64, len(busy))
	for i, b := range busy {
		mus[i], _ = g.Predict(b)
	}
	inc, err := g.WithPseudo(busy, mus)
	if err != nil {
		t.Fatal(err)
	}
	xa := append(append([][]float64{}, x...), busy...)
	ya := append(append([]float64{}, y...), mus...)
	batch, err := Fit(SEARD{}, xa, ya, SEARD{}.DefaultTheta(d), math.Log(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	checkPosteriorEqual(t, rng, inc, batch, d, 1e-9, "with-pseudo")
}

// TestWithPseudoTargetsArePredictedMeans pins what hallucination relies on:
// PredictMean (no σ, no forward solve), from which surrogate.Exact takes the
// pseudo-target at each busy point, sums k(x, Xᵢ)·αᵢ in Dot's order, so the
// target is, bit for bit, the mean Predict reports there — at five busy
// points, one of them a training point, on a fitted GP and on an already
// hallucinated one, for both kernels.
func TestWithPseudoTargetsArePredictedMeans(t *testing.T) {
	for _, kern := range []Kernel{SEARD{}, Matern52{}} {
		rng := rand.New(rand.NewSource(301))
		d, n := 6, 40
		x, y := trainData(rng, n, d, func(v []float64) float64 { return math.Sin(4*v[0]) + v[1]*v[2] - v[5] })
		g, err := FitHyper(kern, x, y, rng, &FitOptions{Iters: 15})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ { // round 1 hallucinates on a hallucinated GP
			busy, _ := trainData(rng, 5, d, func([]float64) float64 { return 0 })
			busy[4] = x[7] // a training point: a mean far from the prior's
			targets := make([]float64, len(busy))
			for i, b := range busy {
				targets[i] = g.PredictMean(b)
			}
			h, err := g.WithPseudo(busy, targets)
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range busy {
				want, _ := g.Predict(b)
				if got := h.Y[g.N()+i]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s round %d busy %d: Predict mean %x, pseudo-target %x", kern.Name(), round, i,
						math.Float64bits(want), math.Float64bits(got))
				}
			}
			g = h
		}
	}
}

// TestPredictWithMatchesPredict pins prediction on reused scratch — one
// PredictBuf through batches of every width, grown and shrunk — to a fresh
// buffer per point, and PredictMean to Predict's mean.
func TestPredictWithMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	for _, kern := range []Kernel{SEARD{}, Matern52{}} {
		d := 5
		x, y := trainData(rng, 25, d, func(v []float64) float64 { return v[0] - v[3] })
		g, err := Fit(kern, x, y, kern.DefaultTheta(d), math.Log(1e-2))
		if err != nil {
			t.Fatal(err)
		}
		var buf PredictBuf
		for q := 1; q <= 20; q++ {
			xs, _ := trainData(rng, 1+q%7, d, func([]float64) float64 { return 0 })
			mu, sigma := make([]float64, len(xs)), make([]float64, len(xs))
			g.PredictBatchWith(&buf, xs, mu, sigma, nil)
			for i, xq := range xs {
				mu1, s1 := g.Predict(xq)
				if mu1 != mu[i] || s1 != sigma[i] {
					t.Fatalf("%s: reused scratch (%v,%v), fresh (%v,%v)", kern.Name(), mu[i], sigma[i], mu1, s1)
				}
				if mu3 := g.PredictMean(xq); math.Abs(mu3-mu1) > 1e-12*(1+math.Abs(mu1)) {
					t.Fatalf("%s: PredictMean differs: %v vs %v", kern.Name(), mu3, mu1)
				}
			}
		}
	}
}

// TestPredictBatchBitIdentical pins batched prediction to the arithmetic
// Predict had before it was batched — kernel vector, mean, one forward
// substitution, variance — written out here on the plain
// single-right-hand-side solve, for every batch width 1–9 (every solve
// kernel width, full groups and every remainder), on a well-conditioned fit
// and on a near-singular one whose factor carries jitter.
func TestPredictBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	d := 3
	x, y := trainData(rng, 30, d, func(v []float64) float64 { return v[0] + v[1]*v[2] })
	plain, err := Fit(Matern52{}, x, y, Matern52{}.DefaultTheta(d), math.Log(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := trainData(rng, 10, d, func(v []float64) float64 { return v[0] + v[1] })
	xs[4], ys[4] = append([]float64(nil), xs[1]...), ys[1]
	xs[7], ys[7] = append([]float64(nil), xs[2]...), ys[2]
	theta := SEARD{}.DefaultTheta(d)
	theta[d] = math.Log(1e4)
	singular, err := Fit(SEARD{}, xs, ys, theta, math.Log(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	if singular.chol.Jitter <= 0 {
		t.Fatal("test setup: expected the near-singular fit to require jitter")
	}

	for name, g := range map[string]*GP{"plain": plain, "jittered": singular} {
		n := g.N()
		ks := make([]float64, n)
		reference := func(xq []float64) (mu, sigma float64) {
			for i := 0; i < n; i++ {
				ks[i] = g.kernEval(xq, g.X[i])
			}
			mu = linalg.Dot(ks, g.alpha)
			g.chol.SolveLowerInto(ks, ks)
			s2 := g.kernEval(xq, xq) - linalg.Dot(ks, ks)
			if s2 < 0 {
				s2 = 0
			}
			return mu, math.Sqrt(s2)
		}
		var buf PredictBuf
		for width := 1; width <= 9; width++ {
			qs := make([][]float64, width)
			for i := range qs {
				qs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			}
			qs[width/2] = g.X[1] // a training point: the variance cancels to ~0
			mu, sigma := make([]float64, width), make([]float64, width)
			g.PredictBatchWith(&buf, qs, mu, sigma, nil)
			// A keep that takes every third point: the others skip the
			// solve, and the kept ones, packed into groups of their own,
			// must still get the reference bits.
			asked := 0
			every3rd := func(float64, float64) bool { asked++; return asked%3 == 1 }
			kmu, ksigma := make([]float64, width), make([]float64, width)
			g.PredictBatchWith(&buf, qs, kmu, ksigma, every3rd)
			for i, xq := range qs {
				wantMu, wantSigma := reference(xq)
				if math.Float64bits(mu[i]) != math.Float64bits(wantMu) ||
					math.Float64bits(sigma[i]) != math.Float64bits(wantSigma) {
					t.Fatalf("%s width=%d point %d: batch (%v, %v), serial reference (%v, %v)",
						name, width, i, mu[i], sigma[i], wantMu, wantSigma)
				}
				keptSigma := wantSigma
				if i%3 != 0 {
					keptSigma = -1
				}
				if math.Float64bits(kmu[i]) != math.Float64bits(wantMu) ||
					math.Float64bits(ksigma[i]) != math.Float64bits(keptSigma) {
					t.Fatalf("%s width=%d point %d: every third kept (%v, %v), want (%v, %v)",
						name, width, i, kmu[i], ksigma[i], wantMu, keptSigma)
				}
				var one [2]float64
				g.PredictBatchWith(&buf, [][]float64{xq}, one[:1], one[1:], nil)
				if math.Float64bits(one[0]) != math.Float64bits(wantMu) || math.Float64bits(one[1]) != math.Float64bits(wantSigma) {
					t.Fatalf("%s: batch of one (%v, %v), serial reference (%v, %v)", name, one[0], one[1], wantMu, wantSigma)
				}
			}
		}
	}
}
