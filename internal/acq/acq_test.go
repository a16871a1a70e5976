package acq

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// stubSurrogate returns fixed mean/deviation fields for testing.
type stubSurrogate struct{ mu, sigma float64 }

func (s stubSurrogate) Predict([]float64) (float64, float64) { return s.mu, s.sigma }

// fieldSurrogate computes µ and σ from simple position-dependent formulas.
type fieldSurrogate struct {
	mu    func(x []float64) float64
	sigma func(x []float64) float64
}

func (s fieldSurrogate) Predict(x []float64) (float64, float64) { return s.mu(x), s.sigma(x) }

func TestLCBMonotoneInKappa(t *testing.T) {
	s := stubSurrogate{mu: 1, sigma: 0.5}
	prev := math.Inf(-1)
	for _, k := range []float64{0, 0.5, 1, 2, 4} {
		v := LCB{Kappa: k}.Value(s, nil)
		if v <= prev {
			t.Fatalf("LCB not increasing in kappa at %v", k)
		}
		prev = v
	}
	if got := (LCB{Kappa: 2}).Value(s, nil); got != 2 {
		t.Fatalf("LCB = %v, want 2", got)
	}
}

func TestEIProperties(t *testing.T) {
	// EI >= 0 always; 0 when sigma = 0 and mu <= best; positive when mu > best.
	f := func(mu, sigma, best float64) bool {
		sigma = math.Abs(sigma)
		v := EI{Best: best}.Value(stubSurrogate{mu, sigma}, nil)
		return v >= 0 && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if v := (EI{Best: 2}).Value(stubSurrogate{1, 0}, nil); v != 0 {
		t.Fatalf("EI = %v, want 0", v)
	}
	if v := (EI{Best: 1}).Value(stubSurrogate{3, 0}, nil); math.Abs(v-2) > 1e-12 {
		t.Fatalf("EI = %v, want 2", v)
	}
	// More uncertainty at equal mean => more EI.
	lowS := EI{Best: 0}.Value(stubSurrogate{0, 0.1}, nil)
	highS := EI{Best: 0}.Value(stubSurrogate{0, 1.0}, nil)
	if highS <= lowS {
		t.Fatal("EI must grow with sigma at the incumbent mean")
	}
}

func TestWeightedTradeoff(t *testing.T) {
	s := stubSurrogate{mu: 2, sigma: 1}
	if v := (Weighted{W: 0}).Value(s, nil); v != 2 {
		t.Fatalf("w=0 must be pure exploitation, got %v", v)
	}
	if v := (Weighted{W: 1}).Value(s, nil); v != 1 {
		t.Fatalf("w=1 must be pure exploration, got %v", v)
	}
	if v := (Weighted{W: 0.25}).Value(s, nil); math.Abs(v-1.75) > 1e-12 {
		t.Fatalf("w=0.25 = %v", v)
	}
}

func TestPBOWeights(t *testing.T) {
	w := PBOWeights(5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range w {
		if math.Abs(w[i]-want[i]) > 1e-15 {
			t.Fatalf("PBOWeights(5) = %v", w)
		}
	}
	if got := PBOWeights(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("PBOWeights(1) = %v", got)
	}
}

func TestSampleWeightDistribution(t *testing.T) {
	// Paper §III-B / Fig. 2: w concentrates near 1, support [0, λ/(λ+1)].
	rng := rand.New(rand.NewSource(1))
	n := 100000
	wMax := DefaultLambda / (DefaultLambda + 1)
	var nearMax, nearZero int
	for i := 0; i < n; i++ {
		w := SampleWeight(rng, 0) // 0 => default λ
		if w < 0 || w > wMax+1e-12 {
			t.Fatalf("w out of support: %v", w)
		}
		if w > wMax-0.05 {
			nearMax++
		}
		if w < 0.05 {
			nearZero++
		}
	}
	// Density near the top of the support is (λ+1)²/λ ≈ 8.2× the density
	// near zero (1/λ); with equal window widths, counts must reflect that.
	if nearMax < 4*nearZero {
		t.Fatalf("w not concentrated near 1: top=%d bottom=%d", nearMax, nearZero)
	}
}

func TestWeightDensityIntegratesToOne(t *testing.T) {
	// ∫ density dw over the support must be 1.
	n := 100000
	wMax := DefaultLambda / (DefaultLambda + 1)
	h := wMax / float64(n)
	var sum float64
	for i := 0; i < n; i++ {
		w := (float64(i) + 0.5) * h
		sum += WeightDensity(w, DefaultLambda) * h
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("density integrates to %v", sum)
	}
	if WeightDensity(-0.1, 6) != 0 || WeightDensity(0.99, 6) != 0 {
		t.Fatal("density must vanish outside the support")
	}
	// Monotone increasing on the support.
	if WeightDensity(0.1, 6) >= WeightDensity(0.8, 6) {
		t.Fatal("density must increase toward w=1")
	}
}

func TestHCPenaltyShape(t *testing.T) {
	recent := [][]float64{{0.5, 0.5}}
	p := HCPenalty{NHC: 100, D: 0.1, Recent: recent}
	// Far away: penalty ≈ NHC (constant shift).
	far := p.Value([]float64{0.0, 0.0})
	if math.Abs(far-100) > 1 {
		t.Fatalf("far penalty = %v, want ≈100", far)
	}
	// Inside the veto radius: explodes.
	near := p.Value([]float64{0.5, 0.52})
	if near < 1e6 {
		t.Fatalf("near penalty = %v, want huge", near)
	}
	// At an exact previous query: infinite.
	if !math.IsInf(p.Value([]float64{0.5, 0.5}), 1) {
		t.Fatal("exact repeat must be vetoed infinitely")
	}
	// Empty history: no penalty.
	if (HCPenalty{}).Value([]float64{0.1}) != 0 {
		t.Fatal("empty history must not penalize")
	}
	// Only the 5 most recent queries count (no overflow with many points).
	many := make([][]float64, 50)
	for i := range many {
		many[i] = []float64{float64(i), float64(i)}
	}
	v := HCPenalty{NHC: 100, D: 0.1, Recent: many}.Value([]float64{100, 100})
	if math.IsInf(v, 1) || math.IsNaN(v) {
		t.Fatalf("penalty with long history = %v", v)
	}
}

func TestAcquisitionsOnFieldSurrogate(t *testing.T) {
	// A surrogate whose σ has a bump at x=0.3 and µ a bump at x=0.7: pure
	// exploration (w=1) must prefer 0.3, pure exploitation (w=0) 0.7.
	s := fieldSurrogate{
		mu:    func(x []float64) float64 { return math.Exp(-50 * (x[0] - 0.7) * (x[0] - 0.7)) },
		sigma: func(x []float64) float64 { return math.Exp(-50 * (x[0] - 0.3) * (x[0] - 0.3)) },
	}
	argmax := func(f Func) float64 {
		bestX, bestV := 0.0, math.Inf(-1)
		for i := 0; i <= 1000; i++ {
			x := []float64{float64(i) / 1000}
			if v := f.Value(s, x); v > bestV {
				bestV, bestX = v, x[0]
			}
		}
		return bestX
	}
	if x := argmax(Weighted{W: 0}); math.Abs(x-0.7) > 0.01 {
		t.Fatalf("exploitation argmax = %v", x)
	}
	if x := argmax(Weighted{W: 1}); math.Abs(x-0.3) > 0.01 {
		t.Fatalf("exploration argmax = %v", x)
	}
	if n := (EI{}).Name() + (Weighted{}).Name() + (LCB{}).Name(); n == "" {
		t.Fatal("names must be non-empty")
	}
}

// TestPartialsMatchDifferences checks ∂α/∂µ and ∂α/∂σ of every acquisition
// against central differences of Value over a grid of posteriors, and pins
// the certain posterior (σ ≤ 1e-12), where EI is the hinge max(µ−Best−Xi, 0):
// its partials there are the hinge's, finite and free of 0/0.
func TestPartialsMatchDifferences(t *testing.T) {
	funcs := []Func{
		Weighted{W: 0.7}, Weighted{W: 0}, LCB{Kappa: 1.5}, EI{Best: 0.3, Xi: 0.01},
	}
	const h = 1e-6
	for _, a := range funcs {
		for _, mu := range []float64{-2, -0.4, 0.29, 0.31, 0.9, 3} {
			for _, sigma := range []float64{1e-3, 0.05, 0.4, 1, 2.5} {
				dMu, dSigma := a.Partials(mu, sigma)
				v := func(m, s float64) float64 { return a.Value(stubSurrogate{m, s}, nil) }
				wantMu := (v(mu+h, sigma) - v(mu-h, sigma)) / (2 * h)
				wantSigma := (v(mu, sigma+h*sigma) - v(mu, sigma-h*sigma)) / (2 * h * sigma)
				if math.Abs(dMu-wantMu) > 1e-6*(1+math.Abs(wantMu)) || math.Abs(dSigma-wantSigma) > 1e-6*(1+math.Abs(wantSigma)) {
					t.Errorf("%s at µ=%v σ=%v: partials (%g, %g), differences (%g, %g)", a.Name(), mu, sigma, dMu, dSigma, wantMu, wantSigma)
				}
			}
		}
	}
	for _, sigma := range []float64{0, 1e-13, 1e-12} {
		for _, c := range []struct {
			a           Func
			mu          float64
			dMu, dSigma float64
		}{
			{EI{Best: 0.3, Xi: 0.01}, 0.5, 1, 0},
			{EI{Best: 0.3, Xi: 0.01}, 0.2, 0, 0},
		} {
			if dMu, dSigma := c.a.Partials(c.mu, sigma); dMu != c.dMu || dSigma != c.dSigma {
				t.Errorf("%s at µ=%v σ=%v: partials (%v, %v), want (%v, %v)", c.a.Name(), c.mu, sigma, dMu, dSigma, c.dMu, c.dSigma)
			}
		}
	}
	// Where Value clamps a cancelled EI to zero, so does the gradient.
	far := EI{Best: 1e6, Xi: 0}
	if v := far.Value(stubSurrogate{0, 1}, nil); v != 0 {
		t.Fatalf("EI 10⁶ deviations under the incumbent = %v", v)
	}
	if dMu, dSigma := far.Partials(0, 1); dMu != 0 || dSigma != 0 || math.IsNaN(dMu) {
		t.Fatalf("its partials (%v, %v), want zeros", dMu, dSigma)
	}
}

// TestHCPenaltyGradMatchesDifferences checks the closed-form ∇α_HC against
// central differences at points inside, at the edge of and beyond the veto
// radius, that ValueGrad's value is Value's bits, and the two degenerate
// cases: a clamped term contributes no gradient, a point on a recent query
// is vetoed with a zero gradient.
func TestHCPenaltyGradMatchesDifferences(t *testing.T) {
	h := HCPenalty{Recent: [][]float64{{0.5, 0.5, 0.2}, {0.1, 0.9, 0.4}, {0.52, 0.48, 0.25}}}
	grad := make([]float64, 3)
	xp := make([]float64, 3)
	for _, x := range [][]float64{{0.58, 0.5, 0.2}, {0.45, 0.6, 0.3}, {0.9, 0.1, 0.8}, {0.16, 0.85, 0.44}} {
		v := h.ValueGrad(x, grad)
		if math.Float64bits(v) != math.Float64bits(h.Value(x)) {
			t.Fatalf("at %v: ValueGrad %v, Value %v", x, v, h.Value(x))
		}
		for j := range x {
			const e = 1e-7
			copy(xp, x)
			xp[j] = x[j] + e
			vp := h.Value(xp)
			xp[j] = x[j] - e
			vm := h.Value(xp)
			want := (vp - vm) / (2 * e)
			if math.Abs(grad[j]-want) > 1e-5*(math.Abs(want)+v) {
				t.Errorf("at %v axis %d: gradient %g, differences %g", x, j, grad[j], want)
			}
		}
	}
	// Within ~0.053 of a query (d/dx)^10 passes 600 and is held there.
	one := HCPenalty{Recent: h.Recent[1:2]}
	if v := one.ValueGrad([]float64{0.1, 0.9, 0.43}, grad); math.IsInf(v, 0) || grad[0] != 0 || grad[1] != 0 || grad[2] != 0 {
		t.Fatalf("clamped term: value %v, gradient %v", v, grad)
	}
	if v := h.ValueGrad([]float64{0.1, 0.9, 0.4}, grad); !math.IsInf(v, 1) || grad[0] != 0 || grad[1] != 0 || grad[2] != 0 {
		t.Fatalf("on a recent query: value %v, gradient %v", v, grad)
	}
}
