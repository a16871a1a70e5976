package surrogate

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"easybo/internal/gp"
)

// viewBases fits both backends on one data set at the given log-noise.
func viewBases(t *testing.T, rng *rand.Rand, x [][]float64, y, lo, hi []float64, logNoise float64) map[string]Surrogate {
	t.Helper()
	fm, err := FitFeatures(x, y, lo, hi, fixtureTheta, logNoise, rng, 64)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Surrogate{
		"exact":    fitExact(t, x, y, lo, hi, gp.SEARD{}, fixtureTheta, logNoise),
		"features": fm,
	}
}

// viewRead is every bit a raw and a standardized predictor give at qs:
// batched (µ, σ), and (µ, σ, ∇µ, ∇σ) from PredictGrad.
func viewRead(m Surrogate, qs [][]float64) []float64 {
	var out []float64
	for _, p := range []Predictor{m.Predictor(), m.StandardizedPredictor()} {
		mu, sigma := make([]float64, len(qs)), make([]float64, len(qs))
		p.PredictBatch(qs, mu, sigma, nil)
		out = append(append(out, mu...), sigma...)
		for _, q := range qs {
			dmu, dsigma := make([]float64, len(q)), make([]float64, len(q))
			m, s := p.PredictGrad(q, dmu, dsigma)
			out = append(append(append(out, m, s), dmu...), dsigma...)
		}
	}
	return out
}

// TestViewContract is what a hallucinated view promises beyond its numbers,
// on both backends: a view of a view is, bit for bit, the view of the union
// of their busy points; an empty busy set returns the receiver, base or view;
// N counts the busy points; StandardizeY is the base's; and Extend answers
// ErrHallucinated.
func TestViewContract(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x, y, lo, hi := fixture(rng, 40)
	busy := [][]float64{{0.2, 0.7}, {0.9, 0.1}, {0.5, 0.5}, x[3], {0.21, 0.69}}
	qs := append([][]float64{{0.3, 0.3}, {0.88, 0.12}, x[7]}, busy...)
	for name, base := range viewBases(t, rng, x, y, lo, hi, fixtureLogNoise) {
		union, err := base.WithPseudo(busy)
		if err != nil {
			t.Fatal(err)
		}
		stacked := base
		for _, part := range [][][]float64{busy[:2], busy[2:3], busy[3:]} {
			if stacked, err = stacked.WithPseudo(part); err != nil {
				t.Fatal(err)
			}
		}
		want, got := viewRead(union, qs), viewRead(stacked, qs)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: value %d of a view of views %v, of the union view %v", name, i, got[i], want[i])
			}
		}
		if union.N() != base.N()+len(busy) || stacked.N() != union.N() {
			t.Fatalf("%s: N %d (stacked %d), want %d", name, union.N(), stacked.N(), base.N()+len(busy))
		}
		for _, empty := range [][][]float64{nil, {}} {
			if same, err := base.WithPseudo(empty); err != nil || same != base {
				t.Fatalf("%s: an empty busy set on the base returned %v, %v", name, same, err)
			}
			if same, err := union.WithPseudo(empty); err != nil || same != union {
				t.Fatalf("%s: an empty busy set on a view returned %v, %v", name, same, err)
			}
		}
		//easybolint:ok floateq the view shares the base's frame, so the bits are the same
		if union.StandardizeY(7.5) != base.StandardizeY(7.5) {
			t.Fatalf("%s: the view standardizes differently from its base", name)
		}
		if _, err := union.Extend(x[:1], y[:1]); !errors.Is(err, ErrHallucinated) {
			t.Fatalf("%s: Extend on a view: %v, want ErrHallucinated", name, err)
		}
	}
}

// TestDegenerateBusySets: duplicate busy points, a busy point on a training
// point, and the observation noise at its 1e-10 floor — alone and together,
// on both backends — hallucinate without error (the busy-set factor goes
// through the jitter ladder), keep µ and ∇µ the base's bits, and keep
// 0 ≤ σ̂ ≤ σ with a finite ∇σ̂, at the busy points and around them.
func TestDegenerateBusySets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x, y, lo, hi := fixture(rng, 30)
	b := []float64{0.4, 0.6}
	sets := map[string][][]float64{
		"duplicates":          {b, b, b},
		"on a training point": {x[5]},
		"both":                {x[5], x[5], b, b},
	}
	for _, noise := range []struct {
		name     string
		logNoise float64
	}{{"noise", fixtureLogNoise}, {"floored noise", math.Log(1e-6)}} {
		for backend, base := range viewBases(t, rng, x, y, lo, hi, noise.logNoise) {
			for setName, busy := range sets {
				name := backend + "/" + noise.name + "/" + setName
				view, err := base.WithPseudo(busy)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				qs := [][]float64{b, x[5], x[6], {0.41, 0.6}, {0.1, 0.9}}
				for _, std := range []bool{false, true} {
					vp, bp := view.Predictor(), base.Predictor()
					if std {
						vp, bp = view.StandardizedPredictor(), base.StandardizedPredictor()
					}
					for _, q := range qs {
						dmu, dsigma := make([]float64, 2), make([]float64, 2)
						bmu, bsigma := make([]float64, 2), make([]float64, 2)
						mu, sigma := vp.PredictGrad(q, dmu, dsigma)
						mu0, sigma0 := bp.PredictGrad(q, bmu, bsigma)
						if math.Float64bits(mu) != math.Float64bits(mu0) ||
							math.Float64bits(dmu[0]) != math.Float64bits(bmu[0]) ||
							math.Float64bits(dmu[1]) != math.Float64bits(bmu[1]) {
							t.Fatalf("%s std=%v at %v: µ %v ∇µ %v, base %v %v", name, std, q, mu, dmu, mu0, bmu)
						}
						if !(sigma >= 0 && sigma <= sigma0) {
							t.Fatalf("%s std=%v at %v: σ̂ %v outside [0, σ = %v]", name, std, q, sigma, sigma0)
						}
						for _, g := range dsigma {
							if math.IsNaN(g) || math.IsInf(g, 0) {
								t.Fatalf("%s std=%v at %v: ∇σ̂ %v", name, std, q, dsigma)
							}
						}
					}
				}
			}
		}
	}
}
