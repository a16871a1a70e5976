package surrogate

import (
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"testing"

	"easybo/internal/gp"
)

// The gradient bit pin. testdata/predict_grad_golden.json holds the bits of
// µ, σ, ∇µ and ∇σ that PredictGrad returned at 16 fixed points on both
// backends, raw and standardized, on the base posterior and on a view with
// four busy points (serve-model's batch). Every kernel under a gradient —
// the triangular solves, the feature projection, the busy-set correction —
// promises to keep the plain loop's bits; this holds the whole evaluation
// to them, so a reordered sum anywhere under it fails here and not only in
// the benchmark digests. The file is written once and never rewritten by a
// change that means to keep those bits.
var writePredictGradGolden = flag.Bool("write-predict-grad-golden", false,
	"rewrite testdata/predict_grad_golden.json from the current code (only for a change meant to move every gradient)")

const predictGradGolden = "testdata/predict_grad_golden.json"

// gradBits is one PredictGrad's outputs as math.Float64bits.
type gradBits struct {
	Mu     uint64   `json:"mu"`
	Sigma  uint64   `json:"sigma"`
	DMu    []uint64 `json:"dmu"`
	DSigma []uint64 `json:"dsigma"`
}

type gradCase struct {
	Name   string     `json:"name"` // backend/units/base|busy4
	Points []gradBits `json:"points"`
}

// goldenModels are the pin's posteriors: a 6-D exact SE-ARD GP at n = 43
// (43 mod 4 = 3: the solves run full four-row blocks and a tail) and the
// feature backend at serve-model's basis (m = 256), each with a view that
// carries four busy points, and the 16 query points.
func goldenModels(t *testing.T) (map[string]Surrogate, [][]float64) {
	t.Helper()
	const d = 6
	rng := rand.New(rand.NewSource(43))
	lo, hi := make([]float64, d), make([]float64, d)
	for j := range lo {
		lo[j], hi[j] = -float64(j), math.Pow(10, float64(j-2))
	}
	at := func() []float64 {
		x := make([]float64, d)
		for j := range x {
			x[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
		}
		return x
	}
	var x [][]float64
	var y []float64
	for i := 0; i < 43; i++ {
		xi := at()
		s := 0.0
		for j := range xi {
			u := (xi[j] - lo[j]) / (hi[j] - lo[j])
			s += math.Sin(3*u + float64(j))
		}
		x, y = append(x, xi), append(y, 10+s)
	}
	theta := make([]float64, d+1)
	for j := 0; j < d; j++ {
		theta[j] = math.Log(0.35 + 0.05*float64(j))
	}
	models := map[string]Surrogate{"exact": fitExact(t, x, y, lo, hi, gp.SEARD{}, theta, fixtureLogNoise)}
	fm, err := FitFeatures(x, y, lo, hi, theta, fixtureLogNoise, rng, DefaultFeatures)
	if err != nil {
		t.Fatal(err)
	}
	models["features"] = fm
	busy := [][]float64{at(), at(), at(), at()}
	for _, name := range []string{"exact", "features"} {
		view, err := models[name].WithPseudo(busy)
		if err != nil {
			t.Fatal(err)
		}
		models[name+"/busy4"] = view
	}
	var points [][]float64
	for i := 0; i < 16; i++ {
		points = append(points, at())
	}
	return models, points
}

// goldenRead evaluates every case the pin records, in its order.
func goldenRead(t *testing.T) []gradCase {
	models, points := goldenModels(t)
	var cases []gradCase
	for _, name := range []string{"exact", "exact/busy4", "features", "features/busy4"} {
		m := models[name]
		for _, units := range []struct {
			name string
			p    Predictor
		}{{"raw", m.Predictor()}, {"std", m.StandardizedPredictor()}} {
			c := gradCase{Name: name + "/" + units.name}
			for _, x := range points {
				dmu, dsigma := make([]float64, len(x)), make([]float64, len(x))
				mu, sigma := units.p.PredictGrad(x, dmu, dsigma)
				g := gradBits{Mu: math.Float64bits(mu), Sigma: math.Float64bits(sigma)}
				for j := range dmu {
					g.DMu = append(g.DMu, math.Float64bits(dmu[j]))
					g.DSigma = append(g.DSigma, math.Float64bits(dsigma[j]))
				}
				c.Points = append(c.Points, g)
			}
			cases = append(cases, c)
		}
	}
	return cases
}

// TestPredictGradGolden holds every case to the pin, bit for bit.
func TestPredictGradGolden(t *testing.T) {
	got := goldenRead(t)
	if *writePredictGradGolden {
		raw, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(predictGradGolden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(predictGradGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want []gradCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d cases in the pin, %d evaluated", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if w.Name != g.Name || len(w.Points) != len(g.Points) {
			t.Fatalf("case %d: pin has %s with %d points, evaluated %s with %d", i, w.Name, len(w.Points), g.Name, len(g.Points))
		}
		for k, wp := range w.Points {
			gv := g.Points[k]
			if wp.Mu != gv.Mu || wp.Sigma != gv.Sigma {
				t.Errorf("%s point %d: (µ, σ) = (%v, %v), pinned (%v, %v)", w.Name, k,
					math.Float64frombits(gv.Mu), math.Float64frombits(gv.Sigma),
					math.Float64frombits(wp.Mu), math.Float64frombits(wp.Sigma))
			}
			for j := range wp.DMu {
				if wp.DMu[j] != gv.DMu[j] || wp.DSigma[j] != gv.DSigma[j] {
					t.Errorf("%s point %d axis %d: (∂µ, ∂σ) = (%v, %v), pinned (%v, %v)", w.Name, k, j,
						math.Float64frombits(gv.DMu[j]), math.Float64frombits(gv.DSigma[j]),
						math.Float64frombits(wp.DMu[j]), math.Float64frombits(wp.DSigma[j]))
				}
			}
		}
	}
}
