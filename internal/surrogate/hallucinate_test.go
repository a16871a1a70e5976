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

// The generation-2 hallucination pin. Up to generation 2 a hallucinated view
// was a second model: the busy points absorbed into the factor as
// pseudo-observations at their predicted means. testdata/gen2_hallucination.json
// holds what those views predicted — σ and ∇σ at fixed queries, raw and
// standardized — recorded by the last commit that built them, on the
// op-amp refits of internal/gp/testdata (σn² = 1e-8; the second in the
// subnormal regime), a 6-D exact GP and a 6-D feature model, with busy sets
// of 1, 4 and 15 points and a query 1e-2 (unit-cube) from each busy point.
// It is the numerical pin of the Schur-complement view that replaced them:
// the same function in real arithmetic.
var writeGen2Hallucination = flag.Bool("write-gen2-hallucination", false,
	"rewrite testdata/gen2_hallucination.json from the current code (meaningful only at a generation-2 commit)")

const gen2HallucinationPin = "testdata/gen2_hallucination.json"

// pinValues are one predictor's σ and ∇σ at every query of a case.
type pinValues struct {
	Sigma  []float64   `json:"sigma"`
	DSigma [][]float64 `json:"dsigma"`
}

type pinCase struct {
	Model string      `json:"model"`
	Busy  [][]float64 `json:"busy"`
	Query [][]float64 `json:"query"`
	Raw   pinValues   `json:"raw"`
	Std   pinValues   `json:"std"`
}

type pinHyper struct {
	Theta    []float64 `json:"theta"`
	LogNoise float64   `json:"log_noise"`
}

type pinFile struct {
	// Hyper are the op-amp fits' hyperparameters, from the warm refit the
	// serving loop ran on them; the pin's models are gp.Fit at these.
	Hyper map[string]pinHyper `json:"hyper"`
	Cases []pinCase           `json:"cases"`
}

// opampRefit reads one of gp's recorded op-amp refits: unit-cube inputs,
// standardized targets and the refit's warm start.
func opampRefit(t testing.TB, name string) (x [][]float64, y []float64, fo *gp.FitOptions) {
	t.Helper()
	raw, err := os.ReadFile("../gp/testdata/refit_opamp_" + name + "_n60.json")
	if err != nil {
		t.Fatal(err)
	}
	var r struct {
		InitTheta []float64   `json:"init_theta"`
		InitNoise float64     `json:"init_noise"`
		X         [][]float64 `json:"x"`
		Y         []float64   `json:"y"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	return r.X, r.Y, &gp.FitOptions{Iters: 20, InitTheta: r.InitTheta, InitNoise: r.InitNoise, WarmOnly: true}
}

// pinModels builds the pin's base models; hyper supplies the op-amp fits'
// hyperparameters, and is filled in by a warm refit where it has none.
func pinModels(t testing.TB, hyper map[string]pinHyper) map[string]Surrogate {
	t.Helper()
	models := map[string]Surrogate{}
	for _, name := range []string{"normal", "subnormal"} {
		x, y, fo := opampRefit(t, name)
		lo, hi := make([]float64, len(x[0])), make([]float64, len(x[0]))
		for j := range hi {
			hi[j] = 1
		}
		key := "exact/opamp-" + name
		if _, ok := hyper[key]; !ok {
			g, err := gp.FitHyper(gp.SEARD{}, x, y, rand.New(rand.NewSource(1)), fo)
			if err != nil {
				t.Fatal(err)
			}
			hyper[key] = pinHyper{Theta: g.Theta, LogNoise: g.LogNoise}
		}
		models[key] = fitExact(t, x, y, lo, hi, gp.SEARD{}, hyper[key].Theta, hyper[key].LogNoise)
	}
	x, y, lo, hi := pinData6(rand.New(rand.NewSource(31)), 80)
	theta := []float64{math.Log(0.4), math.Log(0.5), math.Log(0.3), math.Log(0.6), math.Log(0.45), math.Log(0.35), 0}
	models["exact/6d"] = fitExact(t, x, y, lo, hi, gp.SEARD{}, theta, math.Log(1e-3))
	fm, err := FitFeatures(x, y, lo, hi, theta, math.Log(1e-3), rand.New(rand.NewSource(32)), DefaultFeatures)
	if err != nil {
		t.Fatal(err)
	}
	models["features/6d"] = fm
	return models
}

// pinData6 is a smooth 6-D surface over a box with unequal spans.
func pinData6(rng *rand.Rand, n int) (x [][]float64, y []float64, lo, hi []float64) {
	lo = []float64{-1, 0, 10, 1e-3, -5, 0}
	hi = []float64{1, 2, 50, 4e-3, 5, 1}
	for i := 0; i < n; i++ {
		xi, u := make([]float64, 6), make([]float64, 6)
		for j := range xi {
			u[j] = rng.Float64()
			xi[j] = lo[j] + u[j]*(hi[j]-lo[j])
		}
		x = append(x, xi)
		y = append(y, 3+math.Sin(3*u[0])*math.Cos(2*u[1])+u[2]*u[3]-0.5*u[4]*u[4]+0.2*u[5])
	}
	return x, y, lo, hi
}

// pinQueries draws the busy set of a case and its queries: eight points in
// the box, then one 1e-2 (unit-cube) from each busy point.
func pinQueries(rng *rand.Rand, lo, hi []float64, b int) (busy, query [][]float64) {
	d := len(lo)
	at := func(u []float64) []float64 {
		x := make([]float64, d)
		for j := range x {
			x[j] = lo[j] + u[j]*(hi[j]-lo[j])
		}
		return x
	}
	units := make([][]float64, b)
	for i := range units {
		units[i] = make([]float64, d)
		for j := range units[i] {
			units[i][j] = rng.Float64()
		}
		busy = append(busy, at(units[i]))
	}
	for i := 0; i < 8; i++ {
		u := make([]float64, d)
		for j := range u {
			u[j] = rng.Float64()
		}
		query = append(query, at(u))
	}
	for _, ub := range units {
		dir, norm := make([]float64, d), 0.0
		for j := range dir {
			dir[j] = rng.NormFloat64()
			norm += dir[j] * dir[j]
		}
		u := make([]float64, d)
		for j := range u {
			step := 1e-2 * dir[j] / math.Sqrt(norm)
			if u[j] = ub[j] + step; u[j] < 0 || u[j] > 1 {
				u[j] = ub[j] - step
			}
		}
		query = append(query, at(u))
	}
	return busy, query
}

// pinRead is σ and ∇σ through p at every query.
func pinRead(p Predictor, query [][]float64) pinValues {
	var v pinValues
	for _, q := range query {
		dmu, dsigma := make([]float64, len(q)), make([]float64, len(q))
		_, s := p.PredictGrad(q, dmu, dsigma)
		v.Sigma, v.DSigma = append(v.Sigma, s), append(v.DSigma, dsigma)
	}
	return v
}

func writeGen2Pin(t *testing.T) {
	pin := pinFile{Hyper: map[string]pinHyper{}}
	models := pinModels(t, pin.Hyper)
	rng := rand.New(rand.NewSource(33))
	for _, name := range []string{"exact/opamp-normal", "exact/opamp-subnormal", "exact/6d", "features/6d"} {
		m := models[name]
		var lo, hi []float64
		switch m := m.(type) {
		case *Exact:
			lo, hi = m.lo, m.hi
		case *FeatureModel:
			lo, hi = m.lo, m.hi
		}
		for _, b := range []int{1, 4, 15} {
			busy, query := pinQueries(rng, lo, hi, b)
			view, err := m.WithPseudo(busy)
			if err != nil {
				t.Fatal(err)
			}
			pin.Cases = append(pin.Cases, pinCase{Model: name, Busy: busy, Query: query,
				Raw: pinRead(view.Predictor(), query), Std: pinRead(view.StandardizedPredictor(), query)})
		}
	}
	raw, err := json.Marshal(pin)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gen2HallucinationPin, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGen2Pin(t *testing.T) pinFile {
	t.Helper()
	raw, err := os.ReadFile(gen2HallucinationPin)
	if err != nil {
		t.Fatal(err)
	}
	var pin pinFile
	if err := json.Unmarshal(raw, &pin); err != nil {
		t.Fatal(err)
	}
	return pin
}

// TestHallucinationMatchesGen2 holds every hallucinated view to the pin: σ̂
// within 1e-10 relative and ∇σ̂ within 1e-10 of the recorded gradient's
// largest component, while µ and ∇µ are the base model's, bit for bit.
func TestHallucinationMatchesGen2(t *testing.T) {
	if *writeGen2Hallucination {
		writeGen2Pin(t)
	}
	pin := readGen2Pin(t)
	models := pinModels(t, pin.Hyper)
	if len(pin.Cases) != 12 {
		t.Fatalf("%d cases in the pin, want 12", len(pin.Cases))
	}
	worstSigma, worstGrad := 0.0, 0.0
	for _, c := range pin.Cases {
		base := models[c.Model]
		view, err := base.WithPseudo(c.Busy)
		if err != nil {
			t.Fatal(err)
		}
		for _, units := range []struct {
			name       string
			view, base Predictor
			want       pinValues
		}{
			{"raw", view.Predictor(), base.Predictor(), c.Raw},
			{"standardized", view.StandardizedPredictor(), base.StandardizedPredictor(), c.Std},
		} {
			for i, q := range c.Query {
				d := len(q)
				dmu, dsigma := make([]float64, d), make([]float64, d)
				bmu, bsigma := make([]float64, d), make([]float64, d)
				mu, sigma := units.view.PredictGrad(q, dmu, dsigma)
				mu0, sigma0 := units.base.PredictGrad(q, bmu, bsigma)
				if math.Float64bits(mu) != math.Float64bits(mu0) {
					t.Fatalf("%s B=%d %s query %d: µ %v, base %v", c.Model, len(c.Busy), units.name, i, mu, mu0)
				}
				for j := range dmu {
					if math.Float64bits(dmu[j]) != math.Float64bits(bmu[j]) {
						t.Fatalf("%s B=%d %s query %d: ∇µ %v, base %v", c.Model, len(c.Busy), units.name, i, dmu, bmu)
					}
				}
				if !(sigma <= sigma0) {
					t.Fatalf("%s B=%d %s query %d: σ̂ %v above the base σ %v", c.Model, len(c.Busy), units.name, i, sigma, sigma0)
				}
				want := units.want.Sigma[i]
				rel := math.Abs(sigma-want) / want
				worstSigma = math.Max(worstSigma, rel)
				if !(rel <= 1e-10) {
					t.Fatalf("%s B=%d %s query %d: σ̂ %v, generation 2 %v (relative %.3g)", c.Model, len(c.Busy), units.name, i, sigma, want, rel)
				}
				scale, diff := 0.0, 0.0
				for j, g := range units.want.DSigma[i] {
					scale = math.Max(scale, math.Abs(g))
					diff = math.Max(diff, math.Abs(dsigma[j]-g))
				}
				worstGrad = math.Max(worstGrad, diff/scale)
				if !(diff <= 1e-10*scale) {
					t.Fatalf("%s B=%d %s query %d: ∇σ̂ %v, generation 2 %v (%.3g of its largest component)",
						c.Model, len(c.Busy), units.name, i, dsigma, units.want.DSigma[i], diff/scale)
				}
			}
		}
	}
	t.Logf("worst σ̂ relative difference %.3g; worst ∇σ̂ difference %.3g of ‖∇σ̂‖∞", worstSigma, worstGrad)
}
