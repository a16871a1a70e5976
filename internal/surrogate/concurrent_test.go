package surrogate

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"easybo/internal/gp"
)

// TestOneModelServesConcurrentReaders is the immutability contract of
// Surrogate: one fitted model serves concurrent readers. On each backend,
// goroutines take their own raw and standardized predictors over one model
// — batches of every width, gradients — while others Extend it and
// hallucinate into it and predict from what they get, all at once; every
// result must be, bit for bit, what a serial run of the same work gives.
// Under -race (make race) it is also the guard against scratch space that
// leaks into what the readers share: the model, its frame, its factor.
func TestOneModelServesConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	x, y, lo, hi := fixture(rng, 36)
	fm, err := FitFeatures(x[:30], y[:30], lo, hi, fixtureTheta, fixtureLogNoise, rng, 48)
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]Surrogate{
		"exact":    fitExact(t, x[:30], y[:30], lo, hi, gp.SEARD{}, fixtureTheta, fixtureLogNoise),
		"features": fm,
	}
	qs := make([][]float64, 23)
	for i := range qs {
		qs[i] = []float64{rng.Float64(), rng.Float64()}
	}
	busy := [][]float64{{0.2, 0.7}, {0.9, 0.1}, x[3]}

	// read predicts at every query through p, in batches of widths 1…6, and
	// takes the gradient at every third; it returns every bit it saw.
	read := func(p Predictor) []float64 {
		var out []float64
		for at, w := 0, 1; at < len(qs); at, w = at+w, w%6+1 {
			batch := qs[at:min(at+w, len(qs))]
			mu, sigma := make([]float64, len(batch)), make([]float64, len(batch))
			p.PredictBatch(batch, mu, sigma, nil)
			out = append(append(out, mu...), sigma...)
		}
		dmu, dsigma := make([]float64, len(lo)), make([]float64, len(lo))
		for i := 0; i < len(qs); i += 3 {
			mu, sigma := p.PredictGrad(qs[i], dmu, dsigma)
			out = append(append(append(out, mu, sigma), dmu...), dsigma...)
		}
		return out
	}
	for name, m := range models {
		work := func(k int) []float64 {
			switch k % 4 {
			case 0:
				return read(m.Predictor())
			case 1:
				return read(m.StandardizedPredictor())
			case 2:
				ext, err := m.Extend(x[30:], y[30:])
				if err != nil {
					t.Error(err)
					return nil
				}
				return read(ext.StandardizedPredictor())
			default:
				h, err := m.WithPseudo(busy)
				if err != nil {
					t.Error(err)
					return nil
				}
				return read(h.Predictor())
			}
		}
		const readers = 12
		want := make([][]float64, readers)
		for k := range want {
			want[k] = work(k)
		}
		got := make([][]float64, readers)
		var start, done sync.WaitGroup
		start.Add(1)
		for k := range got {
			done.Add(1)
			go func(k int) {
				defer done.Done()
				start.Wait()
				got[k] = work(k)
			}(k)
		}
		start.Done()
		done.Wait()
		for k := range want {
			if len(got[k]) != len(want[k]) || len(want[k]) == 0 {
				t.Fatalf("%s reader %d: %d values, serial run %d", name, k, len(got[k]), len(want[k]))
			}
			for i := range want[k] {
				if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
					t.Fatalf("%s reader %d value %d: concurrent %v, serial %v", name, k, i, got[k][i], want[k][i])
				}
			}
		}
	}
}
