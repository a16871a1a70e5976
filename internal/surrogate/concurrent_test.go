package surrogate

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"easybo/internal/gp"
)

// TestOneModelServesConcurrentReaders is the readers' half of the Surrogate
// contract: one fitted model serves concurrent readers (Extend, the owner's
// half, spends the model and is not one of them). On each backend — the
// feature backend at two basis sizes — and on a hallucinated view of each,
// goroutines take their own raw and standardized predictors over one model
// and interleave batches of every width with gradients, while others
// hallucinate one or three points into it and predict from what they get,
// all models at once; every result must be, bit for bit, what a serial run
// of the same work gives. Under -race (make race) it is also the guard
// against scratch space that leaks into what the readers share: the model,
// its frame, its factor, a view's busy-set state (the c and z of the Schur
// correction belong to each predictor), and the process-wide pool the
// feature backend's calls borrow their feature vectors from, which here
// trades buffers between calls of both basis sizes.
func TestOneModelServesConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	x, y, lo, hi := fixture(rng, 36)
	models := map[string]Surrogate{
		"exact": fitExact(t, x[:30], y[:30], lo, hi, gp.SEARD{}, fixtureTheta, fixtureLogNoise),
	}
	for _, m := range []int{48, 80} {
		fm, err := FitFeatures(x[:30], y[:30], lo, hi, fixtureTheta, fixtureLogNoise, rng, m)
		if err != nil {
			t.Fatal(err)
		}
		models[fmt.Sprintf("features/m=%d", m)] = fm
	}
	qs := make([][]float64, 23)
	for i := range qs {
		qs[i] = []float64{rng.Float64(), rng.Float64()}
	}
	busy := [][]float64{{0.2, 0.7}, {0.9, 0.1}, x[3]}
	for _, name := range []string{"exact", "features/m=48", "features/m=80"} {
		view, err := models[name].WithPseudo([][]float64{{0.6, 0.4}, {0.35, 0.8}})
		if err != nil {
			t.Fatal(err)
		}
		models[name+"/view"] = view
	}

	// read predicts at every query through p, in batches of widths 1…6, and
	// takes the gradient at the first point of every batch, between one
	// batch and the next; it returns every bit it saw.
	read := func(p Predictor) []float64 {
		var out []float64
		dmu, dsigma := make([]float64, len(lo)), make([]float64, len(lo))
		for at, w := 0, 1; at < len(qs); at, w = at+w, w%6+1 {
			batch := qs[at:min(at+w, len(qs))]
			mu, sigma := make([]float64, len(batch)), make([]float64, len(batch))
			p.PredictBatch(batch, mu, sigma, nil)
			out = append(append(out, mu...), sigma...)
			gmu, gsigma := p.PredictGrad(batch[0], dmu, dsigma)
			out = append(append(append(out, gmu, gsigma), dmu...), dsigma...)
		}
		return out
	}
	work := func(m Surrogate, k int) []float64 {
		switch k % 4 {
		case 0:
			return read(m.Predictor())
		case 1:
			return read(m.StandardizedPredictor())
		case 2:
			one, err := m.WithPseudo(x[30:31])
			if err != nil {
				t.Error(err)
				return nil
			}
			return read(one.StandardizedPredictor())
		default:
			h, err := m.WithPseudo(busy)
			if err != nil {
				t.Error(err)
				return nil
			}
			return read(h.Predictor())
		}
	}
	const readers = 8
	names := make([]string, 0, len(models))
	for name := range models {
		names = append(names, name)
	}
	want := make([][]float64, len(names)*readers)
	for i := range want {
		want[i] = work(models[names[i/readers]], i%readers)
	}
	got := make([][]float64, len(want))
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			got[i] = work(models[names[i/readers]], i%readers)
		}(i)
	}
	start.Done()
	done.Wait()
	for i := range want {
		name, k := names[i/readers], i%readers
		if len(got[i]) != len(want[i]) || len(want[i]) == 0 {
			t.Fatalf("%s reader %d: %d values, serial run %d", name, k, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s reader %d value %d: concurrent %v, serial %v", name, k, j, got[i][j], want[i][j])
			}
		}
	}
}
