package surrogate_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"easybo/internal/acq"
	"easybo/internal/core"
	"easybo/internal/gp"
	"easybo/internal/optimize"
	"easybo/internal/surrogate"
)

// The surrogate-scaling suite compares the two backends at n ∈ {100, 500,
// 2000} observations on a 6-D problem (the op-amp's dimensionality):
// fixed-hyperparameter fit, single-observation incremental extend, and
// posterior prediction, plus the end-to-end fit+suggest hot path at
// n=2000.

const benchDim = 6

var benchSizes = []int{100, 500, 2000}

// fitExactAt fits the exact GP at the given hyperparameters and
// benchLogNoise, without a hyperparameter search.
func fitExactAt(x [][]float64, y, lo, hi, theta []float64) (*surrogate.Exact, error) {
	return surrogate.NewExact(x, y, lo, hi, func(xs [][]float64, ys []float64) (*gp.GP, error) {
		return gp.Fit(gp.SEARD{}, xs, ys, theta, benchLogNoise)
	})
}

func benchTheta() []float64 { return benchThetaDim(benchDim) }

func benchThetaDim(d int) []float64 {
	th := make([]float64, d+1)
	for i := 0; i < d; i++ {
		th[i] = math.Log(0.4)
	}
	return th
}

const benchLogNoise = -3.0

func benchData(n int) (x [][]float64, y []float64, lo, hi []float64) {
	return benchDataDim(n, benchDim)
}

func benchDataDim(n, d int) (x [][]float64, y []float64, lo, hi []float64) {
	rng := rand.New(rand.NewSource(int64(1000 + n)))
	lo = make([]float64, d)
	hi = make([]float64, d)
	for i := range hi {
		hi[i] = 1
	}
	x = make([][]float64, n)
	y = make([]float64, n)
	for i := 0; i < n; i++ {
		xi := make([]float64, d)
		s := 0.0
		for j := range xi {
			xi[j] = rng.Float64()
			s += math.Sin(3 * xi[j])
		}
		x[i] = xi
		y[i] = s
	}
	return x, y, lo, hi
}

func BenchmarkSurrogateFitExact(b *testing.B) {
	for _, n := range benchSizes {
		x, y, lo, hi := benchData(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fitExactAt(x, y, lo, hi, benchTheta()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSurrogateFitFeatures(b *testing.B) {
	for _, n := range benchSizes {
		x, y, lo, hi := benchData(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(1))
				if _, err := surrogate.FitFeatures(x, y, lo, hi, benchTheta(), benchLogNoise,
					rng, surrogate.DefaultFeatures); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSurrogateExtendExact is one observation absorbed by the exact
// backend's rank-append, also at n = 150, bo-opamp's final size. Extend
// spends its receiver, so every iteration extends a fresh fit, made with the
// timer stopped: this is the first tell after a training, the one that
// moves the factor into storage with room for the tells after it.
func BenchmarkSurrogateExtendExact(b *testing.B) {
	for _, n := range append([]int{150}, benchSizes...) {
		x, y, lo, hi := benchData(n + 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := fitExactAt(x[:n], y[:n], lo, hi, benchTheta())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := s.Extend(x[n:], y[n:]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSurrogateExtendFeatures is one observation absorbed by the
// feature backend's in-place rank-1 update: each iteration extends the model
// the one before returned, as a session's tells do, at a cost independent of
// how many it absorbed.
func BenchmarkSurrogateExtendFeatures(b *testing.B) {
	for _, n := range benchSizes {
		x, y, lo, hi := benchData(n + 1)
		fm, err := surrogate.FitFeatures(x[:n], y[:n], lo, hi, benchTheta(), benchLogNoise,
			rand.New(rand.NewSource(1)), surrogate.DefaultFeatures)
		if err != nil {
			b.Fatal(err)
		}
		var s surrogate.Surrogate = fm // the chain runs on across the calls b.Run makes
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if s, err = s.Extend(x[n:], y[n:]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchQueries(k int) [][]float64 {
	rng := rand.New(rand.NewSource(2))
	qs := make([][]float64, k)
	for i := range qs {
		q := make([]float64, benchDim)
		for j := range q {
			q[j] = rng.Float64()
		}
		qs[i] = q
	}
	return qs
}

func BenchmarkSurrogatePredictExact(b *testing.B) {
	for _, n := range benchSizes {
		x, y, lo, hi := benchData(n)
		m, err := fitExactAt(x, y, lo, hi, benchTheta())
		if err != nil {
			b.Fatal(err)
		}
		p := m.Predictor()
		qs := benchQueries(64)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Predict(qs[i%len(qs)])
			}
		})
	}
}

func BenchmarkSurrogatePredictFeatures(b *testing.B) {
	for _, n := range benchSizes {
		x, y, lo, hi := benchData(n)
		fm, err := surrogate.FitFeatures(x, y, lo, hi, benchTheta(), benchLogNoise,
			rand.New(rand.NewSource(1)), surrogate.DefaultFeatures)
		if err != nil {
			b.Fatal(err)
		}
		p := fm.Predictor()
		qs := benchQueries(64)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Predict(qs[i%len(qs)])
			}
		})
	}
}

// benchPredictBatch measures PredictBatch at the widths the acquisition
// maximizer produces: 1 (what every prediction cost before batching), 2 and 3
// (simplexes in lockstep), 4 (one full solve group) and 16 (a candidate-sweep
// chunk). ns/point is the figure to compare across widths.
func benchPredictBatch(b *testing.B, p surrogate.Predictor) {
	b.Helper()
	qs := benchQueries(64)
	for _, w := range []int{1, 2, 3, 4, 16} {
		mu, sigma := make([]float64, w), make([]float64, w)
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				at := i * w % (len(qs) - w + 1)
				p.PredictBatch(qs[at:at+w], mu, sigma, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(w), "ns/point")
		})
	}
}

// BenchmarkPredictBatchExact runs at n=150, the exact GP's size at the end
// of a 150-evaluation op-amp run.
func BenchmarkPredictBatchExact(b *testing.B) {
	x, y, lo, hi := benchData(150)
	m, err := fitExactAt(x, y, lo, hi, benchTheta())
	if err != nil {
		b.Fatal(err)
	}
	benchPredictBatch(b, m.StandardizedPredictor())
}

// BenchmarkPredictBatchFeatures runs at the default basis size; the cost does
// not depend on n.
func BenchmarkPredictBatchFeatures(b *testing.B) {
	x, y, lo, hi := benchData(500)
	fm, err := surrogate.FitFeatures(x, y, lo, hi, benchTheta(), benchLogNoise,
		rand.New(rand.NewSource(1)), surrogate.DefaultFeatures)
	if err != nil {
		b.Fatal(err)
	}
	benchPredictBatch(b, fm.StandardizedPredictor())
}

// benchPredictGrad measures one value-and-gradient evaluation, the unit the
// gradient refinement is budgeted in, beside PredictBatch's w=1 row: on the
// model itself and on a view of it with four busy points (serve-model's
// batch), whose correction adds a busy-set solve to every evaluation. The
// fresh row takes a new predictor of the view for every evaluation, as each
// ask's maximizer does for its workers: its B/op is what a predictor's first
// call allocates.
func benchPredictGrad(b *testing.B, m surrogate.Surrogate) {
	b.Helper()
	qs := benchQueries(68)
	view, err := m.WithPseudo(qs[64:])
	if err != nil {
		b.Fatal(err)
	}
	qs = qs[:64]
	dmu, dsigma := make([]float64, len(qs[0])), make([]float64, len(qs[0]))
	for _, c := range []struct {
		name string
		m    surrogate.Surrogate
	}{{"busy=0", m}, {"busy=4", view}} {
		p := c.m.StandardizedPredictor()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.PredictGrad(qs[i%len(qs)], dmu, dsigma)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/point")
		})
	}
	b.Run("busy=4/fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			view.StandardizedPredictor().PredictGrad(qs[i%len(qs)], dmu, dsigma)
		}
	})
}

func BenchmarkPredictGradExact(b *testing.B) {
	x, y, lo, hi := benchData(150)
	m, err := fitExactAt(x, y, lo, hi, benchTheta())
	if err != nil {
		b.Fatal(err)
	}
	benchPredictGrad(b, m)
}

func BenchmarkPredictGradFeatures(b *testing.B) {
	x, y, lo, hi := benchData(500)
	fm, err := surrogate.FitFeatures(x, y, lo, hi, benchTheta(), benchLogNoise,
		rand.New(rand.NewSource(1)), surrogate.DefaultFeatures)
	if err != nil {
		b.Fatal(err)
	}
	benchPredictGrad(b, fm)
}

// solveCounter wraps a surrogate so that a benchmark can count, of the
// points its standardized predictors are asked for in batches, how many went
// through the triangular solve — the rest a keep turned away.
type solveCounter struct {
	surrogate.Surrogate
	asked, solved *atomic.Int64
}

func (s solveCounter) StandardizedPredictor() surrogate.Predictor {
	return countingPredictor{s.Surrogate.StandardizedPredictor(), s}
}

type countingPredictor struct {
	surrogate.Predictor
	c solveCounter
}

func (p countingPredictor) PredictBatch(xs [][]float64, mu, sigma []float64, keep func(mu, sigmaMax float64) bool) {
	p.Predictor.PredictBatch(xs, mu, sigma, keep)
	solved := 0
	for _, s := range sigma[:len(xs)] {
		if s >= 0 {
			solved++
		}
	}
	p.c.asked.Add(int64(len(xs)))
	p.c.solved.Add(int64(solved))
}

// BenchmarkRefine is one acquisition maximization — the candidate sweep, then
// three refinements — on the two model shapes the repo benchmark ends on: the
// feature backend at its default basis (serve-model: d = 6, m = 256) and the
// exact GP at n = 150, d = 10 (bo-opamp). The grad rows are what an ask runs
// (three Ascents, at most 90 value-and-gradient evaluations); the simplex
// rows are the derivative-free entry on the same objective (three Nelder–Mead
// searches of 40·d predictions, what an ask ran before). One worker steps the
// refinements in lockstep, two share three through the queue, three take one
// each. The grad rows also report how many of the sweep's candidates paid
// for a solve (solved/op) and what share of the sweep that is: the rest the
// floor ruled out on their mean and the bound on their deviation. (In a grad
// row every batch prediction is the sweep's; a simplex row's refinement
// predicts in batches too, so it reports no share.)
func BenchmarkRefine(b *testing.B) {
	x, y, lo, hi := benchData(500)
	fm, err := surrogate.FitFeatures(x, y, lo, hi, benchTheta(), benchLogNoise,
		rand.New(rand.NewSource(1)), surrogate.DefaultFeatures)
	if err != nil {
		b.Fatal(err)
	}
	const exactDim = 10
	x10, y10, lo10, hi10 := benchDataDim(150, exactDim)
	m, err := fitExactAt(x10, y10, lo10, hi10, benchThetaDim(exactDim))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		s      surrogate.Surrogate
		lo, hi []float64
	}{
		{"features", fm, lo, hi},
		{"exact", m, lo10, hi10},
	} {
		var asked, solved atomic.Int64
		newF := core.AcqObjective(acq.Weighted{W: 0.5}, solveCounter{c.s, &asked, &solved})
		valueOnly := func() optimize.BatchObjective { f, _ := newF(); return f }
		for _, workers := range []int{1, 2, 3} {
			opts := optimize.MaximizeOptions{Workers: workers}
			for _, r := range []struct {
				name     string
				maximize func(rng *rand.Rand)
			}{
				{"grad", func(rng *rand.Rand) { optimize.MaximizeGrad(newF, c.lo, c.hi, rng, opts) }},
				{"simplex", func(rng *rand.Rand) { optimize.MaximizeParallel(valueOnly, c.lo, c.hi, rng, opts) }},
			} {
				b.Run(fmt.Sprintf("%s/%s/workers=%d", c.name, r.name, workers), func(b *testing.B) {
					b.ReportAllocs()
					asked.Store(0)
					solved.Store(0)
					for i := 0; i < b.N; i++ {
						r.maximize(rand.New(rand.NewSource(int64(i))))
					}
					b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/maximization")
					if r.name == "grad" {
						b.ReportMetric(float64(solved.Load())/float64(b.N), "solved/op")
						b.ReportMetric(float64(solved.Load())/float64(asked.Load()), "solved-share")
					}
				})
			}
		}
	}
}

// benchSuggest measures the full per-ask hot path at n=2000: refresh the
// surrogate on the grown dataset, hallucinate 3 busy points, and maximize
// the EasyBO acquisition.
func benchSuggest(b *testing.B, fit func() (surrogate.Surrogate, error)) {
	b.Helper()
	_, _, lo, hi := benchData(1)
	busy := benchQueries(3)
	prop := &core.Proposer{Lambda: 6, Penalize: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := fit()
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		if _, _, err := prop.Propose(s, busy, lo, hi, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSurrogateSuggestExactN2000(b *testing.B) {
	x, y, lo, hi := benchData(2000)
	benchSuggest(b, func() (surrogate.Surrogate, error) {
		m, err := fitExactAt(x, y, lo, hi, benchTheta())
		if err != nil {
			return nil, err
		}
		return m, nil
	})
}

func BenchmarkSurrogateSuggestFeaturesN2000(b *testing.B) {
	x, y, lo, hi := benchData(2000)
	benchSuggest(b, func() (surrogate.Surrogate, error) {
		return surrogate.FitFeatures(x, y, lo, hi, benchTheta(), benchLogNoise,
			rand.New(rand.NewSource(1)), surrogate.DefaultFeatures)
	})
}
