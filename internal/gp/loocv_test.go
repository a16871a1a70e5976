package gp

import (
	"math"
	"math/rand"
	"testing"
)

// TestLeaveOneOutAnalyticTwoPoints checks the closed-form LOO identities
// against the hand-derived n=2 case: deleting point 1 leaves a single-point
// GP, whose prediction at x_1 is
//
//	µ_1 = k(x_1,x_2)/(k(x_2,x_2)+σn²)·y_2,
//	σ²_1 = k(x_1,x_1)+σn² − k(x_1,x_2)²/(k(x_2,x_2)+σn²),
//
// where the LOO variance is predictive of the held-out OBSERVATION, so the
// noise rides on both diagonal entries.
func TestLeaveOneOutAnalyticTwoPoints(t *testing.T) {
	x := [][]float64{{0.2}, {0.7}}
	y := []float64{1.5, -0.5}
	theta := []float64{math.Log(0.4), math.Log(1.2)}
	logNoise := math.Log(0.1)
	g, err := Fit(SEARD{}, x, y, theta, logNoise)
	if err != nil {
		t.Fatal(err)
	}
	res := g.LeaveOneOut()

	k := SEARD{}
	k12 := refEval(k, theta, x[0], x[1])
	noise2 := math.Exp(2 * logNoise)
	k11 := refEval(k, theta, x[0], x[0]) + noise2
	k22 := refEval(k, theta, x[1], x[1]) + noise2

	wantMu := []float64{k12 / k22 * y[1], k12 / k11 * y[0]}
	wantS2 := []float64{k11 - k12*k12/k22, k22 - k12*k12/k11}
	for i := 0; i < 2; i++ {
		if e := math.Abs(res.Mean[i] - wantMu[i]); e > 1e-9 {
			t.Fatalf("LOO mean %d = %v, analytic %v", i, res.Mean[i], wantMu[i])
		}
		if e := math.Abs(res.Sigma[i] - math.Sqrt(wantS2[i])); e > 1e-9 {
			t.Fatalf("LOO sigma %d = %v, analytic %v", i, res.Sigma[i], math.Sqrt(wantS2[i]))
		}
	}
	// RMSE follows from the means directly.
	wantRMSE := math.Sqrt(((y[0]-wantMu[0])*(y[0]-wantMu[0]) + (y[1]-wantMu[1])*(y[1]-wantMu[1])) / 2)
	if e := math.Abs(res.RMSE - wantRMSE); e > 1e-9 {
		t.Fatalf("LOO RMSE = %v, analytic %v", res.RMSE, wantRMSE)
	}
}

// TestLeaveOneOutMatchesBruteForceRefits pins the O(1)-per-point identities
// to the definitionally correct procedure: refit the GP on the other n−1
// points at the same hyperparameters and predict the held-out input.
func TestLeaveOneOutMatchesBruteForceRefits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 9
	theta := []float64{math.Log(0.3), math.Log(0.5), math.Log(1.1)}
	logNoise := math.Log(0.05)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = math.Sin(3*x[i][0]) + x[i][1]*x[i][1] + 0.05*rng.NormFloat64()
	}
	g, err := Fit(SEARD{}, x, y, theta, logNoise)
	if err != nil {
		t.Fatal(err)
	}
	res := g.LeaveOneOut()
	if res.RMSE <= 0 || math.IsNaN(res.LogPredictiveDensity) {
		t.Fatalf("bad summary: %+v", res)
	}
	noise2 := math.Exp(2 * logNoise)
	for i := 0; i < n; i++ {
		xs := make([][]float64, 0, n-1)
		ys := make([]float64, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				xs = append(xs, x[j])
				ys = append(ys, y[j])
			}
		}
		sub, err := Fit(SEARD{}, xs, ys, theta, logNoise)
		if err != nil {
			t.Fatal(err)
		}
		mu, sigma := sub.Predict(x[i])
		// Predict returns the latent deviation; the LOO σ predicts the
		// held-out observation, so add the noise back.
		sigmaObs := math.Sqrt(sigma*sigma + noise2)
		if e := math.Abs(res.Mean[i] - mu); e > 1e-8 {
			t.Fatalf("point %d: LOO mean %v, brute-force refit %v", i, res.Mean[i], mu)
		}
		if e := math.Abs(res.Sigma[i] - sigmaObs); e > 1e-8 {
			t.Fatalf("point %d: LOO sigma %v, brute-force refit %v", i, res.Sigma[i], sigmaObs)
		}
	}
}
