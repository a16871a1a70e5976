package gp

import (
	"math"

	"easybo/internal/linalg"
	"easybo/internal/stats"
)

// LOOResult holds leave-one-out cross-validation diagnostics of a fitted GP.
type LOOResult struct {
	Mean  []float64 // LOO predictive mean at each training point
	Sigma []float64 // LOO predictive deviation
	// LogPredictiveDensity is the summed log probability of each held-out
	// observation under its LOO predictive distribution — the standard
	// surrogate-quality score (higher is better).
	LogPredictiveDensity float64
	// RMSE is the root-mean-square LOO residual in standardized units.
	RMSE float64
}

// LeaveOneOut computes exact leave-one-out predictions for every training
// point using the closed-form identities (Rasmussen & Williams §5.4.2):
//
//	µ_i = y_i − α_i / [K⁻¹]_ii,   σ²_i = 1 / [K⁻¹]_ii
//
// No refitting is needed; cost is one matrix inverse on the existing factor —
// its packed upper triangle, of which only the diagonal is read.
func (g *GP) LeaveOneOut() LOOResult {
	n := g.N()
	kinv := make([]float64, n*(n+1)/2)
	g.chol.InverseUpperInto(kinv, linalg.NewMatrix(n, n))
	res := LOOResult{Mean: make([]float64, n), Sigma: make([]float64, n)}
	var sq float64
	for i := 0; i < n; i++ {
		kii := kinv[0]
		kinv = kinv[n-i:]
		if kii <= 0 {
			kii = 1e-12
		}
		mu := g.Y[i] - g.alpha[i]/kii
		s2 := 1 / kii
		res.Mean[i] = mu
		res.Sigma[i] = math.Sqrt(s2)
		r := g.Y[i] - mu
		sq += r * r
		res.LogPredictiveDensity += stats.LogNormPDF(r/res.Sigma[i]) - math.Log(res.Sigma[i])
	}
	res.RMSE = math.Sqrt(sq / float64(n))
	return res
}
