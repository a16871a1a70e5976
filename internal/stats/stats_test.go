package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestNormPDF(t *testing.T) {
	if got := NormPDF(0); math.Abs(got-0.3989422804014327) > 1e-15 {
		t.Fatalf("NormPDF(0) = %v", got)
	}
	// Symmetry.
	if NormPDF(1.3) != NormPDF(-1.3) {
		t.Fatal("pdf not symmetric")
	}
}

func TestNormCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := NormCDF(c.z); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("NormCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestLogNormPDF(t *testing.T) {
	for _, z := range []float64{-2, 0, 0.5, 3} {
		if math.Abs(LogNormPDF(z)-math.Log(NormPDF(z))) > 1e-12 {
			t.Fatalf("LogNormPDF mismatch at %v", z)
		}
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, d := 32, 5
	pts := LatinHypercube(rng, n, d)
	if len(pts) != n {
		t.Fatalf("got %d points", len(pts))
	}
	for j := 0; j < d; j++ {
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			v := pts[i][j]
			if v < 0 || v >= 1 {
				t.Fatalf("point out of [0,1): %v", v)
			}
			k := int(v * float64(n))
			if seen[k] {
				t.Fatalf("stratum %d in dim %d hit twice", k, j)
			}
			seen[k] = true
		}
	}
}

func TestLatinHypercubeDeterministic(t *testing.T) {
	a := LatinHypercube(rand.New(rand.NewSource(5)), 10, 3)
	b := LatinHypercube(rand.New(rand.NewSource(5)), 10, 3)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("same seed must give identical design")
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 4, 1, 5})
	if s.Best != 5 || s.Worst != 1 || s.N != 5 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Mean-2.8) > 1e-12 {
		t.Fatalf("mean %v", s.Mean)
	}
	want := math.Sqrt((0.04 + 3.24 + 1.44 + 3.24 + 4.84) / 4)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std %v want %v", s.Std, want)
	}
	if s.Median != 3 {
		t.Fatalf("median %v", s.Median)
	}
	if s.BestIndex != 4 || s.WorstIndex != 1 {
		t.Fatalf("indices %d %d", s.BestIndex, s.WorstIndex)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	s := Summarize(nil)
	if !math.IsNaN(s.Mean) || s.N != 0 {
		t.Fatalf("empty summary %+v", s)
	}
	one := Summarize([]float64{7})
	if one.Best != 7 || one.Worst != 7 || one.Std != 0 || one.Median != 7 {
		t.Fatalf("singleton summary %+v", one)
	}
}

func TestMeanVarianceMaxMin(t *testing.T) {
	xs := []float64{2, 4, 6}
	if Mean(xs) != 4 {
		t.Fatal("Mean wrong")
	}
	if Variance(xs) != 4 {
		t.Fatalf("Variance = %v", Variance(xs))
	}
	if Variance([]float64{1}) != 0 {
		t.Fatal("Variance singleton must be 0")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) wrong")
	}
}

func TestQuantileSortedInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if q := quantileSorted(sorted, 0.25); q != 2.5 {
		t.Fatalf("q25 = %v", q)
	}
	if q := quantileSorted(sorted, 1); q != 10 {
		t.Fatalf("q100 = %v", q)
	}
	if !math.IsNaN(quantileSorted(nil, 0.5)) {
		t.Fatal("empty quantile must be NaN")
	}
}

func TestMannWhitneyUSeparatedSamples(t *testing.T) {
	// Clearly separated samples: tiny p-value; U extreme.
	a := []float64{10, 11, 12, 13, 14, 15, 16, 17}
	b := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	u, p := MannWhitneyU(a, b)
	if u != 64 { // all pairwise wins
		t.Fatalf("U = %v, want 64", u)
	}
	if p > 0.01 {
		t.Fatalf("p = %v, want significant", p)
	}
}

func TestMannWhitneyUIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6}
	u, p := MannWhitneyU(a, a)
	if math.Abs(u-18) > 1e-9 { // mean U = n1*n2/2
		t.Fatalf("U = %v, want 18", u)
	}
	if p < 0.9 {
		t.Fatalf("identical samples must not be significant: p=%v", p)
	}
}

func TestMannWhitneyUTiesAndEdges(t *testing.T) {
	// Heavy ties must not produce NaN.
	a := []float64{1, 1, 1, 2, 2}
	b := []float64{1, 2, 2, 2, 2}
	u, p := MannWhitneyU(a, b)
	if math.IsNaN(u) || math.IsNaN(p) || p < 0 || p > 1 {
		t.Fatalf("u=%v p=%v", u, p)
	}
	if _, p := MannWhitneyU(nil, a); p != 1 {
		t.Fatal("empty sample must return p=1")
	}
}

func TestMannWhitneyUSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := make([]float64, 10)
	b := make([]float64, 12)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64() + 0.4
	}
	_, pab := MannWhitneyU(a, b)
	_, pba := MannWhitneyU(b, a)
	if math.Abs(pab-pba) > 1e-9 {
		t.Fatalf("p not symmetric: %v vs %v", pab, pba)
	}
}

func TestSignTest(t *testing.T) {
	cases := []struct {
		w, l int
		want float64
	}{
		{0, 0, 1},
		{5, 0, 2.0 / 32},        // 2·(1/32)
		{0, 5, 2.0 / 32},        // symmetric
		{9, 1, 2 * 11.0 / 1024}, // 2·(C(10,0)+C(10,1))/2¹⁰
		{8, 2, 2 * 56.0 / 1024}, // + C(10,2)
		{5, 5, 1},               // an even split is no evidence (capped)
		{10, 0, 2 * 1.0 / 1024},
	}
	for _, c := range cases {
		if got := SignTest(c.w, c.l); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("SignTest(%d, %d) = %v, want %v", c.w, c.l, got, c.want)
		}
	}
}

func TestStudentT975(t *testing.T) {
	// Exact quantiles from the tables.
	for _, c := range []struct{ df, want, tol float64 }{
		{2, 4.303, 0.04}, {3, 3.182, 0.01}, {4, 2.776, 0.003}, {8, 2.306, 0.001},
		{18, 2.101, 0.001}, {1000, 1.962, 0.001},
	} {
		if got := StudentT975(c.df); math.Abs(got-c.want) > c.tol*c.want {
			t.Errorf("StudentT975(%v) = %v, want %v", c.df, got, c.want)
		}
	}
	if !math.IsInf(StudentT975(0), 1) {
		t.Error("no degrees of freedom must tolerate anything")
	}
	if a, b := StudentT975(3.5), StudentT975(4.5); !(a > b && b > 1.96) {
		t.Errorf("not decreasing toward the normal quantile: %v, %v", a, b)
	}
}
