package gp

import (
	"math"
	"math/rand"
	"testing"
)

func TestRFFPhiApproximatesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := 3
	theta := []float64{math.Log(0.4), math.Log(0.7), math.Log(0.3), math.Log(1.3)}
	basis, err := NewRFF(rng, theta, d, 4096)
	if err != nil {
		t.Fatal(err)
	}
	k := SEARD{}
	for trial := 0; trial < 20; trial++ {
		a := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		b := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		var dot float64
		pa := basis.PhiInto(make([]float64, basis.Features()), a)
		pb := basis.PhiInto(make([]float64, basis.Features()), b)
		for i := range pa {
			dot += pa[i] * pb[i]
		}
		want := refEval(k, theta, a, b)
		// Monte-Carlo error of the feature expansion is O(1/√m).
		if e := math.Abs(dot - want); e > 0.08 {
			t.Fatalf("trial %d: φ(a)·φ(b) = %v, k(a,b) = %v (err %v)", trial, dot, want, e)
		}
	}
}

// TestNewRFFRejectsTinyFeatureCounts: below MinRFFFeatures a basis is an
// error, never a silently adjusted feature count; the minimum itself is a
// basis of that many features.
func TestNewRFFRejectsTinyFeatureCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	theta := []float64{math.Log(0.4), 0}
	for _, m := range []int{0, 1, MinRFFFeatures - 1} {
		if _, err := NewRFF(rng, theta, 1, m); err == nil {
			t.Fatalf("m=%d must be rejected (minimum %d)", m, MinRFFFeatures)
		}
	}
	basis, err := NewRFF(rng, theta, 1, MinRFFFeatures)
	if err != nil {
		t.Fatalf("m=%d (the documented minimum) must be accepted: %v", MinRFFFeatures, err)
	}
	if basis.Features() != MinRFFFeatures {
		t.Fatalf("basis has %d features, want %d", basis.Features(), MinRFFFeatures)
	}
}

// refProject is the projection as one output at a time: dst zeroed, then
// every feature's dst += c[i]·wᵢ in feature order, an entry at a time.
func refProject(r *RFF, c []float64) []float64 {
	dst := make([]float64, r.dim)
	for i, wi := range r.w {
		for j := range dst {
			dst[j] += c[i] * wi[j]
		}
	}
	return dst
}

// TestProjectBitIdentical holds the two-output projection to two
// one-output ones, bit for bit, on coefficients that include zeros of both
// signs (a sum that starts at +0 must stay +0 under −0 terms) and
// subnormals (whose products round to zero or lose bits), into outputs that
// start as NaN so that an entry not cleared shows.
func TestProjectBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := []float64{0, math.Copysign(0, -1), 5e-324, -4.9e-322, 2.2e-308, -1e-310}
	for _, d := range []int{1, 3, 6, 7} {
		theta := make([]float64, d+1)
		basis, err := NewRFF(rng, theta, d, 64)
		if err != nil {
			t.Fatal(err)
		}
		m := basis.Features()
		for trial := 0; trial < 4; trial++ {
			a, b := make([]float64, m), make([]float64, m)
			for i := range a {
				a[i], b[i] = rng.NormFloat64(), 1e8*rng.NormFloat64()
				switch trial {
				case 1: // a mostly special, b all −0 or +0
					if i%3 != 0 {
						a[i] = special[i%len(special)]
					}
					b[i] = special[i%2]
				case 2: // both all special
					a[i], b[i] = special[i%len(special)], special[(i+1)%len(special)]
				case 3: // the same coefficients in both
					b[i] = a[i]
				}
			}
			da, db := make([]float64, d), make([]float64, d)
			for j := range da {
				da[j], db[j] = math.NaN(), math.NaN()
			}
			basis.Project(da, db, a, b)
			for _, out := range []struct {
				name      string
				got, want []float64
			}{{"a", da, refProject(basis, a)}, {"b", db, refProject(basis, b)}} {
				for j := range out.want {
					if math.Float64bits(out.got[j]) != math.Float64bits(out.want[j]) {
						t.Fatalf("d=%d trial %d output %s entry %d: %x, reference %x", d, trial, out.name, j,
							math.Float64bits(out.got[j]), math.Float64bits(out.want[j]))
					}
				}
			}
		}
	}
}
