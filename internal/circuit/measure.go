package circuit

import (
	"math"
	"math/cmplx"
	"slices"
)

// Bode holds a magnitude/phase response extracted from an AC sweep.
type Bode struct {
	Freq     []float64 // Hz
	MagDB    []float64
	PhaseDeg []float64 // unwrapped
}

// BodeOf extracts the Bode response of a node from an AC result into a new
// Bode; see BodeInto.
func BodeOf(r *ACResult, node string) *Bode {
	b := new(Bode)
	BodeInto(b, r, node)
	return b
}

// BodeInto extracts the Bode response of a node from an AC result into dst,
// unwrapping the phase. A node the sweep does not know reads as 0 V at
// every frequency. It reuses dst's slices wherever their capacity suffices,
// so a warm caller allocates nothing; the next call on the same dst
// overwrites it.
func BodeInto(dst *Bode, r *ACResult, node string) {
	nf := len(r.Freqs)
	dst.Freq = append(dst.Freq[:0], r.Freqs...)
	dst.MagDB = slices.Grow(dst.MagDB[:0], nf)[:nf]
	dst.PhaseDeg = slices.Grow(dst.PhaseDeg[:0], nf)[:nf]
	idx := r.c.nodes[node] // 0 (ground) for an unknown name too
	prev := 0.0
	for k := range r.Freqs {
		var v complex128
		if idx > 0 {
			v = r.X[k][idx-1]
		}
		// 20·log10(|v|) = 10·log10(re² + im²): skips the hypot call on a
		// loop that runs once per swept frequency per measured node.
		mag2 := real(v)*real(v) + imag(v)*imag(v)
		if mag2 <= 0 {
			dst.MagDB[k] = math.Inf(-1)
		} else {
			dst.MagDB[k] = 10 * math.Log10(mag2)
		}
		ph := cmplx.Phase(v) * 180 / math.Pi
		if k > 0 { // unwrap
			for ph-prev > 180 {
				ph -= 360
			}
			for ph-prev < -180 {
				ph += 360
			}
		}
		dst.PhaseDeg[k] = ph
		prev = ph
	}
}

// DCGainDB returns the gain at the lowest swept frequency.
func (b *Bode) DCGainDB() float64 {
	if len(b.MagDB) == 0 {
		return math.Inf(-1)
	}
	return b.MagDB[0]
}

// UnityGainFreq returns the first frequency where the magnitude crosses 0 dB
// from above, interpolated in log-frequency. ok is false if the response
// never crosses unity.
func (b *Bode) UnityGainFreq() (f float64, ok bool) {
	return b.CrossingFreq(0)
}

// CrossingFreq returns the first frequency at which the magnitude falls
// through the given level (dB).
func (b *Bode) CrossingFreq(levelDB float64) (f float64, ok bool) {
	for k := 1; k < len(b.MagDB); k++ {
		m0, m1 := b.MagDB[k-1], b.MagDB[k]
		if m0 >= levelDB && m1 < levelDB {
			// Interpolate in log10(f).
			t := (m0 - levelDB) / (m0 - m1)
			lf := math.Log10(b.Freq[k-1]) + t*(math.Log10(b.Freq[k])-math.Log10(b.Freq[k-1]))
			return math.Pow(10, lf), true
		}
	}
	return 0, false
}

// PhaseAt returns the unwrapped phase interpolated at frequency f (log-x
// interpolation).
func (b *Bode) PhaseAt(f float64) float64 {
	n := len(b.Freq)
	if n == 0 {
		return math.NaN()
	}
	if f <= b.Freq[0] {
		return b.PhaseDeg[0]
	}
	if f >= b.Freq[n-1] {
		return b.PhaseDeg[n-1]
	}
	for k := 1; k < n; k++ {
		if f <= b.Freq[k] {
			t := (math.Log10(f) - math.Log10(b.Freq[k-1])) /
				(math.Log10(b.Freq[k]) - math.Log10(b.Freq[k-1]))
			return b.PhaseDeg[k-1] + t*(b.PhaseDeg[k]-b.PhaseDeg[k-1])
		}
	}
	return b.PhaseDeg[n-1]
}

// Phase180Freq returns the first frequency at which the accumulated phase
// lag (relative to the low-frequency phase) reaches 180°. Beyond this
// frequency a unity-feedback loop is unstable, so it bounds the usable
// bandwidth of an amplifier. ok is false when the lag never reaches 180°
// within the sweep.
func (b *Bode) Phase180Freq() (f float64, ok bool) {
	if len(b.Freq) == 0 {
		return 0, false
	}
	ref := b.PhaseDeg[0]
	for k := 1; k < len(b.Freq); k++ {
		lag0 := ref - b.PhaseDeg[k-1]
		lag1 := ref - b.PhaseDeg[k]
		if lag0 < 180 && lag1 >= 180 {
			t := (180 - lag0) / (lag1 - lag0)
			lf := math.Log10(b.Freq[k-1]) + t*(math.Log10(b.Freq[k])-math.Log10(b.Freq[k-1]))
			return math.Pow(10, lf), true
		}
	}
	return 0, false
}

// StableUnityGainFreq returns the usable unity-gain frequency: the 0 dB
// crossing if the phase lag there is below 180°, otherwise the (lower)
// frequency at which the lag reaches 180°. The returned margin is
// 180° − lag at that frequency (0 when bandwidth-limited by the lag).
func (b *Bode) StableUnityGainFreq() (f, pm float64, ok bool) {
	ugf, okU := b.UnityGainFreq()
	if !okU {
		return 0, 0, false
	}
	f180, ok180 := b.Phase180Freq()
	if ok180 && f180 < ugf {
		return f180, 0, true
	}
	lag := b.PhaseDeg[0] - b.PhaseAt(ugf)
	return ugf, 180 - lag, true
}

// FourierCoeff returns the complex Fourier coefficient of waveform x(t) at
// harmonic k of fundamental f0, computed by trapezoidal integration over the
// last whole number of periods contained in [t0, t_end]:
//
//	c_k = (2/T_window)·∫ x(t)·exp(-j·2π·k·f0·t) dt
//
// |c_k| is the amplitude of the k-th harmonic (k ≥ 1); for k = 0 the
// returned value is the DC average (not doubled).
func FourierCoeff(t, x []float64, f0 float64, k int) complex128 {
	if len(t) < 2 || len(t) != len(x) || f0 <= 0 {
		return 0
	}
	period := 1 / f0
	tEnd := t[len(t)-1]
	nPeriods := math.Floor((tEnd - t[0]) / period)
	if nPeriods < 1 {
		return 0
	}
	t0 := tEnd - nPeriods*period
	var sum complex128
	var tw float64
	w := 2 * math.Pi * float64(k) * f0
	// The phasor at each sample is shared by the two trapezoid intervals
	// around it, so compute it once per sample (one Sincos instead of two
	// complex exponentials per interval — this loop runs over every stored
	// timepoint of a transient and sits on the evaluation hot path).
	havePrev := false
	var fPrev complex128
	for i := 1; i < len(t); i++ {
		dt := t[i] - t[i-1]
		// Include the interval whose start is within half a step of the
		// window start, so floating-point noise cannot drop or duplicate a
		// boundary sample.
		if t[i-1] < t0-0.5*dt {
			havePrev = false
			continue
		}
		if !havePrev {
			s1, c1 := math.Sincos(-w * t[i-1])
			fPrev = complex(x[i-1], 0) * complex(c1, s1)
		}
		s2, c2 := math.Sincos(-w * t[i])
		f2 := complex(x[i], 0) * complex(c2, s2)
		sum += (fPrev + f2) / 2 * complex(dt, 0)
		tw += dt
		fPrev = f2
		havePrev = true
	}
	if tw == 0 {
		return 0
	}
	c := sum / complex(tw, 0)
	if k != 0 {
		c *= 2
	}
	return c
}

// AveragePower returns the mean of v(t)·i(t) over the last whole number of
// periods of f0 (or the whole record if f0 <= 0).
func AveragePower(t, v, i []float64, f0 float64) float64 {
	if len(t) < 2 {
		return 0
	}
	t0 := t[0]
	if f0 > 0 {
		period := 1 / f0
		tEnd := t[len(t)-1]
		if n := math.Floor((tEnd - t[0]) / period); n >= 1 {
			t0 = tEnd - n*period
		}
	}
	var sum, tw float64
	for k := 1; k < len(t); k++ {
		dt := t[k] - t[k-1]
		if t[k-1] < t0-0.5*dt {
			continue
		}
		p1 := v[k-1] * i[k-1]
		p2 := v[k] * i[k]
		sum += (p1 + p2) / 2 * dt
		tw += dt
	}
	if tw == 0 {
		return 0
	}
	return sum / tw
}
