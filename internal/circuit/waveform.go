package circuit

import "math"

// Waveform describes the time-dependent value of an independent source.
type Waveform interface {
	// At returns the source value at time t (t = 0 is used for DC analysis).
	At(t float64) float64
}

// DC is a constant waveform.
type DC float64

// At returns the constant value.
func (d DC) At(float64) float64 { return float64(d) }

// Sine is the SPICE SIN source: Offset + Amp·sin(2π·Freq·(t-Delay) + Phase)
// for t >= Delay, Offset before that.
type Sine struct {
	Offset float64
	Amp    float64
	Freq   float64
	Delay  float64
	Phase  float64 // radians
}

// At evaluates the sine waveform.
func (s Sine) At(t float64) float64 {
	if t < s.Delay {
		return s.Offset + s.Amp*math.Sin(s.Phase)
	}
	return s.Offset + s.Amp*math.Sin(2*math.Pi*s.Freq*(t-s.Delay)+s.Phase)
}

// Pulse is the SPICE PULSE source: a periodic trapezoid between V1 and V2.
type Pulse struct {
	V1, V2 float64
	Delay  float64
	Rise   float64
	Fall   float64
	Width  float64 // time at V2 (after the rise edge)
	Period float64
}

// At evaluates the pulse waveform.
func (p Pulse) At(t float64) float64 {
	if t < p.Delay {
		return p.V1
	}
	tau := t - p.Delay
	if p.Period > 0 {
		tau = math.Mod(tau, p.Period)
	}
	switch {
	case tau < p.Rise:
		if p.Rise == 0 {
			return p.V2
		}
		return p.V1 + (p.V2-p.V1)*tau/p.Rise
	case tau < p.Rise+p.Width:
		return p.V2
	case tau < p.Rise+p.Width+p.Fall:
		if p.Fall == 0 {
			return p.V1
		}
		return p.V2 + (p.V1-p.V2)*(tau-p.Rise-p.Width)/p.Fall
	default:
		return p.V1
	}
}
