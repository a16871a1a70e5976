//go:build race

package core

// raceEnabled reports that this test binary was built with -race. The counted
// quality pin (TestGradientRefineBeatsSimplex) is 960 acquisition
// maximizations whose concurrency the optimize package's own race legs cover;
// under the detector they take three minutes and have nothing to find, so
// the pin thins out to one case.
const raceEnabled = true
