//go:build race

package serve_test

// raceEnabled reports that this test binary was built with -race. The
// checkpoint tests compare single-goroutine replays bit for bit; the
// detector makes the feature-space surrogate behind them some fifteen times
// slower and has nothing to find there, so they thin out their cut indices.
const raceEnabled = true
