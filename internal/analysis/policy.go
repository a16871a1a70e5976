package analysis

// This file is the single written-down form of the determinism boundary:
// which packages must replay bit-for-bit, and which analyzers police them.
// DESIGN.md §6 explains the boundary; this is the machine-readable copy.

// deterministicPkgs are the packages on the replay side of the boundary.
// Everything the ask/tell core re-derives during snapshot restore and WAL
// crash recovery flows through them, so any value they compute must be a
// pure function of (seed, config, tell order): no map-iteration order, no
// wall clock, no global randomness may reach an emitted ask, a serialized
// byte, or a float accumulation.
//
// Deliberately absent — the nondeterministic executor edge:
//
//	easybo/internal/sched      real goroutines, wall-clock worker timing
//	easybo/internal/harness    wall-clock experiment tables
//	easybo/internal/profiling  pprof plumbing
//	easybo/cmd/*               process edges (flags, HTTP, retry jitter);
//	                           cmd/easybod is still errdrop territory
//	easybo/examples/*          demo mains
//
// The boundary is crossed only through values recorded in the event log:
// a worker may take any amount of wall time to evaluate a point, but the
// (x, y) it tells the core is all the core ever sees.
var deterministicPkgs = map[string]bool{
	"easybo":                        true, // public Loop replays through the same AskTell core
	"easybo/internal/acq":           true,
	"easybo/internal/bo":            true,
	"easybo/internal/circuit":       true, // stamp planning and solves feed objective values
	"easybo/internal/core":          true,
	"easybo/internal/gp":            true,
	"easybo/internal/linalg":        true,
	"easybo/internal/linalg/sparse": true,
	"easybo/internal/objective":     true,
	"easybo/internal/optimize":      true,
	"easybo/internal/serve":         true,
	"easybo/internal/serve/wal":     true,
	"easybo/internal/stats":         true,
	"easybo/internal/surrogate":     true,
	"easybo/internal/testbench":     true,
}

// durabilityPkgs are where a silently dropped error can lose acknowledged
// data: the WAL itself, the daemon that owns shutdown ordering, and the
// cluster layer that moves fenced sessions between nodes. The cluster
// package is deliberately NOT in deterministicPkgs — heartbeats and retry
// pacing legitimately read the wall clock — but a dropped Fence or Adopt
// error there silently forks a session, so errdrop still applies.
var durabilityPkgs = map[string]bool{
	"easybo/internal/serve/wal": true,
	"easybo/internal/cluster":   true,
	"easybo/cmd/easybod":        true,
}

func isDeterministic(pkgPath string) bool { return deterministicPkgs[pkgPath] }

func isDurability(pkgPath string) bool { return durabilityPkgs[pkgPath] }
