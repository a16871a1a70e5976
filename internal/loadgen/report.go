package loadgen

// BenchResult mirrors cmd/benchjson's Result JSON shape, so a load run's
// output merges into the committed BENCH_*.json baselines and cmd/benchcmp
// gates serving-path throughput and latency exactly like kernel
// benchmarks. Duplicated rather than imported: benchjson is a main
// package, and the contract is the JSON encoding, not the Go type.
type BenchResult struct {
	Name        string             `json:"name"`
	Package     string             `json:"package"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

const benchPackage = "easybo/internal/loadgen"

// BenchResults renders the summary as benchjson benchmarks. ns_per_op is
// the gated axis in every row — mean time per ask (or tell) for the
// throughput rows, the p99 itself for the latency rows — so benchcmp's
// ratio test reads naturally ("2× slower fails the gate") without learning
// new semantics. Everything else rides in metrics for humans and
// dashboards.
func (s *Summary) BenchResults() []BenchResult { return s.BenchResultsNamed("") }

// BenchResultsNamed is BenchResults with a name suffix appended to every
// row ("Durable" → ServeTellThroughputDurable, …). benchjson's merge keeps
// the fastest result per name and benchcmp compares by name, so distinct
// workloads — the in-memory leg and the fsync=always leg — must publish
// under distinct names or the slower one silently vanishes.
func (s *Summary) BenchResultsNamed(suffix string) []BenchResult {
	askNs := 0.0
	if s.AsksPerSec > 0 {
		askNs = 1e9 / s.AsksPerSec
	}
	tellNs := 0.0
	if s.TellsPerSec > 0 {
		tellNs = 1e9 / s.TellsPerSec
	}
	return []BenchResult{
		{
			Name:       "ServeAskThroughput" + suffix,
			Package:    benchPackage,
			Iterations: s.Asks,
			NsPerOp:    askNs,
			Metrics: map[string]float64{
				"asks_per_sec":   s.AsksPerSec,
				"tells_per_sec":  s.TellsPerSec,
				"sessions":       float64(s.Sessions),
				"workers":        float64(s.Workers),
				"errors":         float64(s.Errors),
				"shed":           float64(s.Shed),
				"cache_hits":     float64(s.CachedHits),
				"inflight_joins": float64(s.Joins),
			},
		},
		{
			Name:       "ServeTellThroughput" + suffix,
			Package:    benchPackage,
			Iterations: s.Tells,
			NsPerOp:    tellNs,
			Metrics: map[string]float64{
				"tells_per_sec":       s.TellsPerSec,
				"asks_per_sec":        s.AsksPerSec,
				"sessions":            float64(s.Sessions),
				"workers":             float64(s.Workers),
				"errors":              float64(s.Errors),
				"shed":                float64(s.Shed),
				"tell_resp_bytes":     s.TellRespBytes,
				"tell_resp_bytes_max": float64(s.TellRespBytesMax),
			},
		},
		{
			Name:       "ServeAskLatencyP99" + suffix,
			Package:    benchPackage,
			Iterations: s.Asks,
			NsPerOp:    float64(s.AskLatency.P99),
			Metrics: map[string]float64{
				"p50_ns": float64(s.AskLatency.P50),
				"p95_ns": float64(s.AskLatency.P95),
				"max_ns": float64(s.AskLatency.Max),
			},
		},
		{
			Name:       "ServeTellLatencyP99" + suffix,
			Package:    benchPackage,
			Iterations: s.Tells,
			NsPerOp:    float64(s.TellLatency.P99),
			Metrics: map[string]float64{
				"p50_ns": float64(s.TellLatency.P50),
				"p95_ns": float64(s.TellLatency.P95),
				"max_ns": float64(s.TellLatency.Max),
			},
		},
	}
}
