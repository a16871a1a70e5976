// Command easyboload is the throughput harness for the easybod serving
// path: it drives N concurrent sessions of ask/tell round trips for a
// fixed duration and reports asks/sec, tells/sec, latency quantiles, shed
// and wait counts, and the size of the tell responses
// (flat in session length) as a human summary on stderr. It is a load
// tool, not a performance gate: what a number means for a change is
// decided by the repo benchmark (benchmark/README.md).
//
// With no -serve it boots a daemon in-process (the CI mode: hermetic, no
// ports to coordinate); point -serve at a running easybod (or a cluster
// node) to load-test a real deployment:
//
//	easyboload -sessions 16 -duration 30s
//	easyboload -serve http://127.0.0.1:7823 -sessions 64 -workers 2
//
// Each session takes its own seed. -max-inflight-evals/-queue-depth throttle
// the in-process daemon so shed/backpressure behavior is measured too. -fsync
// gives the in-process daemon a real write-ahead log, making the durable
// serving path (group commit included) measurable without a separate
// easybod process.
//
// The -assert-* flags turn a run into a pass/fail smoke gate for CI:
// exit status 1 when the run violates any bound.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"easybo/internal/loadgen"
	"easybo/internal/serve"
	"easybo/internal/serve/wal"
)

func main() {
	var (
		serveURL  = flag.String("serve", "", "easybod base URL to load (empty: boot a daemon in-process)")
		sessions  = flag.Int("sessions", 8, "concurrent sessions")
		workers   = flag.Int("workers", 1, "worker goroutines per session")
		duration  = flag.Duration("duration", 10*time.Second, "run length")
		dim       = flag.Int("dim", 4, "design-space dimensionality")
		initPts   = flag.Int("init-points", 32, "Latin-hypercube design size per session")
		evalDelay = flag.Duration("eval-delay", 0, "simulated per-evaluation cost")
		prefix    = flag.String("session-prefix", "loadgen", "session id prefix (namespace concurrent runs)")

		maxEvals = flag.Int("max-inflight-evals", 0, "in-process daemon: shed asks past this many outstanding proposals (0: unlimited)")
		queueDep = flag.Int("queue-depth", 0, "in-process daemon: shed asks past this many concurrent ask requests (0: unlimited)")
		fsyncPol = flag.String("fsync", "", "in-process daemon: WAL fsync policy (always|interval|off; empty: the WAL on an in-memory filesystem)")
		fsyncIvl = flag.Duration("fsync-interval", 100*time.Millisecond, "in-process daemon: background fsync cadence for -fsync interval")
		dataDir  = flag.String("data-dir", "", "in-process daemon: WAL directory for -fsync runs (empty: a temp dir, removed at exit)")

		quiet = flag.Bool("quiet", false, "suppress the human summary on stderr")

		maxErrors   = flag.Int64("assert-max-errors", -1, "fail when errors exceed this (-1: off)")
		maxP99      = flag.Duration("assert-max-p99", 0, "fail when ask p99 exceeds this (0: off)")
		minAsks     = flag.Int64("assert-min-asks", -1, "fail when successful asks fall below this (-1: off)")
		assertSheds = flag.Bool("assert-sheds", false, "fail unless the run absorbed at least one 429 shed")
		maxTellResp = flag.Int64("assert-max-tell-bytes", 0, "fail when any tell response body exceeds this many bytes (0: off)")
	)
	flag.Parse()

	base := *serveURL
	if base == "" {
		// Hermetic mode: a daemon on a loopback ephemeral port. Real HTTP
		// (not a stub) so the run measures the full serving path — mux,
		// admission gate, JSON codec, session actors. -fsync swaps the
		// in-memory filesystem under the WAL for a directory on disk, making
		// the durable serving path measurable without a separate easybod
		// process.
		var store *wal.Store
		var err error
		if *fsyncPol == "" {
			store, err = wal.OpenMem(wal.NewMemFS(), wal.Options{})
		} else {
			dir := *dataDir
			if dir == "" {
				tmp, err := os.MkdirTemp("", "easyboload-wal-*")
				if err != nil {
					fatal(err)
				}
				defer os.RemoveAll(tmp)
				dir = tmp
			}
			store, err = wal.Open(dir, wal.Options{
				Fsync:    wal.Policy(*fsyncPol),
				Interval: *fsyncIvl,
			})
		}
		if err != nil {
			fatal(err)
		}
		sv := serve.NewServerWith(serve.ServerOptions{
			Store:            store,
			MaxInflightEvals: *maxEvals,
			QueueDepth:       *queueDep,
		})
		if _, err := sv.Recover(); err != nil {
			fatal(err)
		}
		defer sv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		hs := &http.Server{Handler: sv, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			_ = hs.Serve(ln) // listener closed at exit; the shutdown error is expected
		}()
		defer func() {
			_ = hs.Close() // best-effort teardown on exit
		}()
		base = "http://" + ln.Addr().String()
		if !*quiet {
			durability := "in-memory"
			if *fsyncPol != "" {
				durability = "fsync=" + *fsyncPol
			}
			fmt.Fprintf(os.Stderr, "easyboload: in-process daemon on %s (%s max-inflight-evals=%d queue-depth=%d)\n",
				base, durability, *maxEvals, *queueDep)
		}
	}

	sum, err := loadgen.Run(context.Background(), loadgen.Options{
		BaseURL:           base,
		Sessions:          *sessions,
		WorkersPerSession: *workers,
		Duration:          *duration,
		Dim:               *dim,
		InitPoints:        *initPts,
		EvalDelay:         *evalDelay,
		SessionPrefix:     *prefix,
	})
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		fmt.Fprintf(os.Stderr, "easyboload: %d sessions x %d workers for %s\n", sum.Sessions, sum.Workers/sum.Sessions, duration)
		fmt.Fprintf(os.Stderr, "easyboload: asks %d (%.1f/s)  tells %d (%.1f/s)  errors %d  shed %d  waits %d\n",
			sum.Asks, sum.AsksPerSec, sum.Tells, sum.TellsPerSec, sum.Errors, sum.Shed, sum.Waits)
		fmt.Fprintf(os.Stderr, "easyboload: ask latency p50 %s  p95 %s  p99 %s  max %s\n",
			time.Duration(sum.AskLatency.P50), time.Duration(sum.AskLatency.P95),
			time.Duration(sum.AskLatency.P99), time.Duration(sum.AskLatency.Max))
		fmt.Fprintf(os.Stderr, "easyboload: tell latency p50 %s  p95 %s  p99 %s  max %s\n",
			time.Duration(sum.TellLatency.P50), time.Duration(sum.TellLatency.P95),
			time.Duration(sum.TellLatency.P99), time.Duration(sum.TellLatency.Max))
		fmt.Fprintf(os.Stderr, "easyboload: tell response mean %.0f B  max %d B\n", sum.TellRespBytes, sum.TellRespBytesMax)
	}

	failed := false
	check := func(bad bool, format string, args ...any) {
		if bad {
			failed = true
			fmt.Fprintf(os.Stderr, "easyboload: ASSERT FAILED: "+format+"\n", args...)
		}
	}
	check(*maxErrors >= 0 && sum.Errors > *maxErrors, "errors %d > %d", sum.Errors, *maxErrors)
	check(*maxP99 > 0 && sum.AskLatency.P99 > int64(*maxP99), "ask p99 %s > %s", time.Duration(sum.AskLatency.P99), *maxP99)
	check(*minAsks >= 0 && sum.Asks < *minAsks, "asks %d < %d", sum.Asks, *minAsks)
	check(*assertSheds && sum.Shed == 0, "expected at least one 429 shed, saw none")
	check(*maxTellResp > 0 && sum.TellRespBytesMax > *maxTellResp, "largest tell response %d B > %d B", sum.TellRespBytesMax, *maxTellResp)
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "easyboload:", err)
	os.Exit(1)
}
