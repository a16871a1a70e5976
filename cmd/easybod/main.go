// Command easybod is the EasyBO optimization daemon: a long-lived HTTP
// service hosting many concurrent ask/tell optimization sessions. External
// workers (simulator farms, sizing pipelines, cmd/easybo -serve) create a
// session, ask for design points, evaluate them wherever and however long
// they like, and tell the results back — out of order, from many machines.
//
// Usage:
//
//	easybod -addr :7823 -data-dir /var/lib/easybod -fsync always
//
// With -data-dir set, every session is backed by a per-session write-ahead
// log: each ask/tell is durably appended before it is applied, and a
// restarted daemon recovers all sessions by replaying their logs — from
// each log's last checkpoint, with the proposals still in flight re-derived
// and verified bit-for-bit, or from its first event with every ask
// re-derived when there is no checkpoint or it does not check out;
// divergence or corruption quarantines the session instead of resurrecting
// a wrong state. /healthz answers while recovery replays; /readyz flips to
// 200 only when sessions are being served.
//
//	easybod -verify /var/lib/easybod
//
// audits a data directory offline: every session replayed from its first
// event, read-only, one line per session; exit 1 on any divergence, 2 when
// nothing diverged but a log holds asks of an older build's proposer
// generation, which this build replays as recorded and cannot re-derive.
//
// A minimal round trip:
//
//	curl -s -X POST localhost:7823/sessions -d '{"id":"demo","lo":[0,0],"hi":[1,1],"init_points":4,"max_evals":16}'
//	curl -s -X POST localhost:7823/sessions/demo/ask -d '{}'
//	curl -s -X POST localhost:7823/sessions/demo/tell -d '{"proposal_id":0,"y":-0.42}'
//	curl -s localhost:7823/sessions/demo
//	curl -s localhost:7823/sessions/demo/snapshot > demo.json
//	curl -s -X POST localhost:7823/sessions/restore --data-binary @demo.json
//
// The restore refuses a snapshot larger than serve.MaxBodyBytes (8 MiB,
// about 6,000 evaluations at d = 32) with 413. A -data-dir daemon needs no
// snapshot to survive a restart: it replays each session from its log.
//
// On SIGINT/SIGTERM the daemon shuts down in durability order: stop
// accepting HTTP and drain in-flight requests, then drain every session
// actor, then flush and close the write-ahead logs — so a tell accepted
// before the signal is on stable storage before the process exits.
//
// With -peers, several daemons form one fault-tolerant cluster over one
// shared -data-dir (a shared filesystem; -peers without -data-dir exits 2):
// every session lives on the node a consistent-hash ring assigns it, any
// node accepts any request and transparently proxies to the owner, the loss
// of a node is healed by a survivor replaying its sessions' write-ahead
// logs, and a returning owner gets them back the same way. See DESIGN.md §7.
//
//	easybod -addr :7823 -node-id a -peers a=http://h1:7823,b=http://h2:7823,c=http://h3:7823 -data-dir /mnt/shared/easybod
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"easybo/internal/cluster"
	"easybo/internal/core"
	"easybo/internal/serve"
	"easybo/internal/serve/wal"
	surrogatepkg "easybo/internal/surrogate"
)

func main() {
	var (
		addr      = flag.String("addr", ":7823", "listen address")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof profiling endpoints on this address (empty: disabled; bind loopback, the endpoints are unauthenticated)")
		grace     = flag.Duration("grace", 5*time.Second, "shutdown grace period for in-flight requests")
		quiet     = flag.Bool("quiet", false, "suppress the startup banner")
		surrogate = flag.String("surrogate", "", "default surrogate backend for sessions that omit one: auto | exact | features")

		dataDir       = flag.String("data-dir", "", "durable session store directory (empty: sessions are in-memory and die with the process); required with -peers, where every node of the cluster opens the same shared directory")
		verifyDir     = flag.String("verify", "", "audit this data directory offline and exit: replay every session from its first event, re-derive every ask, recompute every checkpoint; read-only; exit 1 on any divergence, 2 when nothing diverged but an older build's asks could only be taken as recorded")
		fsyncPolicy   = flag.String("fsync", "interval", "write-ahead log fsync policy: always | interval | off")
		fsyncInterval = flag.Duration("fsync-interval", 100*time.Millisecond, "background fsync cadence for -fsync interval")
		segmentBytes  = flag.Int64("segment-bytes", 1<<20, "rotate write-ahead log segments past this size")
		compactEvery  = flag.Int("compact-every", 256, "minimum events between snapshot compactions; grows with snapshot size (<0 disables)")

		maxInflightEval = flag.Int("max-inflight-evals", 0, "shed asks with 429 while this many proposals are outstanding daemon-wide (0: unlimited)")
		queueDepth      = flag.Int("queue-depth", 0, "shed asks with 429 past this many concurrent ask requests (0: unlimited)")

		readHeaderTimeout = flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
		readTimeout       = flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout (whole-request bound)")
		idleTimeout       = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout (keep-alive reaper)")

		nodeID       = flag.String("node-id", "", "this node's cluster member id (required with -peers)")
		peers        = flag.String("peers", "", "cluster membership as comma-separated id=url pairs including this node (empty: single-node)")
		ringVersion  = flag.Uint64("ring-version", 1, "membership table version; every node of a cluster must agree")
		heartbeat    = flag.Duration("heartbeat", time.Second, "peer heartbeat probe cadence in cluster mode")
		suspectAfter = flag.Int("suspect-after", 3, "consecutive failed probes before a peer is routed around")
	)
	flag.Parse()

	if *verifyDir != "" {
		os.Exit(verify(*verifyDir, os.Stdout))
	}

	// Validate boot configuration before anything binds: a typo here must
	// not start a daemon that 400s every default session create.
	if _, err := surrogatepkg.ParseBackend(*surrogate); err != nil {
		fmt.Fprintln(os.Stderr, "easybod:", err)
		os.Exit(2)
	}
	policy, err := wal.ParsePolicy(*fsyncPolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "easybod:", err)
		os.Exit(2)
	}
	var table cluster.Table
	if *peers != "" {
		if *nodeID == "" {
			fmt.Fprintln(os.Stderr, "easybod: -peers requires -node-id")
			os.Exit(2)
		}
		// Failover and handoff both move a session by replaying its log
		// from the one data directory the cluster shares; an in-memory
		// node can do neither.
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "easybod: -peers requires -data-dir (the data directory every node of the cluster shares)")
			os.Exit(2)
		}
		table, err = cluster.ParsePeers(*peers, *ringVersion)
		if err != nil {
			fmt.Fprintln(os.Stderr, "easybod:", err)
			os.Exit(2)
		}
	}

	opts := wal.Options{
		Fsync:        policy,
		Interval:     *fsyncInterval,
		SegmentBytes: *segmentBytes,
		CompactEvery: *compactEvery,
	}
	var store *wal.Store
	if *dataDir != "" {
		store, err = wal.Open(*dataDir, opts)
	} else {
		store, err = wal.OpenMem(wal.NewMemFS(), opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "easybod:", err)
		os.Exit(1)
	}

	sv := serve.NewServerWith(serve.ServerOptions{
		DefaultSurrogate: *surrogate,
		Store:            store,
		NodeID:           *nodeID,
		MaxInflightEvals: *maxInflightEval,
		QueueDepth:       *queueDepth,
	})
	var handler http.Handler = sv
	var node *cluster.Node
	if *peers != "" {
		node, err = cluster.New(sv, cluster.Config{
			Self:         *nodeID,
			Table:        table,
			Heartbeat:    *heartbeat,
			SuspectAfter: *suspectAfter,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "easybod:", err)
			os.Exit(2)
		}
		handler = node
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// Opt-in profiling listener, separate from the serving address so the
	// pprof endpoints are never reachable through the public port (and a
	// profile download cannot occupy a serving connection). It lives for
	// the whole process — no graceful drain; it dies with the daemon.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ds := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: *readHeaderTimeout}
		go func() {
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "easybod: debug listener:", err)
			}
		}()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "easybod: pprof on http://%s/debug/pprof/ (keep this loopback-only)\n", *debugAddr)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listen immediately — /healthz is alive and /readyz reports 503 while
	// the recovery replay (below) runs, so orchestrators neither kill a
	// recovering daemon nor route session traffic to it early.
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	if !*quiet {
		fmt.Fprintf(os.Stderr, "easybod: serving ask/tell optimization sessions on %s\n", *addr)
		fmt.Fprintf(os.Stderr, "easybod: http timeouts: read-header=%s read=%s idle=%s\n",
			*readHeaderTimeout, *readTimeout, *idleTimeout)
		if *maxInflightEval > 0 || *queueDepth > 0 {
			fmt.Fprintf(os.Stderr, "easybod: admission control: max-inflight-evals=%d queue-depth=%d (0 = unlimited)\n",
				*maxInflightEval, *queueDepth)
		}
		if *dataDir != "" {
			fmt.Fprintf(os.Stderr, "easybod: durable store: %s (fsync=%s interval=%s segment=%dB compact-every=%d)\n",
				*dataDir, policy, *fsyncInterval, *segmentBytes, *compactEvery)
		} else {
			fmt.Fprintln(os.Stderr, "easybod: in-memory store: sessions will NOT survive a restart (set -data-dir)")
		}
		if node != nil {
			fmt.Fprintf(os.Stderr, "easybod: cluster node %s of %d (ring v%d, heartbeat=%s, suspect-after=%d)\n",
				*nodeID, len(table.Members), table.Version, *heartbeat, *suspectAfter)
		}
	}

	// In cluster mode a node replays only its share of the (shared) store;
	// the rest stays on disk for its owners. Sessions whose fence records
	// name another holder are skipped and forwarded until healed.
	var report serve.RecoveryReport
	if node != nil {
		report, err = sv.RecoverOwned(node.Owns)
	} else {
		report, err = sv.Recover()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "easybod: recovery failed:", err)
		//easybolint:ok errdrop exiting on the recovery error; the listener teardown is best-effort
		_ = hs.Close()
		sv.Close()
		os.Exit(1)
	}
	if !*quiet && (*dataDir != "" || len(report.Recovered) > 0 || len(report.Quarantined) > 0) {
		tot := sv.RecoveryTotals()
		fmt.Fprintf(os.Stderr, "easybod: recovery: %d session(s) replayed (%d from a checkpoint, %d in full, %d fell back to full; %d asks re-derived, %d of another proposer generation taken as recorded), %d quarantined\n",
			len(report.Recovered), tot.Checkpoint, tot.Full, tot.Fallback, tot.AsksRederived, tot.AsksUnverified, len(report.Quarantined))
		for _, rec := range report.Sessions {
			if rec.Mode == serve.RecoverFallback {
				fmt.Fprintf(os.Stderr, "easybod: recovered %s in full after its checkpoint failed: %s\n", rec.ID, rec.Reason)
			}
			if rec.AsksUnverified > 0 {
				fmt.Fprintf(os.Stderr, "easybod: recovered %s with %d asks of proposer generation %d (this build is generation %d) taken as recorded, not re-derived\n",
					rec.ID, rec.AsksUnverified, rec.UnverifiedGen, core.ProposerGeneration)
			}
		}
		for id, reason := range report.Quarantined {
			fmt.Fprintf(os.Stderr, "easybod: quarantined %s: %s\n", id, reason)
		}
	}
	if node != nil {
		node.Start(report)
	}

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "easybod:", err)
			if node != nil {
				node.Stop()
			}
			sv.Close()
			os.Exit(1)
		}
	case <-ctx.Done():
		if !*quiet {
			fmt.Fprintln(os.Stderr, "easybod: shutting down")
		}
		// Durability order: (1) stop accepting and drain in-flight HTTP so
		// no new events arrive, (2) drain session actors and flush/close
		// the write-ahead logs (sv.Close), so every acknowledged tell is
		// on stable storage before exit.
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			//easybolint:ok errdrop grace expired; force-close so sv.Close below still flushes the WAL
			_ = hs.Close()
		}
		// Heartbeats (and their heal handoffs) stop after HTTP drains and
		// before the actors flush: no transfer can race the WAL close.
		if node != nil {
			node.Stop()
		}
		sv.Close()
	}
}

// verify is the -verify mode: an offline audit of a data directory. Every
// session's record is replayed from its first event (serve.Audit) and one
// line per session says how that went. It reads only — no lock, no repair,
// no quarantine — so it can run against a copy, a backup, or the directory of
// a stopped daemon. It returns the process exit code: 0 when every session
// verified, 1 when one diverged, and 2 when none diverged but some hold asks
// of another proposer generation — an older build's log, which this build
// can replay but not re-derive: that is neither a divergence nor a pass.
func verify(dir string, out io.Writer) int {
	sessions, err := wal.ReadAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "easybod:", err)
		return 1
	}
	bad, unverifiable := 0, 0
	for _, ps := range sessions {
		rec, err := serve.Audit(ps)
		switch {
		case err != nil:
			bad++
			fmt.Fprintf(out, "%s: DIVERGED: %v\n", ps.ID, err)
		case rec.AsksUnverified > 0:
			unverifiable++
			fmt.Fprintf(out, "%s: UNVERIFIABLE (generation %d): %d events replay, %d asks re-derived, %d asks of proposer generation %d cannot be re-derived by this build (generation %d)\n",
				ps.ID, rec.UnverifiedGen, rec.Events, rec.AsksRederived, rec.AsksUnverified, rec.UnverifiedGen, core.ProposerGeneration)
		default:
			fmt.Fprintf(out, "%s: ok (%d events, %d asks re-derived)\n", ps.ID, rec.Events, rec.AsksRederived)
		}
	}
	fmt.Fprintf(out, "verified %d session(s), %d diverged, %d unverifiable\n", len(sessions)-bad-unverifiable, bad, unverifiable)
	switch {
	case bad > 0:
		return 1
	case unverifiable > 0:
		return 2
	}
	return 0
}
