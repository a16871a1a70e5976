package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"easybo/internal/loadgen"
	"easybo/internal/objective"
	"easybo/internal/serve"
	"easybo/internal/serve/wal"
)

// serveSpec describes one daemon workload: one session driven by one client
// over one connection. The box has two vCPUs; the client and the daemon's
// side of a request are already two threads of work.
type serveSpec struct {
	name                string
	config              func(seed int64) serve.SessionConfig
	objective           func(x []float64) float64
	design, trips, busy int
	restarts            int
}

// serveWalSpec isolates the serving envelope: init_points is so large that
// every ask is a design lookup and no model is ever fit, and without a
// testbench label the eval cache is off. What remains is HTTP decode and
// encode, the actor mailbox, the ledger, the WAL append and the group-commit
// wait — and the tell response, which is the full Status and grows with the
// history.
func serveWalSpec(sz sizes) serveSpec {
	const dim = 4
	lo, hi := make([]float64, dim), make([]float64, dim)
	for i := range hi {
		hi[i] = 1
	}
	return serveSpec{
		name: "serve-wal",
		config: func(seed int64) serve.SessionConfig {
			return serve.SessionConfig{Lo: lo, Hi: hi, Seed: seed, InitPoints: 100000}
		},
		objective: func(x []float64) float64 {
			s := 10.0
			for _, v := range x {
				s -= (v - 0.3) * (v - 0.3)
			}
			return s
		},
		trips: sz.walTrips, busy: 1, restarts: sz.walRestarts,
	}
}

// serveModelSpec is the whole stack at once: HTTP, actor, WAL and a model
// behind every ask, on the feature-space surrogate (flat in n) rather than
// bo-opamp's exact GP, with the daemon's default refit cadence.
func serveModelSpec(sz sizes) serveSpec {
	h6 := objective.Hartmann6()
	return serveSpec{
		name: "serve-model",
		config: func(seed int64) serve.SessionConfig {
			return serve.SessionConfig{Lo: h6.Lo, Hi: h6.Hi, Seed: seed, InitPoints: sz.modelDesign, Surrogate: "features"}
		},
		objective: h6.Eval,
		design:    sz.modelDesign, trips: sz.modelTrips, busy: sz.modelBusy, restarts: sz.modelRestarts,
	}
}

// daemon is an in-process easybod: serve.Server on a real wal.Store with
// fsync always, behind a loopback listener.
type daemon struct {
	sv     *serve.Server
	hs     *http.Server
	served chan struct{}
	base   string
	store  *tracedStore // nil untraced
	front  *tracedHandler
}

func openServer(dir string, rec *recorder) (*serve.Server, *tracedStore, error) {
	ws, err := wal.Open(dir, wal.Options{Fsync: wal.PolicyAlways})
	if err != nil {
		return nil, nil, err
	}
	var store serve.Store = ws
	var ts *tracedStore
	if rec != nil {
		ts = &tracedStore{Store: ws, rec: rec}
		store = ts
	}
	sv := serve.NewServerWith(serve.ServerOptions{Store: store})
	rep, err := sv.Recover()
	if err == nil && len(rep.Quarantined) > 0 {
		err = fmt.Errorf("recovery quarantined %v", rep.Quarantined)
	}
	if err == nil && !sv.Ready() {
		err = errors.New("server not ready after Recover")
	}
	if err != nil {
		sv.Close()
		return nil, nil, err
	}
	return sv, ts, nil
}

func boot(dir string, rec *recorder) (*daemon, error) {
	sv, ts, err := openServer(dir, rec)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.Close()
		return nil, err
	}
	d := &daemon{sv: sv, store: ts, served: make(chan struct{}), base: "http://" + ln.Addr().String()}
	var h http.Handler = sv
	if rec != nil {
		d.front = &tracedHandler{next: sv, rec: rec, bytes: map[routeKey][]int{}}
		h = d.front
	}
	d.hs = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return d, nil
}

// stop shuts the daemon down in durability order and waits for its
// goroutines: HTTP first, then the session actors and the store.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.served
	d.sv.Close()
	return err
}

const sessionID = "s0"

// trackOf maps a session id to its trace track: 0 for the workload's
// session, the same track as its client.
func trackOf(id string) int {
	if id == sessionID {
		return 0
	}
	return 255
}

// serveClient is one closed-loop worker: it owns one session and keeps busy
// proposals outstanding.
type serveClient struct {
	cl      *loadgen.Client
	spec    serveSpec
	cfg     serve.SessionConfig
	rec     *recorder
	pending []serve.Ask
	digest  digester
	best    float64
	shed    int64
}

func (w *serveClient) path(verb string) string {
	return "/sessions/" + sessionID + verb
}

func (w *serveClient) ask(ctx context.Context) error {
	end := w.rec.begin(0, "serve.client_ask")
	var a serve.Ask
	shed, _, err := w.cl.Call(ctx, http.MethodPost, w.path("/ask"), nil, &a)
	end()
	w.shed += shed
	if err != nil {
		return err
	}
	if a.Status != serve.AskOK {
		return fmt.Errorf("%s: ask answered %q", w.spec.name, a.Status)
	}
	if !inBox(a.X, w.cfg.Lo, w.cfg.Hi) {
		return fmt.Errorf("%s: proposal %v outside the box", w.spec.name, a.X)
	}
	w.pending = append(w.pending, a)
	return nil
}

// tellOldest evaluates the oldest outstanding proposal and tells it. The
// response (the full Status) is read but not decoded, as a worker that only
// needs the acknowledgement would.
func (w *serveClient) tellOldest(ctx context.Context) error {
	a := w.pending[0]
	w.pending = w.pending[1:]
	y := w.spec.objective(a.X)
	w.digest.told(a.X, y)
	if y > w.best {
		w.best = y
	}
	end := w.rec.begin(0, "serve.client_tell")
	shed, _, err := w.cl.Call(ctx, http.MethodPost, w.path("/tell"), serve.Tell{ProposalID: &a.ProposalID, Y: y}, nil)
	end()
	w.shed += shed
	return err
}

// serveBlock boots a fresh daemon on a fresh store, runs the workload's
// fixed work, then restarts the daemon on the same directory and checks that
// the session came back byte for byte.
func serveBlock(spec serveSpec, seed int64, tmp string, rec *recorder) (b *block, err error) {
	b = newBlock()
	dir, err := os.MkdirTemp(tmp, "wal-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	runtime.GC()

	sw := b.stopwatch()
	d, err := boot(dir, rec)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop() // already failing; the first error is the one reported
		}
	}()
	sw.lap("setup")

	hc := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}
	defer hc.CloseIdleConnections()
	cl := &loadgen.Client{HC: hc, Base: d.base, MaxRetries: 3}

	w := &serveClient{cl: cl, spec: spec, cfg: spec.config(seed), rec: rec, digest: newDigester(), best: math.Inf(-1)}
	rec.setRT(0, -1)
	create := struct {
		ID string `json:"id"`
		serve.SessionConfig
	}{sessionID, w.cfg}
	endCreate := rec.begin(0, "serve.client_create")
	_, _, err = cl.Call(ctx, http.MethodPost, "/sessions", create, nil)
	endCreate()
	if err != nil {
		return nil, err
	}
	sw.lap("setup")
	for i := 0; i < spec.design; i++ {
		if err := w.ask(ctx); err != nil {
			return nil, err
		}
		if err := w.tellOldest(ctx); err != nil {
			return nil, err
		}
		sw.lap("setup")
	}
	for len(w.pending) < spec.busy {
		if err := w.ask(ctx); err != nil {
			return nil, err
		}
		sw.lap("setup")
	}

	// Timed phase: the closed loop "tell the oldest, ask one more".
	before := allocNow()
	sw = b.stopwatch() // reading the allocator stops the world
	b.attempted = spec.trips
	for k := 0; k < spec.trips; k++ {
		rec.setRT(0, k)
		endRT := rec.begin(0, "serve.roundtrip")
		err := w.tellOldest(ctx)
		if err == nil {
			err = w.ask(ctx)
		}
		endRT()
		if err != nil {
			// Failed round trips are reported, not hidden behind the error.
			b.failed = spec.trips - k
			b.counts["errors"] = float64(b.failed)
			return b, err
		}
		sw.lap("rt")
	}
	b.allocated(before, allocNow(), spec.trips)
	b.counts["shed"] = float64(w.shed)

	// One status read beside the writes; the body is what a restart must
	// reproduce.
	end := rec.begin(0, "serve.status_get")
	body, err := getBody(hc, d.base+w.path(""))
	end()
	if err != nil {
		return nil, err
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	want := spec.design + spec.trips
	if st.Observations != want || st.BestY == nil || math.Float64bits(*st.BestY) != math.Float64bits(w.best) {
		return nil, fmt.Errorf("%s: session %s reports %d observations (want %d) and best %v (client saw %v)",
			spec.name, st.ID, st.Observations, want, st.BestY, w.best)
	}
	b.digest, b.bestY = w.digest.sum(), w.best
	if rec != nil {
		d.report(b, dir, spec)
	}

	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}

	// Restart repetitions: reopen the same directory, recover until ready,
	// and compare the session with what it was before shutdown.
	for r := 0; r < spec.restarts; r++ {
		t := time.Now()
		sv, ts, err := openServer(dir, rec)
		if err != nil {
			return nil, err
		}
		b.add("recover", time.Since(t).Seconds())
		err = checkRestart(sv, body)
		if ts != nil {
			b.counts["recover_sessions"] = float64(sv.SessionCount())
		}
		sv.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: restart %d: %w", spec.name, r, err)
		}
	}
	return b, nil
}

func getBody(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func checkRestart(sv *serve.Server, want []byte) error {
	if n := sv.SessionCount(); n != 1 {
		return fmt.Errorf("%d sessions recovered, want 1", n)
	}
	w := httptest.NewRecorder()
	sv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/sessions/"+sessionID, nil))
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
		return fmt.Errorf("session %s differs after restart (HTTP %d, %d bytes, want %d)",
			sessionID, w.Code, w.Body.Len(), len(want))
	}
	return nil
}

// report folds what the decorators counted into the traced block.
func (d *daemon) report(b *block, dir string, spec serveSpec) {
	events := float64(d.store.appends.Load())
	b.counts["wal_appends"] = events
	b.counts["wal_compactions"] = float64(d.store.compactions.Load())
	if syncs, records := d.store.SyncStats(); syncs > 0 {
		b.scalars["records_per_sync"] = float64(records) / float64(syncs)
	}
	var size int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, ierr := e.Info(); ierr == nil {
				size += info.Size()
			}
		}
		return nil // a segment pruned by a compaction mid-walk is not an error
	})
	if events > 0 {
		b.scalars["bytes_per_event"] = float64(size) / events
	}
	d.front.mu.Lock()
	defer d.front.mu.Unlock()
	for _, route := range []string{"ask", "tell"} {
		sizes := d.front.bytes[routeKey{route, 0}]
		if len(sizes) == 0 {
			continue
		}
		var total int
		for _, n := range sizes {
			total += n
		}
		b.scalars[route+"_resp_kb"] = float64(total) / float64(len(sizes)) / 1024
		if route == "tell" && len(sizes) > spec.design {
			// The last timed tell against the first.
			b.scalars["tell_resp_growth"] = float64(sizes[len(sizes)-1]) / float64(sizes[spec.design])
		}
	}
}

// tracedHandler times serve.Server's ServeHTTP per route and counts the
// response bytes, which separates handler time from client time.
type tracedHandler struct {
	next http.Handler
	rec  *recorder

	mu    sync.Mutex
	bytes map[routeKey][]int // response sizes in arrival order
}

type routeKey struct {
	route string
	track int
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route, track := "other", 255
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case len(parts) == 1 && r.Method == http.MethodPost:
		route = "create"
	case len(parts) == 2 && r.Method == http.MethodGet:
		route, track = "status", trackOf(parts[1])
	case len(parts) == 3:
		route, track = parts[2], trackOf(parts[1])
	}
	cw := &countingWriter{ResponseWriter: w}
	end := h.rec.begin(track, "serve.handler_"+route)
	h.next.ServeHTTP(cw, r)
	end()
	h.mu.Lock()
	h.bytes[routeKey{route, track}] = append(h.bytes[routeKey{route, track}], cw.n)
	h.mu.Unlock()
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// tracedStore decorates wal.Store. The embedded *wal.Store forwards List,
// Quarantine, Remove, Close and SyncStats, which serve.Server finds by
// interface assertion.
type tracedStore struct {
	*wal.Store
	rec         *recorder
	appends     atomic.Int64
	compactions atomic.Int64
}

func (s *tracedStore) Begin(id string, cfg serve.SessionConfig) (serve.SessionLog, error) {
	l, err := s.Store.Begin(id, cfg)
	if err != nil {
		return nil, err
	}
	return &tracedLog{SessionLog: l, st: s, track: trackOf(id)}, nil
}

func (s *tracedStore) LoadSession(id string) (serve.PersistedSession, error) {
	track := trackOf(id)
	end := s.rec.begin(track, "wal.load_session")
	ps, err := s.Store.LoadSession(id)
	end()
	if err == nil && ps.Log != nil {
		ps.Log = &tracedLog{SessionLog: ps.Log, st: s, track: track}
	}
	return ps, err
}

type tracedLog struct {
	serve.SessionLog
	st    *tracedStore
	track int
}

func (l *tracedLog) Append(ev serve.Event) (uint64, error) {
	end := l.st.rec.begin(l.track, "wal.append")
	seq, err := l.SessionLog.Append(ev)
	end()
	l.st.appends.Add(1)
	return seq, err
}

func (l *tracedLog) WaitDurable(seq uint64) error {
	end := l.st.rec.begin(l.track, "wal.wait_durable")
	err := l.SessionLog.WaitDurable(seq)
	end()
	return err
}

// BeginCompact times the commit closure, which carries the encode and the
// I/O and runs off the session actor — beside the requests, so its span
// stands alone on a track of its own.
func (l *tracedLog) BeginCompact() (func(serve.Snapshot) error, error) {
	commit, err := l.SessionLog.BeginCompact()
	if err != nil {
		return nil, err
	}
	return func(snap serve.Snapshot) error {
		start := time.Now()
		err := commit(snap)
		l.st.rec.add(100+l.track, "wal.compact_commit", start, time.Now())
		l.st.compactions.Add(1)
		return err
	}, nil
}
