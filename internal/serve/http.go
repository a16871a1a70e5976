package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Server is the HTTP face of the session service. It is an http.Handler;
// mount it at the root of an http.Server (cmd/easybod does).
//
// Routes (all request/response bodies are JSON):
//
//	POST   /sessions                 create a session from a SessionConfig
//	GET    /sessions                 list live and quarantined session ids
//	POST   /sessions/restore         restore a session from a Snapshot
//	GET    /sessions/{id}            session status (?since=N: records[N:] only)
//	DELETE /sessions/{id}            delete the session
//	POST   /sessions/{id}/ask        next proposal to evaluate
//	POST   /sessions/{id}/tell       report one evaluation outcome (answers a TellAck)
//	GET    /sessions/{id}/snapshot   restart-safe session snapshot
//	GET    /healthz                  liveness probe (alive during recovery)
//	GET    /readyz                   readiness probe (503 until Recover ran)
//	GET    /statz                    throughput stats: admission, WAL, recovery
//
// Routing is hand-rolled on the URL path because the module's go directive
// selects ServeMux semantics — method and wildcard patterns need go >= 1.22
// — and it cannot move past 1.21 alone: the nested benchmark/ module pins
// go 1.21 and builds against this one (ROADMAP, the [benchmark] unblocker).
type Server struct {
	reg   *registry
	store Store
	opts  ServerOptions
	ready atomic.Bool

	// adm is the daemon-wide ask-path admission gate; sessions share it
	// through bind().
	adm admission

	// Recovery progress, reported by /readyz while the boot replay runs.
	recTotal atomic.Int64
	recDone  atomic.Int64
	recQuar  atomic.Int64
	recSkip  atomic.Int64
	// How sessions were rebuilt (RecoveryTotals): boot recovery and, after
	// it, adoptions, handoffs and snapshot restores.
	recCkpt       atomic.Int64
	recFull       atomic.Int64
	recFallback   atomic.Int64
	recRederived  atomic.Int64
	recUnverified atomic.Int64

	qmu         sync.Mutex
	quarantined map[string]string // id -> quarantine reason
}

// ServerOptions tunes daemon-wide defaults.
type ServerOptions struct {
	// DefaultSurrogate is applied to created sessions whose config omits
	// the surrogate field ("" keeps the package default, auto). Restored
	// snapshots are never rewritten — replay must run on the recorded
	// backend.
	DefaultSurrogate string
	// Store is the session durability backend (required): a wal.Store on
	// disk, or on a wal.MemFS for sessions that die with the process.
	Store Store
	// NodeID is this process's cluster node name ("" outside a cluster).
	// Recovery uses it to leave sessions alone whose last durable fence
	// names a different node (they moved while this node was down), and
	// new sessions record it as their owner.
	NodeID string
	// MaxInflightEvals bounds outstanding proposals daemon-wide: asks past
	// the bound are shed with 429 + Retry-After until tells retire work.
	// 0 = unlimited.
	MaxInflightEvals int
	// QueueDepth bounds ask requests concurrently inside the handler (a
	// burst bound ahead of the eval bound). 0 = unlimited.
	QueueDepth int
}

// NewServerWith builds a Server over o.Store with daemon-wide defaults. The
// returned server is not ready until Recover is called (even on an empty
// store): session routes answer 503 so workers cannot race a recovery
// replay.
func NewServerWith(o ServerOptions) *Server {
	if o.Store == nil {
		panic("serve: ServerOptions.Store is required")
	}
	sv := &Server{
		reg:         newRegistry(),
		store:       o.Store,
		opts:        o,
		quarantined: map[string]string{},
	}
	sv.adm.maxEvals = int64(o.MaxInflightEvals)
	sv.adm.queueDepth = int64(o.QueueDepth)
	return sv
}

// bind attaches the daemon-wide admission gauge to a session before its
// actor starts (recovered sessions bring their outstanding proposals back as
// in-flight work). Called at every install point — create, restore, boot
// recovery, failover adoption.
func (sv *Server) bind(s *session) {
	s.evalGauge = &sv.adm.evals
	s.evalGauge.Add(int64(len(s.ledger)))
}

// Statz reports daemon-wide throughput state: the admission gate, the
// store's group commit and how sessions were rebuilt.
type Statz struct {
	Ready     bool           `json:"ready"`
	Sessions  int            `json:"sessions"`
	Admission AdmissionStats `json:"admission"`
	// WAL reports the store's group-commit amortization (a wal.Store's,
	// in-memory ones too; absent for a store without one).
	WAL *WALStats `json:"wal,omitempty"`
	RecoveryTotals
}

// WALStats is the durable store's commit-pipeline accounting: fsync passes
// issued for appended records and the records those passes covered.
// Records/Syncs is the group-commit amortization factor — 1.0 means every
// record paid its own fsync.
type WALStats struct {
	Syncs   uint64 `json:"syncs"`
	Records uint64 `json:"records"`
}

// Stats snapshots the daemon-wide throughput counters.
func (sv *Server) Stats() Statz {
	st := Statz{
		Ready:     sv.ready.Load(),
		Sessions:  sv.reg.Len(),
		Admission: sv.adm.stats(),

		RecoveryTotals: sv.RecoveryTotals(),
	}
	if ss, ok := sv.store.(interface{ SyncStats() (uint64, uint64) }); ok {
		syncs, records := ss.SyncStats()
		st.WAL = &WALStats{Syncs: syncs, Records: records}
	}
	return st
}

// AdmitAsk exposes the ask-admission gate to the cluster layer so a
// forwarding node can shed before proxying. ok=false means shed (respond
// with WriteOverloaded); otherwise release must be called when the request
// finishes.
func (sv *Server) AdmitAsk() (release func(), ok bool) { return sv.adm.admitAsk() }

// WriteOverloaded renders the standard 429 + Retry-After shed response.
func WriteOverloaded(w http.ResponseWriter) { writeOverloaded(w) }

// Ready reports whether recovery has completed and sessions are served.
func (sv *Server) Ready() bool { return sv.ready.Load() }

// SessionCount returns the number of live sessions.
func (sv *Server) SessionCount() int { return sv.reg.Len() }

// SessionIDs returns the live session ids, sorted. The cluster layer scans
// them to find sessions this node holds against the hash ring's preference
// (failover adoptees) so it can heal them back when their owner returns.
func (sv *Server) SessionIDs() []string { return sv.reg.IDs() }

// Close shuts the service down in durability order: the caller has already
// stopped accepting HTTP (http.Server.Shutdown), so Close drains every
// session actor and flushes and closes its write-ahead log, then closes the
// store itself. A tell accepted before shutdown is on stable storage when
// Close returns.
func (sv *Server) Close() {
	sv.reg.Close()
	_ = sv.store.Close()
}

// MaxBodyBytes bounds request bodies; snapshots of long sessions are the
// largest legitimate payload, and POST /sessions/restore refuses one past
// it with 413 — about 6,000 evaluations at d = 32. A -data-dir daemon does
// not need the snapshot to survive a restart: it replays each session from
// its log. Exported so a cluster node refuses an oversized request at the
// same size instead of buffering and proxying it.
const MaxBodyBytes = 8 << 20

// IdempotencyHeader carries a request's idempotency key when it is not in
// the body: asks have no body, and a cluster node forwarding a tell keys
// its at-least-once retries without rewriting the client's payload.
const IdempotencyHeader = "X-Easybod-Idempotency"

type createRequest struct {
	// ID optionally names the session; the store generates one otherwise.
	ID string `json:"id,omitempty"`
	SessionConfig
}

type createResponse struct {
	ID     string        `json:"id"`
	Config SessionConfig `json:"config"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// respEncoder is a pooled response encoder: the JSON body is staged in a
// reusable buffer and written in one shot, so the ask/tell hot path does
// not pay a fresh encoder, growth buffer, and small-write sequence per
// response.
type respEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxPooledResp caps the buffers respPool keeps. Asks, tell acks and errors
// are a few hundred bytes; a Status or Snapshot of a long session grows its
// buffer to the whole history, and pooling that would pin it for good.
const maxPooledResp = 64 << 10

var respPool = sync.Pool{
	New: func() any {
		e := &respEncoder{}
		e.enc = json.NewEncoder(&e.buf)
		e.enc.SetEscapeHTML(false)
		return e
	},
}

// WriteJSON writes v as the JSON response body with the given status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	e := respPool.Get().(*respEncoder)
	defer func() {
		if e.buf.Cap() <= maxPooledResp {
			respPool.Put(e)
		}
	}()
	e.buf.Reset()
	w.Header().Set("Content-Type", "application/json")
	if err := e.enc.Encode(v); err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = fmt.Fprintf(w, "{\"error\":%q}\n", "serve: encoding response: "+err.Error())
		return
	}
	w.WriteHeader(code)
	_, _ = w.Write(e.buf.Bytes())
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownSession):
		code = http.StatusNotFound
	case errors.Is(err, ErrDuplicateSession):
		code = http.StatusConflict
	case errors.Is(err, ErrUnknownProposal):
		code = http.StatusConflict
	case errors.Is(err, ErrSessionQuarantined):
		code = http.StatusConflict
	case errors.Is(err, ErrSessionClosed):
		code = http.StatusGone
	case errors.Is(err, ErrNotReady):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrSnapshotDiverged):
		code = http.StatusUnprocessableEntity
	case errors.Is(err, ErrStaleEpoch):
		// Precondition Failed: the session moved owners; the caller should
		// re-resolve ownership and retry there.
		code = http.StatusPreconditionFailed
	case isBadRequest(err):
		code = http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
	}
	WriteJSON(w, code, errorResponse{Error: err.Error()})
}

// isBadRequest classifies validation errors (config, body decode, bounds).
func isBadRequest(err error) bool {
	var badReq *badRequestError
	return errors.As(err, &badReq)
}

type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func badRequest(err error) error { return &badRequestError{err: err} }

func readJSON(w http.ResponseWriter, r *http.Request, v any) error {
	// A declared oversize is rejected before a byte is decoded (413); a
	// body that lies about its length trips MaxBytesReader mid-decode and
	// maps to 413 in writeError.
	if r.ContentLength > MaxBodyBytes {
		return badRequest(fmt.Errorf("serve: request body %d bytes exceeds the %d-byte limit: %w",
			r.ContentLength, MaxBodyBytes, &http.MaxBytesError{Limit: MaxBodyBytes}))
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest(fmt.Errorf("serve: decoding request body: %w", err))
	}
	// The body is one JSON value: anything after it but whitespace means the
	// sender and this decoder disagree about what was sent.
	if _, err := dec.Token(); err != io.EOF {
		return badRequest(errors.New("serve: decoding request body: trailing data after the JSON value"))
	}
	return nil
}

// quarantineReason returns the reason a session id was quarantined, if it
// was.
func (sv *Server) quarantineReason(id string) (string, bool) {
	sv.qmu.Lock()
	defer sv.qmu.Unlock()
	r, ok := sv.quarantined[id]
	return r, ok
}

// lookup resolves a live session, distinguishing quarantined ids from
// unknown ones.
func (sv *Server) lookup(id string) (*session, error) {
	s, err := sv.reg.get(id)
	if err != nil {
		if reason, ok := sv.quarantineReason(id); ok {
			return nil, fmt.Errorf("%w: %q (%s)", ErrSessionQuarantined, id, reason)
		}
		return nil, err
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parts := SplitPath(r.URL.Path)
	switch {
	case len(parts) == 1 && parts[0] == "healthz":
		// Liveness: answers while a recovery replay is still running, so
		// the orchestrator does not kill a daemon that is busy recovering.
		WriteJSON(w, http.StatusOK, map[string]any{
			"ok": true, "ready": sv.ready.Load(), "sessions": sv.reg.Len(),
		})
	case len(parts) == 1 && parts[0] == "readyz":
		// Readiness: traffic-worthy only after Recover finished. While the
		// replay runs the body reports its progress, so an operator (or
		// the cluster harness) can tell a long recovery from a wedged one.
		if !sv.ready.Load() {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
				"ready": false, "recovery": sv.Progress(),
			})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]any{
			"ready": true, "sessions": sv.reg.Len(), "recovery": sv.Progress(),
		})
	case len(parts) == 1 && parts[0] == "statz":
		// Throughput observability: the admission gate's live gauges, group
		// commit and recovery totals. Served during recovery too — shed counters
		// are interesting exactly when the daemon is struggling.
		WriteJSON(w, http.StatusOK, sv.Stats())
	case len(parts) >= 1 && parts[0] == "sessions":
		if !sv.ready.Load() {
			writeError(w, fmt.Errorf("%w: recovery replay in progress", ErrNotReady))
			return
		}
		sv.serveSessions(w, r, parts[1:])
	default:
		WriteJSON(w, http.StatusNotFound, errorResponse{Error: "serve: no such route"})
	}
}

// SplitPath splits a URL path into its non-empty segments.
func SplitPath(p string) []string {
	var parts []string
	for _, s := range strings.Split(p, "/") {
		if s != "" {
			parts = append(parts, s)
		}
	}
	return parts
}

func (sv *Server) serveSessions(w http.ResponseWriter, r *http.Request, rest []string) {
	switch {
	case len(rest) == 0:
		switch r.Method {
		case http.MethodPost:
			sv.handleCreate(w, r)
		case http.MethodGet:
			sv.qmu.Lock()
			q := make(map[string]string, len(sv.quarantined))
			for id, reason := range sv.quarantined {
				q[id] = reason
			}
			sv.qmu.Unlock()
			resp := map[string]any{"sessions": sv.reg.IDs()}
			if len(q) > 0 {
				resp["quarantined"] = q
			}
			WriteJSON(w, http.StatusOK, resp)
		default:
			WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "serve: use POST or GET"})
		}
	case len(rest) == 1 && rest[0] == "restore":
		if r.Method != http.MethodPost {
			WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "serve: use POST"})
			return
		}
		sv.handleRestore(w, r)
	case len(rest) == 1:
		switch r.Method {
		case http.MethodGet:
			sv.handleStatus(w, r, rest[0])
		case http.MethodDelete:
			sv.handleDelete(w, rest[0])
		default:
			WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "serve: use GET or DELETE"})
		}
	case len(rest) == 2:
		sv.handleSessionVerb(w, r, rest[0], rest[1])
	default:
		WriteJSON(w, http.StatusNotFound, errorResponse{Error: "serve: no such route"})
	}
}

// install durably registers the session (the store's Begin arbitrates id
// uniqueness), binds its log, starts the actor, and adds it to the live
// registry. With asBase the session's current state — a verified snapshot
// replay — is first persisted as the log's recovery base in one synchronous
// step, so the session appends from there. On any failure the partial state
// is rolled back.
func (sv *Server) install(s *session, asBase bool) error {
	l, err := sv.store.Begin(s.id, s.cfg)
	if err != nil {
		return err
	}
	if asBase {
		commit, err := l.BeginCompact()
		if err == nil {
			err = commit(s.snapshot())
		}
		if err != nil {
			_ = l.Close()
			_ = sv.store.Remove(s.id)
			return err
		}
	}
	s.log = l
	sv.bind(s)
	s.start()
	if err := sv.reg.add(s); err != nil {
		s.close()
		_ = sv.store.Remove(s.id)
		return err
	}
	return nil
}

func (sv *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := readJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	cfg := req.SessionConfig
	if cfg.Surrogate == "" {
		cfg.Surrogate = sv.opts.DefaultSurrogate
	}
	if err := cfg.normalize(); err != nil {
		writeError(w, badRequest(err))
		return
	}
	id := req.ID
	if id == "" {
		id = sv.reg.newID()
	} else if err := ValidateSessionID(id); err != nil {
		writeError(w, badRequest(err))
		return
	}
	if reason, ok := sv.quarantineReason(id); ok {
		writeError(w, fmt.Errorf("%w: %q (%s)", ErrSessionQuarantined, id, reason))
		return
	}
	s, err := newSession(id, cfg)
	if err != nil {
		writeError(w, badRequest(err))
		return
	}
	s.owner = sv.opts.NodeID
	if err := sv.install(s, false); err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusCreated, createResponse{ID: id, Config: cfg})
}

func (sv *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	var snap Snapshot
	if err := readJSON(w, r, &snap); err != nil {
		writeError(w, err)
		return
	}
	st, err := sv.InstallSnapshot(snap)
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusCreated, st)
}

// handleStatus answers the session's Status — the one route whose response
// grows with the history. ?since=N is the cursor that keeps a poller's cost
// flat: only records[N:] are sent, and the observations field of the answer
// is the next N. The records are sliced and encoded here, off the actor.
func (sv *Server) handleStatus(w http.ResponseWriter, r *http.Request, id string) {
	s, err := sv.lookup(id)
	if err != nil {
		writeError(w, err)
		return
	}
	since := 0
	if q := r.URL.Query(); q.Has("since") {
		if since, err = strconv.Atoi(q.Get("since")); err != nil || since < 0 {
			writeError(w, badRequest(fmt.Errorf("serve: since=%q is not a non-negative integer", q.Get("since"))))
			return
		}
	}
	var st Status
	if err := s.do(func() { st = s.status() }); err != nil {
		writeError(w, err)
		return
	}
	if since > len(st.Records) {
		writeError(w, badRequest(fmt.Errorf("serve: since=%d is past the session's %d observations", since, len(st.Records))))
		return
	}
	st.Records = st.Records[since:]
	WriteJSON(w, http.StatusOK, st)
}

func (sv *Server) handleDelete(w http.ResponseWriter, id string) {
	// Deleting a quarantined id only forgets it for this process; the
	// quarantined data stays on disk for forensics.
	sv.qmu.Lock()
	if _, ok := sv.quarantined[id]; ok {
		delete(sv.quarantined, id)
		sv.qmu.Unlock()
		WriteJSON(w, http.StatusOK, map[string]any{"deleted": id, "quarantined": true})
		return
	}
	sv.qmu.Unlock()
	if err := sv.reg.remove(id); err != nil {
		writeError(w, err)
		return
	}
	if err := sv.store.Remove(id); err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

// waitDurable gates one response on its commit ticket. A failed commit
// poisons the session through its mailbox — an unsyncable log must refuse
// further work, exactly like a failed append — and the response becomes an
// error instead of an ack.
func (sv *Server) waitDurable(s *session, ct commitTicket) error {
	err := ct.wait()
	if err != nil {
		perr := fmt.Errorf("serve: write-ahead log sync failed, session poisoned: %w", err)
		// Session already closed: nothing left to poison.
		_ = s.do(func() {
			if s.logErr == nil {
				s.logErr = perr
			}
		})
		return perr
	}
	return nil
}

func (sv *Server) handleSessionVerb(w http.ResponseWriter, r *http.Request, id, verb string) {
	s, err := sv.lookup(id)
	if err != nil {
		writeError(w, err)
		return
	}
	switch verb {
	case "ask":
		if r.Method != http.MethodPost {
			WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "serve: use POST"})
			return
		}
		// Backpressure: asks create work, so they pass the admission gate;
		// tells retire work, so they never shed.
		release, ok := sv.adm.admitAsk()
		if !ok {
			writeOverloaded(w)
			return
		}
		defer release()
		ik := r.Header.Get(IdempotencyHeader)
		var ask Ask
		var ct commitTicket
		var askErr error
		if err := s.do(func() { ask, ct, askErr = s.ask(ik) }); err != nil {
			writeError(w, err)
			return
		}
		if askErr != nil {
			writeError(w, askErr)
			return
		}
		// Durability gate, off the actor: the proposal is handed out only
		// after the fsync covering its event — but the actor is already free,
		// so concurrent requests pipeline into the same group-commit pass.
		if err := sv.waitDurable(s, ct); err != nil {
			writeError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, ask)
	case "tell":
		if r.Method != http.MethodPost {
			WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "serve: use POST"})
			return
		}
		// The outer Y shadows Tell.Y for the decoder: a pointer tells an
		// omitted y from y = 0.
		var req struct {
			Tell
			Y *float64 `json:"y"`
		}
		if err := readJSON(w, r, &req); err != nil {
			writeError(w, err)
			return
		}
		t := req.Tell
		switch {
		case req.Y != nil:
			t.Y = *req.Y
		case t.Error == "":
			writeError(w, badRequest(errors.New("serve: tell carries neither y nor error")))
			return
		}
		if t.IK == "" {
			// A forwarding node keys retried deliveries without rewriting
			// the client's body.
			t.IK = r.Header.Get(IdempotencyHeader)
		}
		var ack TellAck
		var ct commitTicket
		var tellErr error
		if err := s.do(func() { ack, ct, tellErr = s.tell(t) }); err != nil {
			writeError(w, err)
			return
		}
		// Durability gate before any acknowledgment — the aborted-state ack
		// included, since the abort event must survive a crash too.
		if err := sv.waitDurable(s, ct); err != nil {
			writeError(w, err)
			return
		}
		if tellErr != nil && ack.Aborted == "" {
			writeError(w, tellErr)
			return
		}
		// A tell that was absorbed and killed the session is acknowledged
		// like any other: the ack carries the terminal state, not a
		// transport-level error.
		WriteJSON(w, http.StatusOK, ack)
	case "snapshot":
		if r.Method != http.MethodGet {
			WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "serve: use GET"})
			return
		}
		var snap Snapshot
		if err := s.do(func() { snap = s.snapshot() }); err != nil {
			writeError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, snap)
	default:
		WriteJSON(w, http.StatusNotFound, errorResponse{Error: "serve: no such route"})
	}
}
