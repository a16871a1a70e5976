package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"easybo/internal/serve"
)

// Config declares one cluster node.
type Config struct {
	// Self is this node's member id; it must appear in Table.
	Self string
	// Table is the versioned membership the ring is built from.
	Table Table
	// Heartbeat is the peer probe cadence (default 1s).
	Heartbeat time.Duration
	// SuspectAfter is how many consecutive failed contacts mark a peer
	// dead for routing (default 3).
	SuspectAfter int
	// SharedStore declares that every node opens the same WAL tree (a
	// shared filesystem): failover then adopts a dead owner's sessions by
	// replaying their logs in place. Without it, only planned snapshot
	// handoffs move sessions, and a dead node's sessions are unavailable
	// until it returns.
	SharedStore bool
	// AttemptTimeout bounds each forwarded attempt (default 5s).
	AttemptTimeout time.Duration
	// MaxAttempts bounds forwarding retries across re-routes (default 8).
	MaxAttempts int
}

func (c *Config) normalize() error {
	if c.Self == "" {
		return fmt.Errorf("cluster: node needs a self id")
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 5 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	return nil
}

// Node is the cluster face of one easybod process: an http.Handler that
// accepts any request, serves the sessions this node owns, and proxies the
// rest to their owners. Mount it where the bare serve.Server handler would
// go.
type Node struct {
	cfg    Config
	sv     *serve.Server
	ring   *Ring
	health *health
	client *http.Client
	fwd    forwardOptions

	cancel context.CancelFunc
	hbDone chan struct{}

	// held maps sessions this node owns by the ring to the node actually
	// holding them: they moved (failover adoption) while this node was
	// down, discovered from the fence records at boot recovery. Their
	// traffic forwards to the holder until it hands them back.
	mu   sync.Mutex
	held map[string]string

	// adoptMu serializes ownership transfers into this node so a burst of
	// forwarded requests for a dead owner's session adopts it exactly once.
	adoptMu sync.Mutex
}

// New builds a node over a recovered serve.Server.
func New(sv *serve.Server, cfg Config) (*Node, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	ring, err := NewRing(cfg.Table)
	if err != nil {
		return nil, err
	}
	if _, ok := ring.Member(cfg.Self); !ok {
		return nil, fmt.Errorf("cluster: self %q is not in the membership table", cfg.Self)
	}
	probeTimeout := cfg.Heartbeat
	if probeTimeout > 2*time.Second {
		probeTimeout = 2 * time.Second
	}
	fwd := defaultForwardOptions()
	fwd.attemptTimeout = cfg.AttemptTimeout
	fwd.maxAttempts = cfg.MaxAttempts
	return &Node{
		cfg:    cfg,
		sv:     sv,
		ring:   ring,
		health: newHealth(probeTimeout, cfg.SuspectAfter),
		client: &http.Client{},
		fwd:    fwd,
		held:   map[string]string{},
	}, nil
}

// Owns is the boot-recovery ownership filter: whether the hash ring places
// a session id on this node. Pass it to serve.Server.RecoverOwned so a
// node replays only its share of a shared store.
func (n *Node) Owns(id string) bool {
	return n.ring.Owner(id).ID == n.cfg.Self
}

// Start seeds routing state from the recovery report (sessions whose fence
// says another node holds them) and launches the heartbeat prober.
func (n *Node) Start(rep serve.RecoveryReport) {
	n.mu.Lock()
	for id, holder := range rep.HeldElsewhere {
		n.held[id] = holder
	}
	n.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.hbDone = make(chan struct{})
	go n.heartbeatLoop(ctx)
}

// Stop halts the prober. The underlying serve.Server is closed by its own
// shutdown path.
func (n *Node) Stop() {
	if n.cancel != nil {
		n.cancel()
		<-n.hbDone
	}
}

// heldBy returns the recorded holder of a ring-owned session, if any.
func (n *Node) heldBy(id string) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.held[id]
	return h, ok
}

func (n *Node) forgetHeld(id string) {
	n.mu.Lock()
	delete(n.held, id)
	n.mu.Unlock()
}

// route decides where a session request goes right now: this node (local),
// a peer (target), or nowhere reachable. It performs failover adoption as
// a side effect when the routing decision lands the session here.
func (n *Node) route(id string) (target Member, local bool, ok bool) {
	if n.sv.Has(id) {
		return Member{}, true, true
	}
	dead := n.health.dead()
	if holder, held := n.heldBy(id); held {
		if m, found := n.ring.Member(holder); found && !dead[holder] {
			return m, false, true
		}
		// The holder died too; fall through to ring + failover, which may
		// adopt the session right back here.
	}
	owner := n.ring.Owner(id)
	if owner.ID != n.cfg.Self {
		if !dead[owner.ID] {
			return owner, false, true
		}
		cand, found := n.ring.OwnerExcluding(id, dead)
		if !found {
			return Member{}, false, false
		}
		if cand.ID != n.cfg.Self {
			return cand, false, true
		}
	}
	// The decision landed here (ring owner, or failover candidate for a
	// dead owner): adopt from the shared store if another node's fence
	// does not forbid it.
	if n.tryAdopt(id, dead) {
		return Member{}, true, true
	}
	// Adoption was refused because an alive node holds the session; the
	// refusal recorded the holder.
	if holder, held := n.heldBy(id); held {
		if m, found := n.ring.Member(holder); found && !dead[holder] {
			return m, false, true
		}
		return Member{}, false, false
	}
	return Member{}, true, true
}

// tryAdopt takes over a session the routing decision landed here when the
// shared store holds it but the live registry does not: the failover path.
// Adoption replays the dead owner's WAL and durably fences the session to
// this node before a single request touches it. It reports false only when
// the store's fence names an alive holder — the session is not ours, route
// there instead. Every other failure reports true: a session the store
// does not hold will 404 or create locally, a quarantined one answers
// through the serve layer; its response is authoritative either way.
func (n *Node) tryAdopt(id string, dead map[string]bool) bool {
	if !n.cfg.SharedStore {
		return true
	}
	n.adoptMu.Lock()
	defer n.adoptMu.Unlock()
	if n.sv.Has(id) {
		return true
	}
	_, err := n.sv.Adopt(id, n.cfg.Self, func(owner string) bool { return dead[owner] })
	if err == nil {
		n.forgetHeld(id)
		return true
	}
	var held *serve.HeldElsewhereError
	if errors.As(err, &held) {
		n.mu.Lock()
		n.held[id] = held.Owner
		n.mu.Unlock()
		return false
	}
	return true
}

// ServeHTTP implements http.Handler: cluster admin routes, cluster-aware
// probes, and owner-routed session traffic.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parts := serve.SplitPath(r.URL.Path)
	switch {
	case len(parts) == 2 && parts[0] == "cluster":
		n.serveCluster(w, r, parts[1])
	case len(parts) == 1 && parts[0] == "readyz":
		n.serveReadyz(w)
	case len(parts) >= 1 && parts[0] == "sessions":
		n.serveSessions(w, r, parts[1:])
	default:
		// healthz and everything else the serve layer knows.
		n.sv.ServeHTTP(w, r)
	}
}

func (n *Node) serveCluster(w http.ResponseWriter, r *http.Request, verb string) {
	switch verb {
	case "health":
		if r.Method != http.MethodGet {
			writeJSONError(w, http.StatusMethodNotAllowed, fmt.Errorf("cluster: use GET"))
			return
		}
		serve.WriteJSON(w, http.StatusOK, map[string]any{
			"id":      n.cfg.Self,
			"ready":   n.sv.Ready(),
			"version": n.ring.Table().Version,
		})
	case "ring":
		if r.Method != http.MethodGet {
			writeJSONError(w, http.StatusMethodNotAllowed, fmt.Errorf("cluster: use GET"))
			return
		}
		serve.WriteJSON(w, http.StatusOK, map[string]any{
			"table": n.ring.Table(),
			"peers": n.health.view(n.ring.Table().Members, n.cfg.Self),
		})
	case "holds":
		if r.Method != http.MethodGet {
			writeJSONError(w, http.StatusMethodNotAllowed, fmt.Errorf("cluster: use GET"))
			return
		}
		n.mu.Lock()
		held := make(map[string]string, len(n.held))
		for id, holder := range n.held {
			held[id] = holder
		}
		n.mu.Unlock()
		serve.WriteJSON(w, http.StatusOK, map[string]any{
			"live":           n.sv.SessionIDs(),
			"held_elsewhere": held,
		})
	case "adopt":
		if r.Method != http.MethodPost {
			writeJSONError(w, http.StatusMethodNotAllowed, fmt.Errorf("cluster: use POST"))
			return
		}
		n.handleAdopt(w, r)
	case "release":
		if r.Method != http.MethodPost {
			writeJSONError(w, http.StatusMethodNotAllowed, fmt.Errorf("cluster: use POST"))
			return
		}
		n.handleRelease(w, r)
	default:
		writeJSONError(w, http.StatusNotFound, fmt.Errorf("cluster: no such route"))
	}
}

// serveReadyz is the cluster-aware readiness probe: the serve layer's
// recovery progress plus this node's view of its peers.
func (n *Node) serveReadyz(w http.ResponseWriter) {
	code := http.StatusOK
	if !n.sv.Ready() {
		code = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, code, map[string]any{
		"ready":    n.sv.Ready(),
		"node":     n.cfg.Self,
		"version":  n.ring.Table().Version,
		"sessions": n.sv.SessionCount(),
		"recovery": n.sv.Progress(),
		"peers":    n.health.view(n.ring.Table().Members, n.cfg.Self),
	})
}

// serveSessions routes session traffic by ownership.
func (n *Node) serveSessions(w http.ResponseWriter, r *http.Request, rest []string) {
	switch {
	case len(rest) == 0 && r.Method == http.MethodGet:
		// Listing is per-node: it reports the sessions this node holds.
		n.sv.ServeHTTP(w, r)
	case len(rest) == 0 && r.Method == http.MethodPost:
		n.handleCreate(w, r)
	case len(rest) == 1 && rest[0] == "restore":
		n.handleRestore(w, r)
	case len(rest) >= 1:
		n.dispatch(w, r, rest[0], nil)
	default:
		n.sv.ServeHTTP(w, r)
	}
}

// handleCreate routes session creation to the id's owner, minting the id
// here when the client left the choice open (the owner is a function of
// the id, so someone must fix it before routing).
func (n *Node) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var probe struct {
		ID string `json:"id"`
	}
	// Tolerate an undecodable body here: the owning serve layer produces
	// the authoritative 400.
	_ = json.Unmarshal(body, &probe)
	if probe.ID == "" {
		id := "s-" + newIdempotencyKey()[4:]
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil || doc == nil {
			n.sv.ServeHTTP(w, restoreBody(r, body))
			return
		}
		doc["id"] = id
		rewritten, err := json.Marshal(doc)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, fmt.Errorf("cluster: rewriting create body: %w", err))
			return
		}
		body, probe.ID = rewritten, id
	}
	n.dispatch(w, restoreBody(r, body), probe.ID, body)
}

// handleRestore routes a snapshot restore to the snapshot id's owner.
func (n *Node) handleRestore(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var probe struct {
		ID string `json:"id"`
	}
	_ = json.Unmarshal(body, &probe)
	if probe.ID == "" {
		n.sv.ServeHTTP(w, restoreBody(r, body))
		return
	}
	n.dispatch(w, restoreBody(r, body), probe.ID, body)
}

// dispatch routes one id-addressed request: local service, or forwarding
// with retries. Requests that were already forwarded once are never
// forwarded again (loop break): if they do not resolve locally the origin
// gets a retryable error and re-routes.
func (n *Node) dispatch(w http.ResponseWriter, r *http.Request, id string, body []byte) {
	if via := r.Header.Get(forwardedHeader); via != "" {
		_, local, ok := n.route(id)
		if !ok || !local {
			writeJSONError(w, http.StatusServiceUnavailable,
				fmt.Errorf("cluster: %s misrouted session %q to %s", via, id, n.cfg.Self))
			return
		}
		n.sv.ServeHTTP(w, r)
		return
	}
	if body == nil {
		n.forwardSession(w, r, id)
		return
	}
	n.forwardSessionBody(w, r, id, body)
}

// serveLocal replays a buffered request into the serve layer.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, body []byte, hdr http.Header) {
	r2 := restoreBody(r, body)
	if ik := hdr.Get(serve.IdempotencyHeader); ik != "" && r2.Header.Get(serve.IdempotencyHeader) == "" {
		r2.Header.Set(serve.IdempotencyHeader, ik)
	}
	n.sv.ServeHTTP(w, r2)
}

// readBody buffers a session request's body under serve's limit, answering
// 413 itself when it is larger: the owner would refuse it anyway, so it is
// neither held in memory whole nor proxied — and never cut short and
// forwarded as if complete.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.ContentLength > serve.MaxBodyBytes {
		writeJSONError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("cluster: request body %d bytes exceeds the %d-byte limit", r.ContentLength, serve.MaxBodyBytes))
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxBodyBytes))
	if err != nil {
		writeJSONError(w, bodyErrorStatus(err), fmt.Errorf("cluster: reading request body: %w", err))
		return nil, false
	}
	return body, true
}

// bodyErrorStatus maps a failed body read: 413 past the limit, else 400.
func bodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// restoreBody rebinds a consumed request body.
func restoreBody(r *http.Request, body []byte) *http.Request {
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	return r2
}

// adoptRequest is the handoff wire document: the session being
// transferred and (for separate-store clusters) the snapshot to install.
type adoptRequest struct {
	ID       string          `json:"id"`
	Snapshot *serve.Snapshot `json:"snapshot,omitempty"`
}

type adoptResponse struct {
	ID      string `json:"id"`
	Adopted string `json:"adopted"` // "store" | "snapshot" | "already"
}

// handleAdopt is the receiving half of a handoff (and of heal-on-return):
// take ownership of a session another node fenced over to us. Shared
// store first — replay the log in place — falling back to installing the
// shipped snapshot.
func (n *Node) handleAdopt(w http.ResponseWriter, r *http.Request) {
	var req adoptRequest
	// Node to node: a long session's shipped snapshot may outgrow what
	// serve accepts from a client, hence the headroom.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4*serve.MaxBodyBytes)).Decode(&req); err != nil {
		writeJSONError(w, bodyErrorStatus(err), fmt.Errorf("cluster: decoding adopt request: %w", err))
		return
	}
	if req.ID == "" {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("cluster: adopt request has no session id"))
		return
	}
	n.adoptMu.Lock()
	defer n.adoptMu.Unlock()
	if n.sv.Has(req.ID) {
		serve.WriteJSON(w, http.StatusOK, adoptResponse{ID: req.ID, Adopted: "already"})
		return
	}
	if n.cfg.SharedStore {
		// The sender fenced the session to us before shipping, so the
		// recorded owner is normally self; any other alive holder means a
		// stale or misdirected transfer, which the guard refuses.
		_, err := n.sv.Adopt(req.ID, n.cfg.Self, func(owner string) bool { return !n.health.alive(owner) })
		if err == nil {
			n.forgetHeld(req.ID)
			serve.WriteJSON(w, http.StatusOK, adoptResponse{ID: req.ID, Adopted: "store"})
			return
		}
		if !errors.Is(err, serve.ErrUnknownSession) {
			writeJSONError(w, http.StatusConflict, err)
			return
		}
	}
	if req.Snapshot == nil {
		writeJSONError(w, http.StatusNotFound,
			fmt.Errorf("cluster: session %q not in this node's store and no snapshot shipped", req.ID))
		return
	}
	if _, err := n.sv.InstallSnapshot(*req.Snapshot); err != nil {
		writeJSONError(w, http.StatusConflict, err)
		return
	}
	n.forgetHeld(req.ID)
	serve.WriteJSON(w, http.StatusOK, adoptResponse{ID: req.ID, Adopted: "snapshot"})
}

// handleRelease hands a session this node holds back to its ring owner —
// the healing step, also exposed for operators and tests.
func (n *Node) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("cluster: decoding release request: %w", err))
		return
	}
	if !n.sv.Has(req.ID) {
		writeJSONError(w, http.StatusNotFound, fmt.Errorf("%w: %q", serve.ErrUnknownSession, req.ID))
		return
	}
	owner := n.ring.Owner(req.ID)
	if owner.ID == n.cfg.Self {
		serve.WriteJSON(w, http.StatusOK, map[string]any{"id": req.ID, "released": false, "reason": "already at ring owner"})
		return
	}
	if err := n.handoff(r.Context(), req.ID, owner); err != nil {
		writeJSONError(w, http.StatusBadGateway, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{"id": req.ID, "released": true, "to": owner.ID})
}

// handoff moves one session to a target node: fence + snapshot here, adopt
// there, retire the local copy. Any failure before the target acknowledges
// aborts the transfer and resumes serving locally at a fresh epoch.
func (n *Node) handoff(ctx context.Context, id string, target Member) error {
	snap, err := n.sv.BeginHandoff(id, target.ID)
	if err != nil {
		return fmt.Errorf("cluster: beginning handoff of %q: %w", id, err)
	}
	payload, err := json.Marshal(adoptRequest{ID: id, Snapshot: &snap})
	if err != nil {
		if aerr := n.sv.AbortHandoff(id, n.cfg.Self); aerr != nil {
			return fmt.Errorf("cluster: encoding handoff of %q failed (%v) and abort failed too: %w", id, err, aerr)
		}
		return fmt.Errorf("cluster: encoding handoff of %q: %w", id, err)
	}
	hdr := http.Header{}
	hdr.Set("Content-Type", "application/json")
	res, err := n.forwardOnce(ctx, target, http.MethodPost, "/cluster/adopt", payload, hdr)
	if err != nil || res.status != http.StatusOK {
		if err == nil {
			err = fmt.Errorf("target answered %d: %s", res.status, strings.TrimSpace(string(res.body)))
		}
		n.health.fail(target.ID)
		if aerr := n.sv.AbortHandoff(id, n.cfg.Self); aerr != nil {
			return fmt.Errorf("cluster: handoff of %q to %s failed (%v) and abort failed too: %w", id, target.ID, err, aerr)
		}
		return fmt.Errorf("cluster: handing off %q to %s: %w", id, target.ID, err)
	}
	var ack adoptResponse
	// An undecodable ack still acknowledged with 200; default to keeping
	// shared data, the safe side.
	_ = json.Unmarshal(res.body, &ack)
	if err := n.sv.CompleteHandoff(id, ack.Adopted == "snapshot"); err != nil {
		return fmt.Errorf("cluster: completing handoff of %q: %w", id, err)
	}
	return nil
}

// healHeldSessions runs on the heartbeat cadence: any session this node
// holds whose ring owner is alive and is not us goes home. This is how a
// failover adoption heals once the dead node returns, and how a rebooted
// cluster converges to ring placement.
func (n *Node) healHeldSessions(ctx context.Context) {
	dead := n.health.dead()
	for _, id := range n.sv.SessionIDs() {
		owner := n.ring.Owner(id)
		if owner.ID == n.cfg.Self || dead[owner.ID] {
			continue
		}
		if err := n.handoff(ctx, id, owner); err != nil {
			// The next heartbeat retries; an aborted handoff left the
			// session serving here.
			continue
		}
	}
}

func writeJSONError(w http.ResponseWriter, code int, err error) {
	serve.WriteJSON(w, code, map[string]string{"error": err.Error()})
}
