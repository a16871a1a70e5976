package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"strings"
	"time"

	"easybo/internal/serve"
)

// Forwarding headers. forwardedHeader breaks proxy loops: a request that
// already carries it is served (or refused) locally, never re-forwarded,
// so a routing disagreement between two nodes degrades to a retryable
// error instead of a cycle.
const forwardedHeader = "X-Easybod-Forwarded-By"

// forwardOptions tunes the per-request retry schedule.
type forwardOptions struct {
	attemptTimeout time.Duration // per-attempt HTTP deadline
	maxAttempts    int           // total tries across re-routes
	backoffBase    time.Duration // first retry delay; doubles per attempt
	backoffMax     time.Duration // delay cap
}

func defaultForwardOptions() forwardOptions {
	return forwardOptions{
		attemptTimeout: 5 * time.Second,
		maxAttempts:    8,
		backoffBase:    25 * time.Millisecond,
		backoffMax:     2 * time.Second,
	}
}

// newIdempotencyKey mints a key for a mutating forward that arrived
// without one: the owner may apply a delivery whose response is lost, and
// the retried delivery must be recognized as the same request.
func newIdempotencyKey() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return ""
	}
	return "fwd-" + hex.EncodeToString(b[:])
}

// jitter returns a uniformly random delay in [d/2, d): desynchronizing
// retries from many forwarders keeps a recovering owner from absorbing a
// synchronized thundering herd.
func jitter(d time.Duration) time.Duration {
	half := d / 2
	n, err := rand.Int(rand.Reader, big.NewInt(int64(half)+1))
	if err != nil {
		return d
	}
	return half + time.Duration(n.Int64())
}

// forwardResult is one attempt's outcome.
type forwardResult struct {
	status int
	header http.Header
	body   []byte
}

// maxForwardedBytes caps a peer response buffered for relay. A response
// over it fails with errResponseTooLarge: the peer is healthy and a retry
// would read the same bytes, so the client gets a 502 naming the owner —
// never the first maxForwardedBytes under the peer's 2xx.
const maxForwardedBytes = 16 << 20

var errResponseTooLarge = errors.New("cluster: forwarded response too large to relay")

// forwardOnce proxies one buffered request to a peer with a per-attempt
// timeout. A non-nil error is a transport failure (connect refused, peer
// died mid-response, deadline): the caller may re-route and retry; any
// HTTP response — success or failure — is returned as-is.
func (n *Node) forwardOnce(ctx context.Context, m Member, method, path string, body []byte, hdr http.Header) (*forwardResult, error) {
	ctx, cancel := context.WithTimeout(ctx, n.fwd.attemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, m.URL+path, rd)
	if err != nil {
		return nil, fmt.Errorf("cluster: building forward request: %w", err)
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	req.Header.Set(forwardedHeader, n.cfg.Self)
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: forwarding to %s: %w", m.ID, err)
	}
	defer func() {
		//easybolint:ok errdrop response body already fully read (or failed); close releases the connection
		_ = resp.Body.Close()
	}()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardedBytes+1))
	if err != nil {
		return nil, fmt.Errorf("cluster: reading forwarded response from %s: %w", m.ID, err)
	}
	if len(data) > maxForwardedBytes {
		return nil, fmt.Errorf("%w: %s %s on %s is over %d bytes; ask %s directly, or page a status read with ?since=",
			errResponseTooLarge, method, path, m.ID, maxForwardedBytes, m.URL)
	}
	return &forwardResult{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// retryableStatus reports whether a forwarded response justifies
// re-resolving ownership and trying again: 5xx (the peer is booting,
// recovering, or overloaded) and 412 (we hit a fenced copy mid-transfer;
// the session is moving and will land somewhere routable).
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusPreconditionFailed
}

// forwardSession routes one session request to its owner, retrying across
// transport failures, fenced copies, and owner changes with bounded
// exponential backoff. Mutating verbs are keyed: the idempotency header is
// attached before the first attempt, so an owner that applied a delivery
// whose response was lost acknowledges the retry instead of applying it
// twice — at-least-once forwarding, exactly-once tells.
func (n *Node) forwardSession(w http.ResponseWriter, r *http.Request, id string) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	n.forwardSessionBody(w, r, id, body)
}

// forwardSessionBody is forwardSession for a request whose body was
// already buffered (create/restore routing reads it to learn the id).
func (n *Node) forwardSessionBody(w http.ResponseWriter, r *http.Request, id string, body []byte) {
	// Shed before proxying: an ask this node would refuse must not consume
	// a forward attempt and a slot on the owner's queue first. The slot is
	// held for the duration of the proxy (bounding asks in flight through
	// this node) and released before local serving, which runs its own
	// gate. The owner's own 429 relays verbatim below — backpressure always
	// reaches the client.
	var release func()
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/ask") {
		var ok bool
		if release, ok = n.sv.AdmitAsk(); !ok {
			serve.WriteOverloaded(w)
			return
		}
	}
	defer func() {
		if release != nil {
			release()
		}
	}()
	hdr := http.Header{}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		hdr.Set("Content-Type", ct)
	}
	if ik := r.Header.Get(serve.IdempotencyHeader); ik != "" {
		hdr.Set(serve.IdempotencyHeader, ik)
	} else if r.Method != http.MethodGet {
		if ik := newIdempotencyKey(); ik != "" {
			hdr.Set(serve.IdempotencyHeader, ik)
		}
	}

	var lastErr error
	delay := n.fwd.backoffBase
	for attempt := 0; attempt < n.fwd.maxAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-r.Context().Done():
				writeJSONError(w, http.StatusGatewayTimeout, r.Context().Err())
				return
			case <-time.After(jitter(delay)):
			}
			delay *= 2
			if delay > n.fwd.backoffMax {
				delay = n.fwd.backoffMax
			}
		}
		target, local, ok := n.route(id)
		if !ok {
			lastErr = fmt.Errorf("cluster: no reachable owner for session %q", id)
			continue
		}
		if local {
			// Ownership resolved to this node (possibly after an adoption
			// the route step performed): serve it here. The local handler
			// runs its own admission gate, so the proxy slot is returned
			// first to avoid counting the request twice.
			if release != nil {
				release()
				release = nil
			}
			n.serveLocal(w, r, body, hdr)
			return
		}
		// RequestURI, not Path: a status poll's ?since= cursor must reach
		// the owner.
		res, err := n.forwardOnce(r.Context(), target, r.Method, r.URL.RequestURI(), body, hdr)
		if errors.Is(err, errResponseTooLarge) {
			writeJSONError(w, http.StatusBadGateway, err)
			return
		}
		if err != nil {
			// Transport failure: the owner may be down; tell the health
			// table so the next route excludes it.
			n.health.fail(target.ID)
			lastErr = err
			continue
		}
		if retryableStatus(res.status) && attempt < n.fwd.maxAttempts-1 {
			lastErr = fmt.Errorf("cluster: %s answered %d", target.ID, res.status)
			continue
		}
		writeForwarded(w, res)
		return
	}
	writeJSONError(w, http.StatusBadGateway,
		fmt.Errorf("cluster: session %q unreachable after %d attempts: %w", id, n.fwd.maxAttempts, lastErr))
}

// writeForwarded relays a peer's response verbatim.
func writeForwarded(w http.ResponseWriter, res *forwardResult) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		// An owner's 429 shed must reach the client with its backoff hint.
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(res.status)
	//easybolint:ok errdrop the response is already committed; a failed relay write is the client's disconnect
	_, _ = w.Write(res.body)
}
