package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// registry holds the live session actors: the in-process routing table from
// id to session. Only that mapping is guarded here; all session state is
// actor-owned (see session.run), so a critical section is a map operation
// long. Durability is the Store's job.
type registry struct {
	mu     sync.RWMutex
	m      map[string]*session
	closed bool
	seq    atomic.Uint64 // monotonic component of generated ids
}

// newRegistry builds an empty session registry.
func newRegistry() *registry {
	return &registry{m: make(map[string]*session)}
}

// newID generates a unique session id: a monotonic sequence number plus
// random entropy so ids are not guessable across daemon restarts.
func (rg *registry) newID() string {
	var b [6]byte
	//easybolint:ok walltime ids are minted once at create, recorded in the log, and never re-derived during replay
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively fatal elsewhere; the sequence
		// number alone still guarantees in-process uniqueness.
		return fmt.Sprintf("s%d", rg.seq.Add(1))
	}
	return fmt.Sprintf("s%d-%s", rg.seq.Add(1), hex.EncodeToString(b[:]))
}

// add registers a session under its id.
func (rg *registry) add(s *session) error {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	if rg.closed {
		return ErrSessionClosed
	}
	if _, ok := rg.m[s.id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateSession, s.id)
	}
	rg.m[s.id] = s
	return nil
}

// get returns the session for id.
func (rg *registry) get(id string) (*session, error) {
	rg.mu.RLock()
	s, ok := rg.m[id]
	rg.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	return s, nil
}

// remove deletes and shuts down the session for id (draining its actor and
// closing its durable log).
func (rg *registry) remove(id string) error {
	rg.mu.Lock()
	s, ok := rg.m[id]
	delete(rg.m, id)
	rg.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	s.close()
	return nil
}

// IDs returns the live session ids, sorted for stable listings.
func (rg *registry) IDs() []string {
	rg.mu.RLock()
	ids := make([]string, 0, len(rg.m))
	for id := range rg.m {
		ids = append(ids, id)
	}
	rg.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// Len returns the number of live sessions.
func (rg *registry) Len() int {
	rg.mu.RLock()
	defer rg.mu.RUnlock()
	return len(rg.m)
}

// Close shuts down every session — draining each actor and flushing and
// closing its durable log — and rejects further additions. The sessions are
// closed outside the lock: a draining actor may be mid-request.
func (rg *registry) Close() {
	rg.mu.Lock()
	rg.closed = true
	m := rg.m
	rg.m = make(map[string]*session)
	rg.mu.Unlock()
	//easybolint:ok maporder shutdown order across independent session actors reaches no emitted byte
	for _, s := range m {
		s.close()
	}
}
