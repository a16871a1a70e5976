package serve

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
)

// Store is the session durability backend. The server writes every session
// lifecycle event through it — create (Begin), ask/tell/abort (SessionLog
// appends), delete (Remove) — and enumerates it at boot (List +
// LoadSession) to recover sessions that outlived the process. Two
// implementations ship: MemStore, an in-memory map (sessions die with the
// process), and wal.Store, a per-session write-ahead log on disk.
//
// All methods must be safe for concurrent use. Append/BeginCompact on a
// single SessionLog are only ever called from that session's actor
// goroutine; WaitDurable and a BeginCompact commit function run off it
// (the HTTP ack path and the compaction worker respectively).
type Store interface {
	// Begin durably registers a new session and returns its open log.
	// Begin is the arbiter of id uniqueness: it fails with
	// ErrDuplicateSession (wrapped) if the id already exists.
	Begin(id string, cfg SessionConfig) (SessionLog, error)

	// List returns every persisted session id, sorted, without opening
	// logs. A cluster node recovers only the ids it owns (LoadSession) and
	// leaves the rest on disk for their owners.
	List() ([]string, error)

	// LoadSession scans and reopens one persisted session for recovery or
	// failover adoption. An undecodable session is returned with Corrupt
	// set (and a nil Log) so the server can quarantine it instead of
	// resurrecting a wrong state; an id the store does not hold fails with
	// ErrUnknownSession (wrapped).
	LoadSession(id string) (PersistedSession, error)

	// Quarantine moves a session's persisted state aside with a reason.
	// The session will not be returned by future List calls; its data is kept
	// for forensics, not deleted.
	Quarantine(id, reason string) error

	// Remove durably deletes a session and all its persisted state.
	Remove(id string) error

	// Close flushes and closes every open log and releases the store.
	Close() error
}

// SessionLog is one session's append-only durable log. It is written by
// exactly one goroutine (the session actor); WaitDurable and the commit
// function returned by BeginCompact may run on other goroutines.
type SessionLog interface {
	// Append records one event and returns its sequence number — the
	// commit ticket for WaitDurable. The server appends before it
	// applies: an event that cannot be written is never absorbed into the
	// session state. Append itself does not block on stable storage; the
	// acknowledgement path calls WaitDurable with the returned ticket.
	Append(ev Event) (uint64, error)

	// WaitDurable blocks until a sync covering the ticketed record has
	// completed, per the store's fsync policy: under always it returns
	// only after an fsync covering seq (the store group-commits — one
	// fsync pass covers every record that arrived while the previous
	// pass was in flight); under interval and off it returns immediately
	// (those policies never made acks wait on the background cadence).
	// An error means the record may not be durable — the caller must not
	// acknowledge it, and must poison the session.
	WaitDurable(seq uint64) error

	// CompactionDue reports whether the log wants a snapshot compaction
	// (e.g. enough events accumulated since the last snapshot).
	CompactionDue() bool

	// BeginCompact seals the log at its current position and returns the
	// commit step, which installs a snapshot taken at exactly that
	// position as the new recovery base and prunes the entries it
	// covers. The seal is cheap — the session actor calls it inline —
	// while commit carries the expensive encode and I/O and may run off
	// the actor goroutine; appends proceed past the seal meanwhile. At
	// most one compaction may be in flight per log.
	BeginCompact() (commit func(Snapshot) error, err error)

	// Fence durably records an ownership-epoch fence naming the node the
	// session now belongs to. Epochs are minted by the cluster layer:
	// every ownership transfer (snapshot handoff or failover adoption)
	// bumps the session's epoch and fences the log before the new owner
	// serves a single request, so a stale owner's copy is recognizably
	// behind — and a rebooted previous owner sees at recovery that the
	// session moved while it was down. Sessions that never moved stay at
	// epoch 1 with no fence record.
	Fence(epoch uint64, owner string) error

	// Sync flushes buffered appends to stable storage.
	Sync() error

	// Close flushes and closes the log. Idempotent.
	Close() error
}

// PersistedSession is one session as recovered from a Store at boot.
type PersistedSession struct {
	ID     string
	Config SessionConfig
	// Snapshot is the compaction base (nil when the session never
	// compacted); Events are the log entries after it.
	Snapshot *Snapshot
	Events   []Event
	// Epoch is the session's last durably fenced ownership epoch (1 when
	// the session never changed owners; fence records and snapshot bases
	// both carry it forward).
	Epoch uint64
	// Owner names the cluster node the last fence (or the snapshot base)
	// assigned the session to; "" means it never moved and belongs to
	// whatever the hash ring says.
	Owner string
	// Log is the reopened live log, positioned to append. nil when
	// Corrupt is set.
	Log SessionLog
	// Corrupt marks a session whose persisted state failed integrity
	// checks (CRC, sequence gaps, undecodable documents). The server
	// quarantines it.
	Corrupt error
}

// sessionIDPattern keeps ids filesystem- and URL-safe: stores use the id as
// a directory name and the HTTP API as a path segment.
var sessionIDPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// ValidateSessionID rejects ids that are unsafe as directory names or URL
// path segments.
func ValidateSessionID(id string) error {
	if !sessionIDPattern.MatchString(id) {
		return fmt.Errorf("serve: invalid session id %q (want 1-128 of [A-Za-z0-9._-], starting alphanumeric)", id)
	}
	return nil
}

// ---------------------------------------------------------------- MemStore

// MemStore is the in-memory Store: one mutex-guarded map. Nothing survives
// the process — List after a restart is empty — but recovery, compaction,
// and shutdown-ordering logic can all be exercised against it in-process.
type MemStore struct {
	mu sync.Mutex
	m  map[string]*memSess
	q  map[string]string // quarantined id -> reason
	// compactEvery, when > 0, makes logs request a snapshot compaction
	// every that many events (mirrors wal.Options.CompactEvery; used to
	// test the compaction path without disk).
	compactEvery int
}

// NewMemStore builds an empty in-memory store.
func NewMemStore() *MemStore { return NewMemStoreCompacting(0) }

// NewMemStoreCompacting is NewMemStore with a compaction cadence: logs
// report CompactionDue every compactEvery events (0 disables).
func NewMemStoreCompacting(compactEvery int) *MemStore {
	return &MemStore{m: make(map[string]*memSess), q: make(map[string]string), compactEvery: compactEvery}
}

func (st *MemStore) Begin(id string, cfg SessionConfig) (SessionLog, error) {
	if err := ValidateSessionID(id); err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.m[id]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateSession, id)
	}
	if _, ok := st.q[id]; ok {
		return nil, fmt.Errorf("%w: %q (quarantined)", ErrDuplicateSession, id)
	}
	s := &memSess{cfg: cfg}
	st.m[id] = s
	return &memLog{st: st, id: id, s: s}, nil
}

// List implements Store.
func (st *MemStore) List() ([]string, error) {
	st.mu.Lock()
	ids := make([]string, 0, len(st.m))
	for id := range st.m {
		ids = append(ids, id)
	}
	st.mu.Unlock()
	sort.Strings(ids)
	return ids, nil
}

// LoadSession implements Store. The returned Log is a fresh handle onto
// the shared session state — mirroring a new file descriptor onto the same
// WAL — so closing one loader's handle never severs a concurrent holder's.
func (st *MemStore) LoadSession(id string) (PersistedSession, error) {
	st.mu.Lock()
	s, ok := st.m[id]
	st.mu.Unlock()
	if !ok {
		return PersistedSession{}, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := PersistedSession{
		ID:     id,
		Config: s.cfg,
		Log:    &memLog{st: st, id: id, s: s},
		Epoch:  s.epoch,
		Owner:  s.owner,
	}
	if ps.Epoch == 0 {
		ps.Epoch = 1
	}
	if s.snap != nil {
		snap := *s.snap
		ps.Snapshot = &snap
		if ps.Owner == "" {
			ps.Owner = snap.Owner
		}
		if snap.Epoch > ps.Epoch {
			ps.Epoch = snap.Epoch
		}
	}
	ps.Events = append([]Event(nil), s.events...)
	return ps, nil
}

func (st *MemStore) Quarantine(id, reason string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.m[id]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	delete(st.m, id)
	st.q[id] = reason
	return nil
}

func (st *MemStore) Remove(id string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.m, id)
	delete(st.q, id)
	return nil
}

func (st *MemStore) Close() error { return nil }

// memSess is one session's shared persisted state (the "file"); memLog is
// a handle onto it (the "file descriptor"). The split matters to the
// cluster: a loader inspecting a session and closing its handle must not
// sever the holder's.
type memSess struct {
	mu      sync.Mutex
	cfg     SessionConfig
	snap    *Snapshot
	events  []Event
	nextSeq uint64 // next append ticket (memory is instantly "durable")
	epoch   uint64 // last fenced ownership epoch (0 = never fenced = 1)
	owner   string // node named by the last fence ("" = never moved)
}

type memLog struct {
	st *MemStore
	id string
	s  *memSess

	mu     sync.Mutex
	closed bool
}

func (l *memLog) live() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("serve: mem log %q closed", l.id)
	}
	return nil
}

func (l *memLog) Append(ev Event) (uint64, error) {
	if err := l.live(); err != nil {
		return 0, err
	}
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	seq := l.s.nextSeq
	l.s.nextSeq++
	l.s.events = append(l.s.events, ev.clone())
	return seq, nil
}

// WaitDurable implements SessionLog: memory is durable the instant Append
// returns, so every ticket is already covered.
func (l *memLog) WaitDurable(uint64) error { return nil }

func (l *memLog) CompactionDue() bool {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	return l.st.compactEvery > 0 && len(l.s.events) >= l.st.compactEvery
}

// BeginCompact implements SessionLog: the seal records how many events the
// snapshot will cover, so appends racing the off-actor commit survive the
// trim.
func (l *memLog) BeginCompact() (func(Snapshot) error, error) {
	if err := l.live(); err != nil {
		return nil, err
	}
	l.s.mu.Lock()
	cut := len(l.s.events)
	l.s.mu.Unlock()
	return func(snap Snapshot) error { return l.commit(cut, snap) }, nil
}

func (l *memLog) commit(cut int, snap Snapshot) error {
	if err := l.live(); err != nil {
		return err
	}
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	// Retained as handed over: snap.Events is a read-only prefix of the
	// session's append-only event array (session.snapshot).
	l.s.snap = &snap
	l.s.events = append([]Event(nil), l.s.events[cut:]...)
	return nil
}

func (l *memLog) Fence(epoch uint64, owner string) error {
	if err := l.live(); err != nil {
		return err
	}
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	l.s.epoch = epoch
	l.s.owner = owner
	return nil
}

func (l *memLog) Sync() error { return nil }

func (l *memLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}
