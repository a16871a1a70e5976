package serve

import (
	"fmt"
	"regexp"
)

// Store is the session durability backend. The server writes every session
// lifecycle event through it — create (Begin), ask/tell/abort (SessionLog
// appends), delete (Remove) — and enumerates it at boot (List +
// LoadSession) to recover sessions that outlived the process. One
// implementation ships: wal.Store, a per-session write-ahead log, on disk or
// on an in-memory filesystem (wal.OpenMem) whose sessions die with the
// process.
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
	// every ownership transfer (handoff or failover adoption)
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
