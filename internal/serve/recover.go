package serve

import (
	"errors"
	"fmt"
	"sort"
)

// RecoveryReport summarizes one boot-time recovery pass.
type RecoveryReport struct {
	// Recovered lists the session ids rebuilt by replay, sorted.
	Recovered []string
	// Skipped lists ids left on disk because this node does not own them
	// (cluster recovery with an ownership filter), sorted.
	Skipped []string
	// HeldElsewhere maps ids this node would own by the hash ring to the
	// node their last durable fence assigned them to — they moved (via
	// failover adoption or handoff) while this node was down, and serving
	// them here would fork the session. The cluster layer forwards their
	// traffic to the recorded holder instead.
	HeldElsewhere map[string]string
	// Quarantined maps session ids that failed integrity or replay
	// verification to the reason they were set aside.
	Quarantined map[string]string
	// Sessions says, for each recovered session (List order, which is
	// Recovered's), how its replay went: from a checkpoint or in full, and how much of it was
	// re-derived.
	Sessions []SessionRecovery
}

// RecoveryTotals counts, since the process started, how sessions were
// rebuilt from their records — at boot, on failover adoption, on a handoff
// or a snapshot restore. Counts only: what an operator reads off them is
// whether restarts are paying for a log's tail or for the whole log.
type RecoveryTotals struct {
	Checkpoint    int64 `json:"recover_checkpoint"`     // resumed at a checkpoint
	Full          int64 `json:"recover_full"`           // no checkpoint in the log: replayed in full
	Fallback      int64 `json:"recover_fallback"`       // checkpoint replay failed, full replay passed
	AsksRederived int64 `json:"recover_asks_rederived"` // proposals maximized again and compared
	// AsksUnverified counts the recorded proposals of another proposer
	// generation (an older build's log), put back as recorded: recovered, and
	// not checked.
	AsksUnverified int64 `json:"recover_asks_unverified"`
}

// Progress is a point-in-time view of a recovery replay, served by /readyz
// while it runs so operators and the cluster can tell "recovering" from
// "wedged".
type Progress struct {
	Ready       bool `json:"ready"`
	Total       int  `json:"total"`       // sessions discovered on the store
	Replayed    int  `json:"replayed"`    // sessions rebuilt so far
	Quarantined int  `json:"quarantined"` // sessions set aside so far
	Skipped     int  `json:"skipped"`     // sessions owned by other nodes
	RecoveryTotals
}

// Progress reports how far the boot recovery replay has come.
func (sv *Server) Progress() Progress {
	return Progress{
		Ready:       sv.ready.Load(),
		Total:       int(sv.recTotal.Load()),
		Replayed:    int(sv.recDone.Load()),
		Quarantined: int(sv.recQuar.Load()),
		Skipped:     int(sv.recSkip.Load()),

		RecoveryTotals: sv.RecoveryTotals(),
	}
}

// RecoveryTotals reports how the sessions rebuilt so far were replayed.
func (sv *Server) RecoveryTotals() RecoveryTotals {
	return RecoveryTotals{
		Checkpoint:    sv.recCkpt.Load(),
		Full:          sv.recFull.Load(),
		Fallback:      sv.recFallback.Load(),
		AsksRederived: sv.recRederived.Load(),

		AsksUnverified: sv.recUnverified.Load(),
	}
}

// noteRecovery adds one rebuilt session to the totals.
func (sv *Server) noteRecovery(rec SessionRecovery) {
	switch rec.Mode {
	case RecoverCheckpoint:
		sv.recCkpt.Add(1)
	case RecoverFallback:
		sv.recFallback.Add(1)
	default:
		sv.recFull.Add(1)
	}
	sv.recRederived.Add(int64(rec.AsksRederived))
	sv.recUnverified.Add(int64(rec.AsksUnverified))
}

// Recover loads every persisted session from the store, rebuilds its state
// by replaying the durable log (from its last checkpoint when it has one,
// else — or if that fails — from its first event with every ask verified
// bit-for-bit against the recorded proposal; see session.replay), and
// registers the survivors as live sessions. Sessions whose log is corrupt —
// or whose full replay diverges from the recorded history — are quarantined
// in the store, never silently resurrected.
//
// Recover must be called exactly once, before serving traffic is expected
// to succeed: until it returns, session routes answer 503 and /readyz
// reports not ready ( /healthz is alive the whole time, so an orchestrator
// keeps the process while a long replay runs).
func (sv *Server) Recover() (RecoveryReport, error) { return sv.RecoverOwned(nil) }

// RecoverOwned is Recover restricted to the sessions owns reports true
// for; the rest stay untouched on disk for the nodes that own them (a
// shared-store cluster boots every node against the same tree). owns ==
// nil recovers everything.
func (sv *Server) RecoverOwned(owns func(id string) bool) (RecoveryReport, error) {
	rep := RecoveryReport{Quarantined: map[string]string{}, HeldElsewhere: map[string]string{}}
	ids, err := sv.store.List()
	if err != nil {
		return rep, fmt.Errorf("serve: listing persisted sessions: %w", err)
	}
	sv.recTotal.Store(int64(len(ids)))
	for _, id := range ids {
		if owns != nil && !owns(id) {
			sv.recSkip.Add(1)
			rep.Skipped = append(rep.Skipped, id)
			continue
		}
		ps, err := sv.store.LoadSession(id)
		if errors.Is(err, ErrUnknownSession) {
			// Freed husk (no durable record survived) or removed between
			// List and LoadSession: nothing to recover, nothing to keep.
			sv.recTotal.Add(-1)
			continue
		}
		var held *HeldElsewhereError
		if errors.As(err, &held) {
			// A live process holds the session's write lock (shared-store
			// cluster: a peer is serving it right now). Not ours to replay —
			// same disposition as a fence naming another node.
			sv.recSkip.Add(1)
			rep.Skipped = append(rep.Skipped, id)
			rep.HeldElsewhere[id] = held.Owner
			continue
		}
		if err != nil {
			ps = PersistedSession{ID: id, Corrupt: err}
		}
		if sv.opts.NodeID != "" && ps.Owner != "" && ps.Owner != sv.opts.NodeID {
			// The session's last durable fence names another node: it moved
			// (failover adoption or handoff) while this node was down.
			// Replaying it here would fork the history the holder is still
			// extending — leave it on disk and route traffic to the holder.
			if ps.Log != nil {
				_ = ps.Log.Close()
			}
			sv.recSkip.Add(1)
			rep.Skipped = append(rep.Skipped, id)
			rep.HeldElsewhere[id] = ps.Owner
			continue
		}
		if rec, ok := sv.recoverOne(ps, rep.Quarantined); ok {
			rep.Recovered = append(rep.Recovered, id)
			rep.Sessions = append(rep.Sessions, rec)
		}
	}
	sort.Strings(rep.Recovered)
	sort.Strings(rep.Skipped)
	sv.ready.Store(true)
	return rep, nil
}

// recoverOne replays a single persisted session and registers it, updating
// the progress counters; it reports how the replay went and whether the
// session recovered.
func (sv *Server) recoverOne(ps PersistedSession, quarantined map[string]string) (SessionRecovery, bool) {
	if ps.Corrupt != nil {
		sv.recQuar.Add(1)
		sv.quarantine(ps, quarantined, fmt.Errorf("corrupt log: %w", ps.Corrupt))
		return SessionRecovery{}, false
	}
	s, rec, err := sv.rebuildSession(ps)
	if err != nil {
		sv.recQuar.Add(1)
		sv.quarantine(ps, quarantined, err)
		return rec, false
	}
	s.log = ps.Log
	sv.bind(s)
	s.start()
	if err := sv.reg.add(s); err != nil {
		// Impossible unless the store returned duplicate ids; treat it
		// as the corruption it is.
		s.log = nil // keep the log open for quarantine bookkeeping
		s.close()
		sv.recQuar.Add(1)
		sv.quarantine(ps, quarantined, fmt.Errorf("registering recovered session: %w", err))
		return rec, false
	}
	sv.recDone.Add(1)
	return rec, true
}

// quarantine records and persists one failed recovery.
func (sv *Server) quarantine(ps PersistedSession, out map[string]string, reason error) {
	if ps.Log != nil {
		_ = ps.Log.Close()
	}
	msg := reason.Error()
	out[ps.ID] = msg
	sv.qmu.Lock()
	sv.quarantined[ps.ID] = msg
	sv.qmu.Unlock()
	_ = sv.store.Quarantine(ps.ID, msg)
}

// rebuildSession rebuilds one persisted session — from its snapshot base (if
// it ever compacted) plus the log tail, or from the config and the full log
// — and counts it in the recovery totals; the session resumes at its last
// durably fenced ownership epoch.
func (sv *Server) rebuildSession(ps PersistedSession) (*session, SessionRecovery, error) {
	s, rec, err := rebuildPersisted(ps)
	if err != nil {
		return nil, rec, err
	}
	sv.noteRecovery(rec)
	if ps.Epoch > s.epoch {
		s.epoch = ps.Epoch
	}
	if ps.Owner != "" {
		s.owner = ps.Owner
	}
	return s, rec, nil
}
