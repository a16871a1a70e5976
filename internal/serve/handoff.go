package serve

import "fmt"

// Cluster hooks: the ownership-transfer protocol internal/cluster drives.
//
// A session's owner changes in exactly two ways, and both fence first:
//
//   - Handoff (source alive): the source runs BeginHandoff — one actor job
//     that durably fences the log at epoch+1 naming the target, renders
//     the snapshot and lets go of the log (and with it the session's
//     lock). Because the actor mailbox is serial, any ask/tell queued
//     behind that job finds the session fenced and fails with
//     ErrStaleEpoch: nothing the source accepts after the snapshot can
//     diverge from the new owner. The target installs the snapshot (or
//     adopts the shared store's copy) and the source CompleteHandoffs.
//
//   - Failover adoption (owner dead): the adopter loads the session from
//     the shared store, replays it, and fences at epoch+1 naming itself
//     before serving a single request. If the dead owner comes back it
//     finds the fence at recovery and leaves the session alone
//     (RecoveryReport.HeldElsewhere).
//
// Epochs only ever grow; they prove ordering of ownership, not liveness.
// There is no storage-level write fencing (POSIX offers none that is
// portable), so the guarantee rests on the fence record being durable
// before the new owner serves — see DESIGN.md §7 for the failure matrix.

// Has reports whether the live registry holds id.
func (sv *Server) Has(id string) bool {
	_, err := sv.reg.get(id)
	return err == nil
}

// Epoch returns the session's current ownership epoch.
func (sv *Server) Epoch(id string) (uint64, error) {
	s, err := sv.lookup(id)
	if err != nil {
		return 0, err
	}
	var epoch uint64
	if err := s.do(func() { epoch = s.epoch }); err != nil {
		return 0, err
	}
	return epoch, nil
}

// BeginHandoff fences the session for transfer to node `to` and returns
// the snapshot the target must adopt. Fence-and-snapshot is a single actor
// job: requests queued behind it are rejected with ErrStaleEpoch, so the
// snapshot is the last word this node speaks for the session. The job
// closes the log too: on a shared store the target's Adopt must take the
// session's lock, which this node would otherwise hold until
// CompleteHandoff. The caller finishes with CompleteHandoff once the
// target acknowledged adoption, or AbortHandoff to resume serving here.
func (sv *Server) BeginHandoff(id, to string) (Snapshot, error) {
	s, err := sv.lookup(id)
	if err != nil {
		return Snapshot{}, err
	}
	var snap Snapshot
	var hoErr error
	err = s.do(func() {
		if s.fenced {
			hoErr = fmt.Errorf("%w: session %q handoff already in progress", ErrStaleEpoch, id)
			return
		}
		if s.logErr != nil {
			hoErr = s.logErr
			return
		}
		// Durably fence before rendering: a crash between the two leaves a
		// fenced log and no new owner, which recovery treats as owned by
		// `to` — the conservative side (no split brain, heal by adoption).
		if s.log != nil {
			if err := s.log.Fence(s.epoch+1, to); err != nil {
				hoErr = fmt.Errorf("serve: fencing session %q for handoff: %w", id, err)
				return
			}
		}
		s.epoch++
		s.owner = to
		s.fenced = true
		snap = s.snapshot()
		if s.log != nil {
			_ = s.log.Close() // the fence above was flushed and synced; nothing is appended after it
		}
	})
	if err != nil {
		return Snapshot{}, err
	}
	return snap, hoErr
}

// AbortHandoff resumes serving a session whose transfer failed before the
// target adopted it. The log BeginHandoff closed is loaded from the store
// again — which fails if another node holds it or fenced it since — and
// ownership is durably fenced back to this node at a fresh epoch, so the
// aborted target's copy (if it half-installed) is the stale one.
func (sv *Server) AbortHandoff(id, self string) error {
	s, err := sv.lookup(id)
	if err != nil {
		return err
	}
	var abortErr error
	err = s.do(func() {
		if !s.fenced {
			return // nothing to abort
		}
		if s.log != nil {
			ps, err := sv.store.LoadSession(id)
			if err == nil && (ps.Corrupt != nil || ps.Epoch != s.epoch) {
				err = fmt.Errorf("the store holds it at epoch %d, this copy is at %d", ps.Epoch, s.epoch)
			}
			if err == nil {
				err = ps.Log.Fence(s.epoch+1, self)
			}
			if err != nil {
				if ps.Log != nil {
					_ = ps.Log.Close() // the load or fence error is the one reported
				}
				abortErr = fmt.Errorf("serve: re-fencing session %q after aborted handoff: %w", id, err)
				return
			}
			s.log = ps.Log
		}
		s.epoch++
		s.owner = self
		s.fenced = false
	})
	if err != nil {
		return err
	}
	return abortErr
}

// CompleteHandoff retires the local copy of a session whose target
// acknowledged adoption: the actor drains, the log closes. removeData
// additionally deletes the persisted state — only correct when the stores
// are separate (the target installed the shipped snapshot); on a shared
// store the data IS the target's copy and must stay.
func (sv *Server) CompleteHandoff(id string, removeData bool) error {
	if err := sv.reg.remove(id); err != nil {
		return err
	}
	if removeData {
		return sv.store.Remove(id)
	}
	return nil
}

// Adopt loads a session from the (shared) store, replays it, and durably
// fences it to this node at a fresh epoch before it serves anything. It is
// the failover path — the ring owner died and this node takes over its
// persisted sessions — and the shared-store arm of a handoff. A corrupt
// log quarantines exactly like boot recovery would.
//
// mayTakeFrom guards against ownership theft: when the session's last
// durable fence names a node other than self, adoption proceeds only if
// the guard clears that node (the cluster passes "is it dead?"). A refusal
// returns *HeldElsewhereError naming the holder. nil trusts the caller.
func (sv *Server) Adopt(id, self string, mayTakeFrom func(owner string) bool) (Status, error) {
	if sv.Has(id) {
		return Status{}, fmt.Errorf("%w: %q (already live here)", ErrDuplicateSession, id)
	}
	if reason, ok := sv.quarantineReason(id); ok {
		return Status{}, fmt.Errorf("%w: %q (%s)", ErrSessionQuarantined, id, reason)
	}
	ps, err := sv.store.LoadSession(id)
	if err != nil {
		return Status{}, err
	}
	if ps.Corrupt == nil && ps.Owner != "" && ps.Owner != self && mayTakeFrom != nil && !mayTakeFrom(ps.Owner) {
		if ps.Log != nil {
			_ = ps.Log.Close()
		}
		return Status{}, &HeldElsewhereError{ID: id, Owner: ps.Owner}
	}
	if ps.Corrupt != nil {
		q := map[string]string{}
		sv.quarantine(ps, q, fmt.Errorf("corrupt log: %w", ps.Corrupt))
		return Status{}, fmt.Errorf("%w: %q (%s)", ErrSessionQuarantined, id, q[id])
	}
	s, _, err := sv.rebuildSession(ps)
	if err != nil {
		q := map[string]string{}
		sv.quarantine(ps, q, err)
		return Status{}, fmt.Errorf("%w: %q (%s)", ErrSessionQuarantined, id, q[id])
	}
	if err := ps.Log.Fence(s.epoch+1, self); err != nil {
		_ = ps.Log.Close()
		return Status{}, fmt.Errorf("serve: fencing session %q for adoption: %w", id, err)
	}
	s.epoch++
	s.owner = self
	s.log = ps.Log
	sv.bind(s)
	s.start()
	if err := sv.reg.add(s); err != nil {
		s.log = nil
		s.close()
		_ = ps.Log.Close()
		return Status{}, err
	}
	var st Status
	if err := s.do(func() { st = s.status() }); err != nil {
		return Status{}, err
	}
	return st, nil
}

// InstallSnapshot is the restore route and the separate-store arm of a
// handoff: the target verifies the shipped snapshot by replay (from its last
// checkpoint, like any recovery) and persists it as its durable base. A handed-off snapshot already carries
// the epoch and owner the source fenced at, so the installed copy is
// provably the newer one.
func (sv *Server) InstallSnapshot(snap Snapshot) (Status, error) {
	if err := ValidateSessionID(snap.ID); err != nil {
		return Status{}, badRequest(err)
	}
	// A config no create would accept is the sender's error, not a replay
	// failure: check it on a copy, the replay runs on the recorded one.
	cfg := snap.Config
	if err := cfg.normalize(); err != nil {
		return Status{}, badRequest(fmt.Errorf("serve: snapshot config: %w", err))
	}
	if reason, ok := sv.quarantineReason(snap.ID); ok {
		return Status{}, fmt.Errorf("%w: %q (%s)", ErrSessionQuarantined, snap.ID, reason)
	}
	s, rec, err := rebuildPersisted(PersistedSession{ID: snap.ID, Snapshot: &snap})
	if err != nil {
		return Status{}, err
	}
	sv.noteRecovery(rec)
	if err := sv.install(s, true); err != nil {
		return Status{}, err
	}
	var st Status
	if err := s.do(func() { st = s.status() }); err != nil {
		return Status{}, err
	}
	return st, nil
}
