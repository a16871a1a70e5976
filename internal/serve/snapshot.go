package serve

import (
	"fmt"
	"math"

	"easybo/internal/core"
)

// SnapshotVersion is the wire version of the snapshot document.
const SnapshotVersion = 1

// Snapshot is a restart-safe serialization of one session: the declaring
// config plus the full ask/tell event log, which together determine the
// session state exactly (the machine is deterministic given seed and tell
// order). The counters, surrogate hyperparameters and incumbent ride along
// as a summary; restore recomputes them from the log and rejects a snapshot
// whose summary disagrees (session.verifyAgainst).
//
// Embedding the full history is deliberate. It is what an audit replays
// from the first event, what a restore falls back on, and — because the
// checkpoints live on the events — what lets a restore start at the last
// one without the snapshot format knowing about checkpoints at all. So a
// snapshot grows with its session and every compaction rewrites everything
// so far: stores that compact against snapshots must scale their cadence
// with snapshot size (wal.Log.CompactionDue does) or pay O(n²) compaction
// I/O over a long session's life.
type Snapshot struct {
	Version int           `json:"version"`
	ID      string        `json:"id"`
	Config  SessionConfig `json:"config"`
	Events  []Event       `json:"events"`
	// Epoch is the ownership epoch at snapshot time (0 decodes as 1 for
	// pre-cluster snapshots).
	Epoch uint64 `json:"epoch,omitempty"`
	// Owner names the cluster node that held the session at snapshot time
	// ("" = the hash-ring owner). Carrying it in the snapshot keeps the
	// ownership override alive across compactions, which prune the fence
	// records that first established it.
	Owner string `json:"owner,omitempty"`

	// Summary of the state after Events (recomputed and compared on restore).
	Observations int       `json:"observations"`
	Pending      int       `json:"pending"`
	Theta        []float64 `json:"theta,omitempty"`     // GP hyperparameters at snapshot time
	LogNoise     *float64  `json:"log_noise,omitempty"` // nil before the first hyperfit
	BestX        []float64 `json:"best_x,omitempty"`
	BestY        *float64  `json:"best_y,omitempty"`
}

// snapshot renders the actor-side state as a Snapshot document. Events is a
// capacity-capped prefix of the session's append-only event array, not a
// copy (see session.status): the HTTP handler and the compaction goroutine
// encode it off the actor.
func (s *session) snapshot() Snapshot {
	snap := Snapshot{
		Version:      SnapshotVersion,
		ID:           s.id,
		Config:       s.cfg,
		Events:       s.events[:len(s.events):len(s.events)],
		Epoch:        s.epoch,
		Owner:        s.owner,
		Observations: s.at.Observations(),
		Pending:      len(s.ledger),
	}
	if theta, logNoise, ok := s.mm.Hyper(); ok {
		snap.Theta = theta
		snap.LogNoise = &logNoise
	}
	if bx, by := s.at.Best(); bx != nil {
		snap.BestX = append([]float64(nil), bx...)
		snap.BestY = &by
	}
	return snap
}

// SessionRecovery describes how one session was rebuilt from its record.
type SessionRecovery struct {
	ID string `json:"id"`
	// Mode is RecoverCheckpoint when the replay resumed at the log's last
	// checkpoint, RecoverFull when the log carries none and was re-derived
	// from its first event, and RecoverFallback when resuming at the
	// checkpoint failed — Reason says how — and the full replay then passed.
	Mode   string `json:"mode"`
	Reason string `json:"reason,omitempty"`
	Events int    `json:"events"` // events in the record
	// Cut is the index of the ask the model was resumed at (0 for a full
	// replay) and TailEvents the events from there on, the ones replayed
	// with the surrogate behind them.
	Cut        int `json:"cut"`
	TailEvents int `json:"tail_events"`
	// AsksRederived counts the asks whose proposal was maximized again and
	// compared with the record.
	AsksRederived int `json:"asks_rederived"`
	// AsksUnverified counts the model-based asks written by a build of
	// another proposer generation (UnverifiedGen is the first one's): this
	// build cannot derive them, so they were put back as recorded. They are
	// neither a divergence nor a pass — the record was trusted, not checked.
	AsksUnverified int `json:"asks_unverified,omitempty"`
	UnverifiedGen  int `json:"unverified_gen,omitempty"`
	// Stale is the first rng position or checkpoint in the record that a
	// full replay did not reproduce ("" when they all agree, and always
	// after a checkpoint replay, which trusts the ones before its cut).
	// Recovery only reports it — the proposals themselves all verified —
	// but it is a divergence to the offline audit.
	Stale string `json:"stale,omitempty"`
}

// Recovery modes.
const (
	RecoverCheckpoint = "checkpoint"
	RecoverFull       = "full"
	RecoverFallback   = "fallback"
)

// seekLimit bounds how far a replay of n events in d dimensions will wind the
// random source forward on a recorded position's say-so. What an ask draws is
// dominated by the acquisition maximizer's Latin-hypercube sweep — 20·d
// candidates, at least 100, two values a coordinate — with a feature basis
// (a few hundred values a dimension) or a subsample permutation (a value an
// observation) now and then, so a log this code wrote stays well inside 256·d² + 2¹⁶ a
// event. A position beyond that is treated like any other checkpoint that
// does not check out, instead of being spun towards.
func seekLimit(from uint64, n, d int) uint64 {
	return from + uint64(n+1)*uint64(256*d*d+(1<<16))
}

// lastCheckpoint returns the index of the last ask carrying a checkpoint, 0
// when there is none (a checkpoint is never on the first event: the first
// ask of a session comes from its design).
func lastCheckpoint(events []Event) int {
	for i := len(events) - 1; i > 0; i-- {
		if events[i].Kind == "ask" && events[i].Ckpt != nil {
			return i
		}
	}
	return 0
}

// asksToRederive picks the asks of events[cut:] that a checkpoint replay
// verifies by deriving them again: those still outstanding when the log ends
// — they are the proposals workers hold, and the next ask hallucinates them
// — and the last one, which leaves surrogate, rng and busy set as the first
// live ask will find them. The map is only ever looked up.
func asksToRederive(events []Event, cut int) map[int]bool {
	open := map[int]bool{}
	last := -1
	for _, ev := range events[cut:] {
		switch ev.Kind {
		case "ask":
			open[ev.ID] = true
			last = ev.ID
		case "tell":
			delete(open, ev.ID)
		}
	}
	if last >= 0 {
		open[last] = true
	}
	return open
}

// replay applies recorded events to a freshly built, not-yet-started session,
// around one cut.
//
// Before the cut nothing is derived. Tells go into the machine and asks are
// put back as recorded (core.AskTell.Reissue): the surrogate is not fitted,
// the acquisition is not maximized, the rng is not drawn from. What stands
// in for re-derivation there is the frame CRCs under the events and the hash
// chain over them, which the checkpoint at the cut must reproduce.
//
// At the cut — an ask that carries a Checkpoint — the surrogate manager is
// put into the recorded pre-fit state and the rng wound to the recorded
// position. From there on every model-based ask refreshes the surrogate as
// the live run did: the first trains from scratch, exactly as it did live
// (that is why checkpoints sit where they do), later ones extend that model
// in the live order. The proposals are re-derived, and compared bit for bit
// with the record, only for the asks asksToRederive picks; each such
// comparison checks the restored surrogate, rng and busy set end to end. The
// other tail asks are reissued and the rng wound to their recorded position.
//
// An ask stamped with a proposer generation other than this build's
// (Event.Gen) is never derived, wherever it stands: a different maximizer
// proposed it, so deriving it again would "diverge" on every healthy log an
// earlier build wrote. It is put back the way the unpicked tail asks are —
// reissued with the surrogate refreshed as the live run refreshed it, the rng
// wound to the recorded position when there is one — and counted in
// rec.AsksUnverified. With positions recorded the surrogate and the rng then
// pass through exactly the states they had live, so the asks of this build's
// own generation further down the same log are still derived and compared.
//
// cut == 0 is the full replay, and what a log without checkpoints gets: the
// model is live from the first event and every ask of this generation is
// re-derived, so a log from a diverging binary (or a tampered one) fails
// loudly instead of silently continuing a different run. It also recomputes every rng position
// and checkpoint the log recorded and reports the first that disagrees
// (rec.Stale). JSON float64 round-trips exactly (encoding/json emits the shortest
// representation that parses back to the same bits), so the comparisons are
// legitimate.
//
// snap, when non-nil, is the snapshot whose Events are the first
// len(snap.Events) of events; its summary fields are checked against the
// state replay has at that point. rec collects the counts.
func (s *session) replay(events []Event, cut int, snap *Snapshot, rec *SessionRecovery) error {
	var rederive map[int]bool
	if cut > 0 {
		rederive = asksToRederive(events, cut)
	}
	limit := seekLimit(s.src.Pos(), len(events), len(s.cfg.Lo))
	for n := 0; ; n++ {
		if snap != nil && n == len(snap.Events) {
			if err := s.verifyAgainst(snap, cut == 0 || n > cut); err != nil {
				return err
			}
		}
		if n == len(events) {
			return nil
		}
		ev := events[n]
		switch ev.Kind {
		case "ask":
			if n == cut && cut > 0 {
				if err := s.resume(ev.Ckpt, limit); err != nil {
					return fmt.Errorf("%w (event %d: %v)", ErrSnapshotDiverged, n, err)
				}
			}
			var p core.Proposal
			var err error
			switch {
			case n < cut:
				p, err = s.at.Reissue(ev.X, false)
			case ev.Gen != core.ProposerGeneration, rederive != nil && !rederive[ev.ID] && ev.Rng != 0:
				if p, err = s.at.Reissue(ev.X, true); err == nil && ev.Rng != 0 {
					err = s.seekRng(ev.Rng, limit)
				}
				if err == nil && ev.Gen != core.ProposerGeneration && !p.Init && !p.Resubmit {
					if rec.AsksUnverified == 0 {
						rec.UnverifiedGen = ev.Gen
					}
					rec.AsksUnverified++
				}
			default:
				var ok bool
				var ck *Checkpoint
				p, ok, ck, err = s.suggest()
				if err != nil {
					return fmt.Errorf("serve: replaying event %d: %w", n, err)
				}
				if !ok || !core.EqualPoints(p.X, ev.X) {
					return fmt.Errorf("%w (event %d: got id=%d x=%v, recorded id=%d x=%v)",
						ErrSnapshotDiverged, n, p.ID, p.X, ev.ID, ev.X)
				}
				rec.AsksRederived++
				if d := stampDiff(&ev, s.src.Pos(), ck); d != "" {
					if cut > 0 {
						return fmt.Errorf("%w (event %d: %s)", ErrSnapshotDiverged, n, d)
					}
					if rec.Stale == "" {
						rec.Stale = fmt.Sprintf("event %d: %s", n, d)
					}
				}
			}
			if err != nil {
				return fmt.Errorf("%w (event %d: %v)", ErrSnapshotDiverged, n, err)
			}
			if p.ID != ev.ID {
				return fmt.Errorf("%w (event %d: got id=%d, recorded id=%d)",
					ErrSnapshotDiverged, n, p.ID, ev.ID)
			}
			s.record(ev)
			s.ledger = append(s.ledger, ledgerEntry{id: p.ID, x: p.X})
			if ev.IK != "" {
				s.ikAsks[ev.IK] = Ask{Status: AskOK, ProposalID: p.ID, X: p.X}
			}
		case "tell":
			// The live path validates tell dimensions in resolveTell; a
			// snapshot bypasses it, and ragged observations would panic the
			// actor goroutine deep inside the GP fit.
			if len(ev.X) != len(s.cfg.Lo) {
				return fmt.Errorf("%w (event %d: tell dimension %d, want %d)",
					ErrSnapshotDiverged, n, len(ev.X), len(s.cfg.Lo))
			}
			// Consume the ledger entry like a live tell would.
			for j, e := range s.ledger {
				if e.id == ev.ID || (ev.ID == -1 && core.EqualPoints(e.x, ev.X)) {
					s.ledger = append(s.ledger[:j], s.ledger[j+1:]...)
					break
				}
			}
			// An aborting tell legitimately returns the abort error; the
			// machine is then dead and the log holds only a closing abort
			// marker after it.
			_ = s.absorbTell(ev)
		case "abort":
			// Verification checkpoint, not a mutation: the preceding tell
			// must already have killed the machine with this exact error.
			err := s.at.Err()
			if err == nil {
				return fmt.Errorf("%w (event %d: abort recorded but replayed session is alive)",
					ErrSnapshotDiverged, n)
			}
			if ev.Err != "" && ev.Err != err.Error() {
				return fmt.Errorf("%w (event %d: replayed abort %q, recorded %q)",
					ErrSnapshotDiverged, n, err.Error(), ev.Err)
			}
			s.record(ev)
		default:
			return fmt.Errorf("serve: unknown event kind %q at %d", ev.Kind, n)
		}
	}
}

// resume turns the model on at the cut: the events so far must hash to the
// chain the checkpoint recorded and hold the observations it counted, and
// then the manager takes the recorded pre-fit state and the rng the recorded
// position.
func (s *session) resume(ck *Checkpoint, limit uint64) error {
	if have := chainHex(s.chain); have != ck.Chain {
		return fmt.Errorf("the events before the checkpoint hash to %s, it recorded %q", have, ck.Chain)
	}
	if ck.N != s.at.Observations() || ck.LastHyperN > ck.N {
		return fmt.Errorf("checkpoint taken at %d observations (trained at %d), replay has %d",
			ck.N, ck.LastHyperN, s.at.Observations())
	}
	if err := s.mm.Restore(ck.state()); err != nil {
		return err
	}
	return s.seekRng(ck.Rng, limit)
}

// seekRng winds the random source forward to a recorded position, refusing
// one beyond limit (see seekLimit).
func (s *session) seekRng(pos, limit uint64) error {
	if pos > limit {
		return fmt.Errorf("rng position %d is out of range", pos)
	}
	return s.src.SeekTo(pos)
}

// stampDiff compares what an ask event recorded beside its proposal with
// what deriving the ask again produced (the rng position after it, the
// checkpoint if its fit trained from scratch). A log from before positions
// were recorded has nothing to compare.
func stampDiff(ev *Event, pos uint64, ck *Checkpoint) string {
	switch {
	case ev.Rng == 0 && ev.Ckpt == nil:
		return ""
	case ev.Rng != pos:
		return fmt.Sprintf("rng at position %d after the ask, recorded %d", pos, ev.Rng)
	case (ck == nil) != (ev.Ckpt == nil):
		return fmt.Sprintf("checkpoint recorded: %v, hyperparameters trained from scratch: %v", ev.Ckpt != nil, ck != nil)
	case ck != nil && !ck.equal(ev.Ckpt):
		return fmt.Sprintf("replay reached the ask in state %+v, its checkpoint recorded %+v", *ck, *ev.Ckpt)
	}
	return ""
}

// verifyAgainst cross-checks the replayed state with a snapshot's summary
// fields; a mismatch means the snapshot was edited or the replay semantics
// drifted. The hyperparameters are only comparable once the model is live
// (in a checkpoint replay, past the cut).
func (s *session) verifyAgainst(snap *Snapshot, modelLive bool) error {
	if snap.Observations != s.at.Observations() || snap.Pending != len(s.ledger) {
		return fmt.Errorf("%w (replayed %d observations / %d pending, snapshot says %d / %d)",
			ErrSnapshotDiverged, s.at.Observations(), len(s.ledger), snap.Observations, snap.Pending)
	}
	if snap.BestY != nil {
		if _, by := s.at.Best(); math.Float64bits(by) != math.Float64bits(*snap.BestY) {
			return fmt.Errorf("%w (replayed best %v, snapshot says %v)", ErrSnapshotDiverged, by, *snap.BestY)
		}
	}
	if modelLive && snap.LogNoise != nil {
		theta, logNoise, _ := s.mm.Hyper()
		if !core.EqualPoints(theta, snap.Theta) || math.Float64bits(logNoise) != math.Float64bits(*snap.LogNoise) {
			return fmt.Errorf("%w (replayed hyperparameters %v / %v, snapshot says %v / %v)",
				ErrSnapshotDiverged, theta, logNoise, snap.Theta, *snap.LogNoise)
		}
	}
	return nil
}

// rebuild brings a session back from its record: the config and every event
// since creation, plus — when the record was compacted — the snapshot that
// covers the first len(snap.Events) of them. It resumes at the log's last
// checkpoint when there is one; if that replay fails for any reason, or
// there is no checkpoint, it replays in full, and only the full replay's
// verdict can fail the session. The returned session is not started: the
// caller binds a durable log and calls start().
func rebuild(id string, cfg SessionConfig, events []Event, snap *Snapshot) (*session, SessionRecovery, error) {
	if cut := lastCheckpoint(events); cut > 0 {
		s, rec, err := rebuildAt(id, cfg, events, snap, cut)
		if err == nil {
			rec.Mode = RecoverCheckpoint
			return s, rec, nil
		}
		s, rec, ferr := rebuildAt(id, cfg, events, snap, 0)
		rec.Mode, rec.Reason = RecoverFallback, err.Error()
		return s, rec, ferr
	}
	return rebuildAt(id, cfg, events, snap, 0)
}

// rebuildAt is one replay of a session's record on a fresh machine, with the
// model resumed at events[cut] (0: in full).
func rebuildAt(id string, cfg SessionConfig, events []Event, snap *Snapshot, cut int) (*session, SessionRecovery, error) {
	rec := SessionRecovery{ID: id, Mode: RecoverFull, Events: len(events), Cut: cut, TailEvents: len(events) - cut}
	if err := cfg.normalize(); err != nil {
		return nil, rec, err
	}
	s, err := newSession(id, cfg)
	if err != nil {
		return nil, rec, err
	}
	if err := s.replay(events, cut, snap, &rec); err != nil {
		return nil, rec, err
	}
	return s, rec, nil
}

// history flattens a persisted session into its config and its whole event
// list, snapshot base and log tail joined.
func (ps *PersistedSession) history() (SessionConfig, []Event, error) {
	snap := ps.Snapshot
	switch {
	case snap == nil:
		return ps.Config, ps.Events, nil
	case snap.ID != ps.ID:
		return SessionConfig{}, nil, fmt.Errorf("%w (snapshot names session %q, stored under %q)",
			ErrSnapshotDiverged, snap.ID, ps.ID)
	case snap.Version != SnapshotVersion:
		return SessionConfig{}, nil, fmt.Errorf("serve: unsupported snapshot version %d (want %d)", snap.Version, SnapshotVersion)
	}
	events := snap.Events
	if len(ps.Events) > 0 {
		events = append(events[:len(events):len(events)], ps.Events...)
	}
	return snap.Config, events, nil
}

// rebuildPersisted rebuilds a session as a store (or a shipped snapshot)
// holds it. It comes back at the snapshot's ownership epoch; the caller
// applies any later fence.
func rebuildPersisted(ps PersistedSession) (*session, SessionRecovery, error) {
	cfg, events, err := ps.history()
	if err != nil {
		return nil, SessionRecovery{ID: ps.ID}, err
	}
	s, rec, err := rebuild(ps.ID, cfg, events, ps.Snapshot)
	if err != nil {
		return nil, rec, err
	}
	if snap := ps.Snapshot; snap != nil {
		if snap.Epoch > 0 {
			s.epoch = snap.Epoch
		}
		s.owner = snap.Owner
	}
	return s, rec, nil
}

// Audit is the offline check behind easybod -verify: the session's whole
// record is replayed from its first event, every ask re-derived and compared,
// and every rng position and checkpoint the log carries recomputed from the
// state that replay had — including, through the checkpoints' chain field,
// the hash chain over the events. Nothing is written, registered or
// quarantined. The error is what a recovery would quarantine the session
// for, or the first stale position or checkpoint, which a recovery only
// falls back on. Asks of another proposer generation are outside what this
// build can check: with no error, rec.AsksUnverified > 0 means "consistent
// as far as it could be verified", which is not "verified".
func Audit(ps PersistedSession) (SessionRecovery, error) {
	if ps.Corrupt != nil {
		return SessionRecovery{ID: ps.ID}, fmt.Errorf("corrupt log: %w", ps.Corrupt)
	}
	cfg, events, err := ps.history()
	if err != nil {
		return SessionRecovery{ID: ps.ID}, err
	}
	_, rec, err := rebuildAt(ps.ID, cfg, events, ps.Snapshot, 0)
	if err == nil && rec.Stale != "" {
		err = fmt.Errorf("%w (%s)", ErrSnapshotDiverged, rec.Stale)
	}
	return rec, err
}
