package serve

import (
	"errors"
	"fmt"
	"math"

	"easybo/internal/core"
)

// SnapshotVersion is the wire version of the snapshot document.
const SnapshotVersion = 1

// Snapshot is a restart-safe serialization of one session: the declaring
// config plus the full ask/tell event log, which together determine the
// session state exactly (the machine is deterministic given seed and tell
// order). The surrogate hyperparameters and incumbent ride along for
// observability; restore recomputes them from the log and never trusts
// them.
//
// Embedding the full history is deliberate — full replay with bit-for-bit
// ask verification is the integrity mechanism — so a snapshot grows with
// its session and every compaction rewrites everything so far. Stores that
// compact against snapshots must scale their cadence with snapshot size
// (wal.Log.CompactionDue does) or pay O(n²) compaction I/O over a long
// session's life.
type Snapshot struct {
	Version int           `json:"version"`
	ID      string        `json:"id"`
	Config  SessionConfig `json:"config"`
	Events  []Event       `json:"events"`
	// Epoch is the ownership epoch at snapshot time (0 decodes as 1 for
	// pre-cluster snapshots). A handoff ships the snapshot together with
	// the epoch the receiver must fence at.
	Epoch uint64 `json:"epoch,omitempty"`
	// Owner names the cluster node that held the session at snapshot time
	// ("" = the hash-ring owner). Carrying it in the snapshot keeps the
	// ownership override alive across compactions, which prune the fence
	// records that first established it.
	Owner string `json:"owner,omitempty"`

	// Informational (recomputed on restore).
	Observations int       `json:"observations"`
	Pending      int       `json:"pending"`
	Theta        []float64 `json:"theta,omitempty"`     // GP hyperparameters at snapshot time
	LogNoise     *float64  `json:"log_noise,omitempty"` // nil before the first hyperfit
	BestX        []float64 `json:"best_x,omitempty"`
	BestY        *float64  `json:"best_y,omitempty"`
}

// snapshot renders the actor-side state as a Snapshot document. Events is a
// capacity-capped prefix of the session's append-only event array, not a
// copy (see session.status): the HTTP handler, the handoff sender and the
// compaction goroutine encode it off the actor.
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

// replay applies recorded events to a freshly built, not-yet-started
// session. Asks are re-derived — not injected — and verified bit-for-bit
// against the recorded proposals, so a log from a diverging binary (or a
// tampered one) fails loudly instead of silently continuing a different
// run. JSON float64 round-trips exactly (encoding/json emits the shortest
// representation that parses back to the same bits), so the comparison is
// legitimate. base offsets event indices in errors when replaying a tail
// on top of a snapshot.
func (s *session) replay(events []Event, base int) error {
	for i, ev := range events {
		n := base + i
		switch ev.Kind {
		case "ask":
			p, ok, err := s.at.Suggest()
			if err != nil {
				return fmt.Errorf("serve: replaying event %d: %w", n, err)
			}
			if !ok || p.ID != ev.ID || !core.EqualPoints(p.X, ev.X) {
				return fmt.Errorf("%w (event %d: got id=%d x=%v, recorded id=%d x=%v)",
					ErrSnapshotDiverged, n, p.ID, p.X, ev.ID, ev.X)
			}
			s.events = append(s.events, ev)
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
			s.events = append(s.events, ev)
		default:
			return fmt.Errorf("serve: unknown event kind %q at %d", ev.Kind, n)
		}
	}
	return nil
}

// verifyAgainst cross-checks the replayed state with a snapshot's
// informational fields; a mismatch means the snapshot was edited or the
// replay semantics drifted.
func (s *session) verifyAgainst(snap *Snapshot) error {
	if snap.Observations != s.at.Observations() || snap.Pending != len(s.ledger) {
		return fmt.Errorf("%w (replayed %d observations / %d pending, snapshot says %d / %d)",
			ErrSnapshotDiverged, s.at.Observations(), len(s.ledger), snap.Observations, snap.Pending)
	}
	if snap.BestY != nil {
		if _, by := s.at.Best(); math.Float64bits(by) != math.Float64bits(*snap.BestY) {
			return fmt.Errorf("%w (replayed best %v, snapshot says %v)", ErrSnapshotDiverged, by, *snap.BestY)
		}
	}
	return nil
}

// restoreSession rebuilds a session from a snapshot by replaying its event
// log against a fresh machine. The returned session is not started: the
// caller binds a durable log and calls start().
func restoreSession(snap Snapshot) (*session, error) {
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("serve: unsupported snapshot version %d (want %d)", snap.Version, SnapshotVersion)
	}
	if snap.ID == "" {
		return nil, errors.New("serve: snapshot has no session id")
	}
	cfg := snap.Config
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	s, err := newSession(snap.ID, cfg)
	if err != nil {
		return nil, err
	}
	if snap.Epoch > 0 {
		s.epoch = snap.Epoch
	}
	s.owner = snap.Owner
	if err := s.replay(snap.Events, 0); err != nil {
		return nil, err
	}
	if err := s.verifyAgainst(&snap); err != nil {
		return nil, err
	}
	return s, nil
}
