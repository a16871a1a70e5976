package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"easybo/internal/core"
	"easybo/internal/sched"
	"easybo/internal/stats"
	"easybo/internal/surrogate"
)

// Event is one entry of a session's append-only ask/tell log. The log is
// the session's source of truth for snapshot/restore and for the durable
// write-ahead log: replaying it against a fresh machine reconstructs the
// exact session state (§ restart safety in the package comment).
//
// Kinds:
//
//	"ask"   a proposal was issued (ID, X)
//	"tell"  an outcome was absorbed (ID, X, Y or Err)
//	"abort" the machine died on the preceding tell (Err holds the abort
//	        error); replay verifies the dead state rather than mutating
//
// Rng and Ckpt are what lets recovery start from the middle of the log
// instead of its beginning (see session.replay). Both are additive: a log
// written before they existed simply has neither and is replayed in full. So
// is Gen, which says whether replay can derive an ask again at all.
type Event struct {
	Kind string    `json:"kind"`
	ID   int       `json:"id"`            // proposal id (asks; tells that referenced one, else -1)
	X    []float64 `json:"x,omitempty"`   // proposal / observed point
	Y    float64   `json:"y,omitempty"`   // observed value (tells; 0 when failed)
	Err  string    `json:"err,omitempty"` // failure message (failed tells, abort reason)
	// IK is the request's idempotency key, recorded so a retried
	// at-least-once delivery (a cluster forward whose response was lost, a
	// worker resending a tell) is recognized as already applied — across
	// crashes too, because the key rides in the WAL with the event it
	// keyed. Empty for requests that carried none.
	IK string `json:"ik,omitempty"`
	// Rng is the position of the session's random source once this ask was
	// derived: the number of values drawn since the initial design (asks
	// only). Replay that takes an ask's point from the log rather than
	// deriving it seeks the source here instead. 0 means not recorded, which
	// is also what an ask that precedes the first draw records — the design
	// asks — and to the same effect: there is nothing to seek past.
	Rng uint64 `json:"rng,omitempty"`
	// Ckpt is set on an ask whose surrogate refresh trained hyperparameters
	// from scratch: the state that training started from.
	Ckpt *Checkpoint `json:"ckpt,omitempty"`
	// Gen is the proposer generation of the build that derived this ask
	// (core.ProposerGeneration; asks only). A log from before generations
	// were recorded has none, which reads as 0 — the simplex proposer those
	// builds had. Replay derives an ask again, and holds the record to the
	// result, only when the generation is its own; an ask of any other is
	// put back as recorded and reported as unverified (session.replay). Like
	// Ckpt it describes the run rather than feeding it, so chainSum leaves it
	// out and the chains of older logs hash as they always did.
	Gen int `json:"gen,omitempty"`
}

// Checkpoint is everything an ask read that is not in the events before it:
// the surrogate manager's state and the random source's position as they
// stood before the ask, with the observation count and a hash of the earlier
// events to tie it to its place in the log. It is recorded only in front of
// a from-scratch hyperparameter training because that is where the live run
// itself discards the incrementally grown model and rebuilds it from this
// state, the observations and the rng — so a recovery that starts here
// rebuilds exactly what the live run built, and never has to reconstruct a
// grown factor.
type Checkpoint struct {
	Backend    string    `json:"backend"`                // active backend before the fit
	Theta      []float64 `json:"theta,omitempty"`        // absent before the first training
	LogNoise   float64   `json:"log_noise"`              // (never omitted: a zero's sign would not survive)
	LastHyperN int       `json:"last_hyper_n,omitempty"` // observations at the previous training
	N          int       `json:"n"`                      // observations at this ask
	Rng        uint64    `json:"rng"`                    // source position before the ask
	Chain      string    `json:"chain"`                  // chainSum over every earlier event, 16 hex digits
}

// state is the manager state the checkpoint recorded.
func (ck *Checkpoint) state() core.ModelState {
	return core.ModelState{Active: surrogate.Backend(ck.Backend), Theta: ck.Theta, LogNoise: ck.LogNoise, LastHyperN: ck.LastHyperN}
}

// equal compares two checkpoints bit for bit.
func (ck *Checkpoint) equal(o *Checkpoint) bool {
	return ck.Backend == o.Backend && core.EqualPoints(ck.Theta, o.Theta) &&
		math.Float64bits(ck.LogNoise) == math.Float64bits(o.LogNoise) &&
		ck.LastHyperN == o.LastHyperN && ck.N == o.N && ck.Rng == o.Rng && ck.Chain == o.Chain
}

// chainSum folds one event into the session's running hash over the fields
// replay consumes, the variable-length ones behind their length so that
// neighbouring fields cannot trade bytes. Ckpt and Gen are left out — they
// describe the replayed state rather than feeding it, and the audit reads
// them directly. The chain is a consistency check on a log whose frames already
// carry CRCs, not a defence against someone who can rewrite both; it runs on
// every live event, so it mixes a 64-bit word at a time (the FNV-1a step
// widened from bytes to words, with a fold so high bits reach low ones).
func chainSum(h uint64, ev *Event) uint64 {
	h = chainString(h, ev.Kind)
	h = chainWord(h, uint64(int64(ev.ID)))
	h = chainWord(h, uint64(len(ev.X)))
	for _, x := range ev.X {
		h = chainWord(h, math.Float64bits(x))
	}
	h = chainWord(h, math.Float64bits(ev.Y))
	h = chainString(h, ev.Err)
	h = chainString(h, ev.IK)
	return chainWord(h, ev.Rng)
}

func chainWord(h, v uint64) uint64 {
	h = (h ^ v) * 1099511628211
	return h ^ h>>32
}

func chainString(h uint64, s string) uint64 {
	h = chainWord(h, uint64(len(s)))
	for len(s) >= 8 {
		h = chainWord(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
		s = s[8:]
	}
	var tail uint64
	for i := 0; i < len(s); i++ {
		tail |= uint64(s[i]) << (8 * i)
	}
	return chainWord(h, tail)
}

// chainHex is a chain value as a checkpoint records it.
func chainHex(h uint64) string { return fmt.Sprintf("%016x", h) }

// chainSeed is the chain before the first event (the FNV-1a offset basis).
const chainSeed uint64 = 14695981039346656037

// Record is one told evaluation, kept for status reporting and tests.
type Record struct {
	ID  int       `json:"id"` // proposal id, -1 for unsolicited observations
	X   []float64 `json:"x"`
	Y   float64   `json:"y"`
	Err string    `json:"err,omitempty"`
}

// ledgerEntry tracks one outstanding proposal awaiting its tell.
type ledgerEntry struct {
	id int
	x  []float64
}

// AskStatus is the disposition of one ask.
type AskStatus string

const (
	// AskOK: a proposal was issued.
	AskOK AskStatus = "ok"
	// AskWait: the suggestion budget is exhausted but outcomes are still
	// outstanding; ask again after more tells arrive.
	AskWait AskStatus = "wait"
	// AskDone: the session consumed its whole evaluation budget.
	AskDone AskStatus = "done"
)

// Ask is the response to one ask: a proposal to evaluate, or a terminal
// status.
type Ask struct {
	Status AskStatus `json:"status"`
	// No omitempty: the first proposal of a session has ID 0 and must
	// still serialize a proposal_id field for external workers.
	ProposalID int       `json:"proposal_id"`
	X          []float64 `json:"x,omitempty"`
}

// Proposal is one outstanding ask, reported in Status so a worker that
// did not key its asks (a raw HTTP worker, the crash harnesses) can adopt
// orphaned proposals after a daemon crash: the ask was durably logged but
// the response may never have reached its worker. A worker that keys every
// ask, as easybo -serve does, re-sends the ask under its key instead and
// gets the same proposal back.
type Proposal struct {
	ProposalID int       `json:"proposal_id"`
	X          []float64 `json:"x"`
}

// Tell reports one evaluation back to a session. Either ProposalID (from a
// previous Ask) or X identifies the point; Error marks the evaluation
// failed (crashed or diverged simulator), in which case Y is ignored.
//
// IK is an optional idempotency key: a tell resent with the same key is
// acknowledged with the current TellAck instead of being applied twice, so
// at-least-once delivery (client retries, cluster forwarding) yields
// exactly-once observation.
//
// On the wire y is required unless error is set: the HTTP layer rejects a
// tell carrying neither rather than record the observation y = 0.
type Tell struct {
	ProposalID *int      `json:"proposal_id,omitempty"`
	X          []float64 `json:"x,omitempty"`
	Y          float64   `json:"y"`
	Error      string    `json:"error,omitempty"`
	IK         string    `json:"ik,omitempty"`
}

// TellAck acknowledges one tell. It is constant-size — the session's
// identity, its five counters, the terminal flags and the incumbent — so a
// tell costs the same at observation 10 and at observation 10000. The JSON
// field names are the ones Status uses; a client wanting the history reads
// GET /sessions/{id}, with ?since= to page it.
type TellAck struct {
	ID           string    `json:"id"`
	Epoch        uint64    `json:"epoch,omitempty"`
	Observations int       `json:"observations"`
	Pending      int       `json:"pending"`
	Completed    int       `json:"completed"`
	Launched     int       `json:"launched"`
	Failures     int       `json:"failures"`
	Done         bool      `json:"done"`
	Aborted      string    `json:"aborted,omitempty"`
	BestX        []float64 `json:"best_x,omitempty"`
	BestY        *float64  `json:"best_y,omitempty"`
}

// Status is a session's externally visible state: what GET /sessions/{id}
// answers, and the only response whose size grows with the history. Records
// and Failed share the session's append-only backing arrays (see
// session.status); they are read-only.
type Status struct {
	ID     string        `json:"id"`
	Config SessionConfig `json:"config"`
	// Epoch is the session's current ownership epoch (1 until a cluster
	// handoff or failover adoption moves it).
	Epoch uint64 `json:"epoch,omitempty"`
	// SurrogateActive is the backend currently serving fits ("exact" until
	// an auto escalation, "features" after).
	SurrogateActive string `json:"surrogate_active"`
	Observations    int    `json:"observations"` // successful tells absorbed
	Pending         int    `json:"pending"`      // proposals awaiting their tell
	Completed       int    `json:"completed"`    // budget slots consumed (successes + skipped failures)
	Launched        int    `json:"launched"`     // budgeted proposals issued
	Failures        int    `json:"failures"`     // failed tells handled
	Done            bool   `json:"done"`
	Aborted         string `json:"aborted,omitempty"` // abort error, once dead
	// Outstanding lists the pending proposals (ask order) so a worker
	// fleet can re-adopt in-flight work after a crash recovery.
	Outstanding []Proposal `json:"outstanding,omitempty"`
	BestX       []float64  `json:"best_x,omitempty"`
	BestY       *float64   `json:"best_y,omitempty"` // nil before the first observation
	// Records lists the successful observations in tell order; under
	// ?since=N only Records[N:], with Observations the next cursor.
	Records []Record `json:"records,omitempty"`
	Failed  []Record `json:"failed,omitempty"`
}

// session is one optimization run hosted by the service. All fields below
// the channels are actor-owned: only the run goroutine touches them after
// start(), so the GP surrogate, the rng, and the event log need no locks.
// (Construction and log replay happen before start, single-threaded.)
type session struct {
	id      string
	mailbox chan func()
	quit    chan struct{}
	stopped chan struct{}
	started bool

	cfg SessionConfig
	at  *core.AskTell
	mm  *core.ModelManager
	// src is the machine's random source. Every draw happens on the actor
	// (the acquisition maximizer draws up front, before it fans out), so its
	// position between requests is well defined; asks record it.
	src    *stats.CountingSource
	chain  uint64     // chainSum over events
	log    SessionLog // durable write-ahead log
	logErr error      // poisoned: a durable append or compaction failed
	// events, recs and failed are append-only and an appended element is
	// never written again — its X slice included. status() and snapshot()
	// rely on that: they hand out capacity-capped prefixes of these arrays
	// for other goroutines to read while the actor keeps appending past
	// them.
	events []Event
	recs   []Record
	failed []Record
	ledger []ledgerEntry // outstanding proposals, ask order

	// lastSeq is the WAL sequence of the newest append; requests return it
	// in their commitTicket so the HTTP layer can wait for durability off
	// the actor (group commit). compacting marks a snapshot commit running
	// on its own goroutine so the cadence never starts two.
	lastSeq    uint64
	compacting bool

	// Cluster ownership state. epoch is the session's current ownership
	// epoch (1 until it moves); fenced marks a session whose ownership is
	// transferring away — every mutating request fails with ErrStaleEpoch
	// so nothing this node accepts can diverge from the new owner. owner
	// names the cluster node holding the session ("" = whatever the hash
	// ring says); it rides in snapshots and fence records so a rebooted
	// previous owner can tell the session moved while it was down.
	epoch  uint64
	fenced bool
	owner  string

	// Idempotency dedup, rebuilt from the event log on replay: ikAsks maps
	// a key to the exact Ask it produced (a retried forward must see the
	// same proposal, not consume a second one); ikTells records applied
	// tell keys (lookups and point stores only — never ranged, so replay
	// determinism is untouched).
	ikAsks  map[string]Ask
	ikTells map[string]bool

	// evalGauge counts live outstanding proposals daemon-wide for admission
	// control; incremented on each issued ask, decremented when the ledger
	// entry is consumed, reconciled on close. Bound by the server before
	// start(); it touches only live ask/tell handling, never replay.
	evalGauge *atomic.Int64
}

// newMachine builds the deterministic ask/tell machine a config describes:
// seeded rng, Latin-hypercube initial design, shared surrogate manager, and
// the per-session failure policy. Everything is drawn from the one
// rand.NewSource(cfg.Seed) stream, in NewMachine's order; once the design is
// out, a draw counter goes in front of the generator, and is returned so
// that the session can record and restore its position. (The design is a
// fixed prefix of the stream that nothing ever needs to seek into, and it can
// be 10⁵ points; counting it would only tax it.)
func newMachine(cfg SessionConfig) (*core.AskTell, *core.ModelManager, *stats.CountingSource, error) {
	var policy core.FailurePolicy
	switch cfg.Failure {
	case "skip":
		policy = core.FailSkip
	case "resubmit":
		policy = core.FailResubmit
	default:
		policy = core.FailAbort
	}
	bare := rand.NewSource(cfg.Seed)
	design := stats.LatinHypercubeIn(rand.New(bare), cfg.InitPoints, cfg.Lo, cfg.Hi)
	src := stats.NewCountingSource(bare)
	at, mm, err := core.NewMachine(rand.New(src), cfg.InitPoints, core.ModelManagerOptions{
		RefitEvery: cfg.RefitEvery,
		FitIters:   cfg.FitIters,
		Backend:    surrogate.Backend(cfg.Surrogate),
		EscalateAt: cfg.EscalateAt,
	}, core.AskTellConfig{
		MaxEvals: cfg.MaxEvals,
		Init:     design,
		Lo:       cfg.Lo, Hi: cfg.Hi,
		Proposer: &core.Proposer{
			Lambda:   cfg.Lambda,
			Penalize: cfg.Algorithm != "easybo-a",
		},
		Failure:     policy,
		MaxFailures: cfg.MaxFailures,
		// A service must never starve an asker that out-asks its tells:
		// below two observations, fall back to uniform random proposals.
		MinFitObs:      2,
		RandomFallback: true,
	})
	return at, mm, src, err
}

// newSession builds a session without starting its actor; the caller binds
// a durable log (or replays events) and then calls start().
func newSession(id string, cfg SessionConfig) (*session, error) {
	at, mm, src, err := newMachine(cfg)
	if err != nil {
		return nil, err
	}
	return &session{
		id:      id,
		mailbox: make(chan func()),
		quit:    make(chan struct{}),
		stopped: make(chan struct{}),
		cfg:     cfg,
		at:      at,
		mm:      mm,
		src:     src,
		chain:   chainSeed,
		epoch:   1,
		ikAsks:  map[string]Ask{},
		ikTells: map[string]bool{},
	}, nil
}

// start launches the actor goroutine; after this, session state may only be
// touched through do().
func (s *session) start() {
	s.started = true
	go s.run()
}

// run is the actor loop: it alone touches the session state.
func (s *session) run() {
	defer close(s.stopped)
	for {
		select {
		case f := <-s.mailbox:
			f()
		case <-s.quit:
			return
		}
	}
}

// do executes f on the actor goroutine and waits for it. It fails with
// ErrSessionClosed once the session is shut down.
func (s *session) do(f func()) error {
	done := make(chan struct{})
	job := func() { f(); close(done) }
	select {
	case s.mailbox <- job:
	case <-s.quit:
		return ErrSessionClosed
	}
	select {
	case <-done:
		return nil
	case <-s.quit:
		// The actor may have run the job in the same instant it was told
		// to quit; prefer the completed result when both raced.
		select {
		case <-done:
			return nil
		default:
			return ErrSessionClosed
		}
	}
}

// close shuts the actor down, waits for it to drain, and then flushes and
// closes the durable log — so an event accepted before shutdown is on
// stable storage before the process exits. Idempotent via the registry
// (which removes the session before closing it exactly once).
func (s *session) close() {
	close(s.quit)
	if s.started {
		// After quit, the actor finishes at most the job it is running and
		// returns; once stopped is closed, no goroutine touches the log.
		<-s.stopped
	}
	if s.log != nil {
		_ = s.log.Close()
	}
	// The actor is drained, so the ledger is stable: retire this session's
	// outstanding proposals from the admission gauge.
	s.gaugeDone(len(s.ledger))
}

// --------------------------------------------------------------- requests
// The methods below are the actor-side request handlers; Server invokes
// them through do().

// logAppend write-ahead-logs one event, remembering its sequence number as
// the session's durability watermark. A failed append poisons the session:
// durability is the contract, so rather than silently diverging from its
// log the session refuses further work.
func (s *session) logAppend(ev Event) error {
	seq, err := s.log.Append(ev)
	if err != nil {
		s.logErr = fmt.Errorf("serve: write-ahead log append failed, session poisoned: %w", err)
		return s.logErr
	}
	s.lastSeq = seq
	return nil
}

// commitTicket is a request's durability obligation: the handler that got
// one must wait() — off the actor goroutine — before acknowledging to the
// client. Waiting on the session's newest sequence covers every event the
// request appended (sequences only grow and a sync covers its whole
// prefix); a zero ticket means nothing durable is owed.
type commitTicket struct {
	log SessionLog
	seq uint64
}

// wait blocks until the ticket's record is on stable storage (under
// fsync=always; a no-op otherwise — see SessionLog.WaitDurable). An error
// means the ack must not be sent.
func (t commitTicket) wait() error {
	if t.log == nil {
		return nil
	}
	return t.log.WaitDurable(t.seq)
}

// ticket snapshots the session's current durability obligation (actor side).
func (s *session) ticket() commitTicket {
	return commitTicket{log: s.log, seq: s.lastSeq}
}

// maybeCompact starts a snapshot compaction when the durable log asks for
// one. The actor pays only the seal (a segment rotation) and an O(1)
// snapshot of the event prefix; the encode and write — the expensive part,
// O(history) — run on their own goroutine so a large-n compaction does not
// head-of-line-block asks behind it. The prefix is never written after the
// seal (the actor only ever appends past it), so the off-actor marshal is
// race-free. A commit failure poisons the session through the mailbox,
// exactly like a failed append.
func (s *session) maybeCompact() {
	if s.logErr != nil || s.compacting || !s.log.CompactionDue() {
		return
	}
	commit, err := s.log.BeginCompact()
	if err != nil {
		s.logErr = fmt.Errorf("serve: snapshot compaction failed, session poisoned: %w", err)
		return
	}
	s.compacting = true
	snap := s.snapshot()
	go func() {
		cerr := commit(snap)
		// Land the outcome back on the actor so compacting and logErr stay
		// actor-owned. A session closed mid-commit already aborted the
		// commit quietly against its closed log; the skipped reset is moot.
		_ = s.do(func() {
			s.compacting = false
			if cerr != nil && s.logErr == nil {
				s.logErr = fmt.Errorf("serve: snapshot compaction failed, session poisoned: %w", cerr)
			}
		})
	}()
}

// staleErr renders the fencing rejection for this session.
func (s *session) staleErr() error {
	return fmt.Errorf("%w: session %q moved owners at epoch %d", ErrStaleEpoch, s.id, s.epoch)
}

// ask issues the next proposal (or a wait/done status) and logs it. The
// event is appended write-ahead and the returned commitTicket names it: the
// caller must wait the ticket before handing the proposal out, so a crash
// after the response leaves the proposal recoverable as outstanding work.
// ik, when non-empty, makes the ask idempotent: a retried delivery of the
// same key gets the originally issued proposal back instead of consuming a
// second budget slot (its ticket covers the original event, which may still
// be riding a group-commit pass).
func (s *session) ask(ik string) (Ask, commitTicket, error) {
	if s.fenced {
		return Ask{}, commitTicket{}, s.staleErr()
	}
	if s.logErr != nil {
		return Ask{}, commitTicket{}, s.logErr
	}
	if ik != "" {
		if a, ok := s.ikAsks[ik]; ok {
			return a, s.ticket(), nil
		}
	}
	p, ok, ck, err := s.suggest()
	if err != nil {
		return Ask{}, commitTicket{}, err
	}
	if !ok {
		if s.at.Done() {
			return Ask{Status: AskDone}, commitTicket{}, nil
		}
		return Ask{Status: AskWait}, commitTicket{}, nil
	}
	ev := Event{Kind: "ask", ID: p.ID, X: p.X, IK: ik, Rng: s.src.Pos(), Ckpt: ck, Gen: core.ProposerGeneration}
	if err := s.logAppend(ev); err != nil {
		return Ask{}, commitTicket{}, err
	}
	s.record(ev)
	s.ledger = append(s.ledger, ledgerEntry{id: p.ID, x: p.X})
	if s.evalGauge != nil {
		s.evalGauge.Add(1)
	}
	a := Ask{Status: AskOK, ProposalID: p.ID, X: p.X}
	if ik != "" {
		s.ikAsks[ik] = a
	}
	s.maybeCompact()
	return a, s.ticket(), nil
}

// suggest derives the machine's next proposal and, when the surrogate refresh
// behind it trained hyperparameters from scratch, the checkpoint that ask is
// logged with. The live ask and replay's re-derivation are both this one
// step, so a checkpoint the audit recomputes is the one the live run wrote.
func (s *session) suggest() (p core.Proposal, ok bool, ck *Checkpoint, err error) {
	pre, pos, n := s.mm.State(), s.src.Pos(), s.at.Observations()
	p, ok, err = s.at.Suggest()
	if err != nil || !ok {
		return p, ok, nil, err
	}
	if post := s.mm.State(); post.LastHyperN != pre.LastHyperN || post.Active != pre.Active {
		ck = &Checkpoint{
			Backend: string(pre.Active), Theta: pre.Theta, LogNoise: pre.LogNoise, LastHyperN: pre.LastHyperN,
			N: n, Rng: pos, Chain: chainHex(s.chain),
		}
	}
	return p, true, ck, nil
}

// record appends one event to the history and folds it into the chain.
func (s *session) record(ev Event) {
	s.events = append(s.events, ev)
	s.chain = chainSum(s.chain, &ev)
}

// resolveTell maps a tell onto concrete coordinates, consuming the matching
// ledger entry (by proposal id, or first coordinate match for raw-X tells).
// Unsolicited raw-X tells are allowed — they enrich the surrogate exactly
// like easybo.Loop.Observe does — and resolve to id -1.
func (s *session) resolveTell(t Tell) (id int, x []float64, err error) {
	if t.ProposalID != nil {
		for i, e := range s.ledger {
			if e.id == *t.ProposalID {
				s.ledger = append(s.ledger[:i], s.ledger[i+1:]...)
				s.gaugeDone(1)
				return e.id, e.x, nil
			}
		}
		return 0, nil, fmt.Errorf("%w: %d", ErrUnknownProposal, *t.ProposalID)
	}
	if len(t.X) != len(s.cfg.Lo) {
		return 0, nil, badRequest(fmt.Errorf("serve: tell dimension %d, want %d", len(t.X), len(s.cfg.Lo)))
	}
	for i, e := range s.ledger {
		if core.EqualPoints(e.x, t.X) {
			s.ledger = append(s.ledger[:i], s.ledger[i+1:]...)
			s.gaugeDone(1)
			return e.id, e.x, nil
		}
	}
	return -1, append([]float64(nil), t.X...), nil
}

// gaugeDone retires n outstanding proposals from the daemon-wide
// inflight-evaluation gauge.
func (s *session) gaugeDone(n int) {
	if s.evalGauge != nil && n > 0 {
		s.evalGauge.Add(int64(-n))
	}
}

// tell absorbs one evaluation outcome and logs it. The returned TellAck
// reflects the post-tell session state, and the commitTicket names the
// logged event — the caller must wait it before acknowledging, so no acked
// tell can be lost to a crash. A failed tell under the abort policy kills
// the session and surfaces the abort error next to an ack that says so.
func (s *session) tell(t Tell) (TellAck, commitTicket, error) {
	if s.fenced {
		return TellAck{}, commitTicket{}, s.staleErr()
	}
	if s.logErr != nil {
		return TellAck{}, commitTicket{}, s.logErr
	}
	if t.IK != "" && s.ikTells[t.IK] {
		// Already applied: a resent at-least-once delivery. Acknowledge
		// with the current state; applying again would double-count the
		// observation. The ticket covers the original event in case its
		// group-commit pass is still in flight.
		return s.ack(), s.ticket(), nil
	}
	id, x, err := s.resolveTell(t)
	if err != nil {
		return TellAck{}, commitTicket{}, err
	}
	ev := Event{Kind: "tell", ID: id, X: x, Y: t.Y, IK: t.IK}
	if t.Error != "" {
		ev.Err = t.Error
	} else if math.IsNaN(t.Y) {
		ev.Err = sched.ErrNaN.Error()
	}
	if ev.Err != "" || ev.Y == 0 {
		// Zero Y on failures: NaN is not representable in JSON, and the
		// error string already marks the record as unusable. And one zero
		// only: the log omits a zero Y, so a -0 would come back from it as
		// +0, and the machine must absorb what a replay will read.
		ev.Y = 0
	}
	// Write-ahead, then apply: an aborting tell still mutated the machine,
	// so replay must include it to reproduce the dead state — and a tell
	// that cannot be made durable must not be absorbed at all.
	if err := s.logAppend(ev); err != nil {
		return TellAck{}, commitTicket{}, err
	}
	wasDead := s.at.Err() != nil
	obsErr := s.absorbTell(ev)
	if !wasDead && s.at.Err() != nil {
		// This tell killed the machine: record the abort durably so
		// recovery can verify the dead state instead of deriving it.
		abortEv := Event{Kind: "abort", ID: -1, Err: s.at.Err().Error()}
		if s.logAppend(abortEv) == nil {
			s.record(abortEv)
		}
	}
	s.maybeCompact()
	return s.ack(), s.ticket(), obsErr
}

// absorbTell is the state change of one recorded tell — event history,
// idempotency key, machine, records — and the only one: the live path calls
// it on the event it has just written ahead, replay on every event it reads
// back, so a recovered session cannot drift from the one that wrote the
// log. The failure is rebuilt from the recorded message on both paths (an
// abort event compares messages, not error identities). It returns the
// machine's verdict: the abort error when this tell killed it.
func (s *session) absorbTell(ev Event) error {
	s.record(ev)
	if ev.IK != "" {
		s.ikTells[ev.IK] = true
	}
	var evalErr error
	if ev.Err != "" {
		evalErr = errors.New(ev.Err)
	}
	obsErr := s.at.Observe(ev.X, ev.Y, evalErr)
	rec := Record{ID: ev.ID, X: ev.X, Y: ev.Y, Err: ev.Err}
	if evalErr != nil {
		s.failed = append(s.failed, rec)
	} else if obsErr == nil {
		s.recs = append(s.recs, rec)
	}
	return obsErr
}

// ack renders the constant-size part of the session state (actor side).
func (s *session) ack() TellAck {
	a := TellAck{
		ID:           s.id,
		Epoch:        s.epoch,
		Observations: s.at.Observations(),
		Pending:      len(s.ledger),
		Completed:    s.at.Completed(),
		Launched:     s.at.Launched(),
		Failures:     s.at.Failures(),
		Done:         s.at.Done(),
	}
	if err := s.at.Err(); err != nil {
		a.Aborted = err.Error()
	} else if s.logErr != nil {
		a.Aborted = s.logErr.Error()
	}
	if bx, by := s.at.Best(); bx != nil {
		a.BestX = append([]float64(nil), bx...)
		a.BestY = &by
	}
	return a
}

// status renders the session state (actor side). The actor pays O(pending),
// not O(history): Records and Failed are capacity-capped prefixes of the
// append-only arrays, so the caller encodes them off the actor while later
// tells append past the cap — into the spare capacity the prefix cannot
// reach, or into a fresh array — and never into an element the prefix holds.
func (s *session) status() Status {
	a := s.ack()
	st := Status{
		ID:              a.ID,
		Config:          s.cfg,
		Epoch:           a.Epoch,
		SurrogateActive: string(s.mm.Active()),
		Observations:    a.Observations,
		Pending:         a.Pending,
		Completed:       a.Completed,
		Launched:        a.Launched,
		Failures:        a.Failures,
		Done:            a.Done,
		Aborted:         a.Aborted,
		BestX:           a.BestX,
		BestY:           a.BestY,
		Records:         s.recs[:len(s.recs):len(s.recs)],
		Failed:          s.failed[:len(s.failed):len(s.failed)],
	}
	for _, e := range s.ledger {
		st.Outstanding = append(st.Outstanding, Proposal{ProposalID: e.id, X: append([]float64(nil), e.x...)})
	}
	return st
}
