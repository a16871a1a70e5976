package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"

	"easybo/internal/serve"
)

// errEmptySession marks a session directory holding no durable record at
// all — not even its create record. With fsync=off a kill -9 can lose the
// entire buffered log, which is the degenerate clean-prefix rewind: the
// session never durably existed. Recovery frees the id instead of
// quarantining the husk.
var errEmptySession = errors.New("wal: no durable records")

// List implements serve.Store: the persisted session ids, sorted, without
// opening or validating anything.
func (st *Store) List() ([]string, error) { return listSessions(st.root) }

// listSessions names the session directories under a store root.
func listSessions(root string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(root, sessionsDirName))
	if err != nil {
		return nil, fmt.Errorf("wal: listing sessions: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	// ReadDir already sorts by name.
	return ids, nil
}

// LoadSession implements serve.Store: scan one session directory, validate
// its snapshot and segments (CRC per record, strict sequence continuity),
// and return the decoded history with a reopened append handle. A torn
// final line in the final segment — an unterminated partial write, the
// signature of a crash mid-append — is truncated away; any other integrity
// failure, including a complete final record that fails its CRC or
// sequence check, marks the session Corrupt so the server quarantines it.
// A directory holding no durable record at all (fsync=off lost the whole
// buffered log) is freed and reported as ErrUnknownSession.
//
// The scan runs under the session directory's exclusive lock, acquired
// before the first read. A conflict means a live process — one the kernel,
// not a heartbeat, vouches for — is still appending: loading its state
// would both read a moving tail and open the door to a second writer, so
// LoadSession refuses with *serve.HeldElsewhereError naming the last
// durably fenced owner. A dead holder (kill -9 included) releases the lock
// with its process, so crash recovery and failover adoption never wait.
func (st *Store) LoadSession(id string) (serve.PersistedSession, error) {
	ps := serve.PersistedSession{ID: id}
	if err := serve.ValidateSessionID(id); err != nil {
		return ps, fmt.Errorf("%w: %q", serve.ErrUnknownSession, id)
	}
	dir := st.sessionDir(id)
	if _, err := os.Stat(dir); err != nil {
		return ps, fmt.Errorf("%w: %q", serve.ErrUnknownSession, id)
	}
	lf, err := acquireDirLock(dir)
	if errors.Is(err, errLockHeld) {
		return ps, &serve.HeldElsewhereError{ID: id, Owner: st.peekOwner(id)}
	}
	if err != nil {
		return ps, err
	}
	release := func() {
		//easybolint:ok errdrop closing the advisory lock handle releases it either way; nothing was appended under it
		_ = lf.Close()
	}
	sc, err := st.scanSession(id)
	if errors.Is(err, errEmptySession) {
		//easybolint:ok errdrop best-effort: an empty dir that survives is re-freed on the next boot
		_ = os.RemoveAll(dir)
		release()
		return ps, fmt.Errorf("%w: %q (no durable records)", serve.ErrUnknownSession, id)
	}
	if err != nil {
		release()
		ps.Corrupt = err
		return ps, nil
	}
	ps.Config = sc.cfg
	ps.Snapshot = sc.snap
	ps.Events = sc.events
	ps.Epoch = sc.epoch
	if ps.Epoch == 0 {
		ps.Epoch = 1
	}
	ps.Owner = sc.owner
	l, err := st.reopen(id, sc, lf)
	if err != nil {
		release()
		ps.Corrupt = err
		return ps, nil
	}
	ps.Log = l
	return ps, nil
}

// peekOwner reads, without any lock, the node a session's durable state
// last assigned it to: the newest parsable fence record, else the snapshot
// owner. It runs only when the session is locked by a live writer, whose
// in-flight tail may legally tear mid-record — parse errors are expected
// and skipped; the answer is only used to route traffic toward the holder.
func (st *Store) peekOwner(id string) string {
	dir := st.sessionDir(id)
	owner := ""
	if raw, err := os.ReadFile(filepath.Join(dir, snapshotFileName)); err == nil {
		var doc snapshotDoc
		if json.Unmarshal(raw, &doc) == nil {
			owner = doc.Snapshot.Owner
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		return owner
	}
	for _, seg := range segs {
		data, err := os.ReadFile(filepath.Join(dir, seg.path))
		if err != nil {
			continue
		}
		for len(data) > 0 {
			line := data
			if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
				line, data = data[:nl], data[nl+1:]
			} else {
				data = nil
			}
			if rec, perr := parseRecord(line); perr == nil && rec.Kind == "fence" {
				owner = rec.Owner
			}
		}
	}
	return owner
}

// scanResult is one session's decoded on-disk state.
type scanResult struct {
	cfg     serve.SessionConfig
	snap    *serve.Snapshot
	events  []serve.Event
	epoch   uint64 // last fenced ownership epoch (0 = never fenced)
	owner   string // node named by the last fence or the snapshot
	nextSeq uint64 // sequence the live log resumes at
	lastSeg uint64 // highest live segment index (0 = none survive the scan)
}

// ReadAll decodes every session under a store root for an offline reader
// (easybod -verify): the same scan and the same integrity checks as
// LoadSession, but strictly read-only — no directory is created, no lock is
// taken, no log is opened for append, and the repairs a recovery makes (a
// torn final line truncated, a finished compaction's leftovers pruned) are
// skipped over instead of written. It therefore cannot disturb a live daemon
// on the same directory. What it reads of a session that daemon is appending
// to is a consistent prefix; one it happens to be compacting at that instant
// can fail the scan (segments vanish under the reader) and wants a second
// look. A session that fails the scan comes back with Corrupt set; the
// sessions are in id order.
func ReadAll(root string) ([]serve.PersistedSession, error) {
	ids, err := listSessions(root)
	if err != nil {
		return nil, err
	}
	var out []serve.PersistedSession
	for _, id := range ids {
		ps := serve.PersistedSession{ID: id}
		sc, err := scanDir(filepath.Join(root, sessionsDirName, id), id, false)
		switch {
		case errors.Is(err, errEmptySession):
			continue // never durably existed; recovery frees it
		case err != nil:
			ps.Corrupt = err
		default:
			ps.Config, ps.Snapshot, ps.Events = sc.cfg, sc.snap, sc.events
			ps.Epoch, ps.Owner = max(sc.epoch, 1), sc.owner
		}
		out = append(out, ps)
	}
	return out, nil
}

// scanSession reads and validates one session directory, repairing what a
// crash left behind.
func (st *Store) scanSession(id string) (*scanResult, error) {
	return scanDir(st.sessionDir(id), id, true)
}

// scanDir reads and validates one session directory. With repair it also
// finishes what a crash interrupted — removes a stale snapshot tmp, truncates
// a torn final line, prunes segments a snapshot covers — which only the
// directory's lock holder may do; without, it writes nothing.
func scanDir(dir, id string, repair bool) (*scanResult, error) {
	if repair {
		// A crash between writing snapshot.json.tmp and renaming it leaves a
		// stale tmp; the renamed document is the only one that counts.
		//easybolint:ok errdrop best-effort: a stale tmp that survives is removed again on the next boot
		_ = os.Remove(filepath.Join(dir, snapshotFileName+".tmp"))
	}

	sc := &scanResult{}
	haveCreate := false
	var snapSeq uint64 // records below this are covered by the snapshot
	if raw, err := os.ReadFile(filepath.Join(dir, snapshotFileName)); err == nil {
		var doc snapshotDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			return nil, fmt.Errorf("undecodable snapshot document: %w", err)
		}
		if doc.Snapshot.ID != id {
			return nil, fmt.Errorf("snapshot names session %q, stored under %q", doc.Snapshot.ID, id)
		}
		snap := doc.Snapshot
		sc.snap = &snap
		sc.cfg = snap.Config
		sc.epoch = snap.Epoch
		sc.owner = snap.Owner
		sc.nextSeq = doc.NextSeq
		snapSeq = doc.NextSeq
		haveCreate = true // the snapshot subsumes the create record
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("reading snapshot document: %w", err)
	}

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 && sc.snap == nil {
		return nil, errEmptySession
	}
	var stale []string // segments fully covered by the snapshot
	for i, seg := range segs {
		path := filepath.Join(dir, seg.path)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("reading segment %s: %w", seg.path, err)
		}
		last := i == len(segs)-1
		covered := sc.snap != nil // until a live record disproves it
		off := 0
		for off < len(data) {
			lineStart := off
			nl := bytes.IndexByte(data[off:], '\n')
			var line []byte
			if nl < 0 {
				line = data[off:]
				off = len(data)
			} else {
				line = data[off : off+nl]
				off += nl + 1
			}
			rec, perr := parseRecord(line)
			if perr == nil && rec.Seq < snapSeq {
				// Covered by the snapshot: a crash between a compaction's
				// atomic snapshot rename and its segment pruning leaves old
				// segments behind. Their records — the create included —
				// are subsumed by the snapshot, and gaps among them are
				// fine too (the prune itself may have been interrupted
				// partway); skip rather than quarantining a healthy session.
				continue
			}
			covered = false
			if perr == nil && rec.Seq != sc.nextSeq {
				perr = fmt.Errorf("sequence gap: record %d, expected %d", rec.Seq, sc.nextSeq)
			}
			if perr != nil {
				// An unterminated final line of the final segment is a torn
				// append from the crash: truncate it away and resume
				// cleanly. A complete, newline-terminated record that fails
				// its CRC or sequence check is damage (bit rot, an edited
				// log) even at the tail — it may be an acknowledged event,
				// so it must never be silently dropped — and so is any bad
				// line in the middle of history: quarantine.
				if last && nl < 0 {
					if repair {
						if err := os.Truncate(path, int64(lineStart)); err != nil {
							return nil, fmt.Errorf("truncating torn tail of %s: %w", seg.path, err)
						}
					}
					break
				}
				return nil, fmt.Errorf("segment %s record %d: %w", seg.path, sc.nextSeq, perr)
			}
			switch rec.Kind {
			case "create":
				if haveCreate || rec.Seq != 0 {
					return nil, fmt.Errorf("segment %s: unexpected create record at seq %d", seg.path, rec.Seq)
				}
				if rec.Cfg == nil {
					return nil, fmt.Errorf("segment %s: create record has no config", seg.path)
				}
				sc.cfg = *rec.Cfg
				haveCreate = true
			case "event":
				if !haveCreate {
					return nil, fmt.Errorf("segment %s: event before create record", seg.path)
				}
				if rec.Ev == nil {
					return nil, fmt.Errorf("segment %s: event record %d has no event", seg.path, rec.Seq)
				}
				sc.events = append(sc.events, *rec.Ev)
			case "fence":
				if !haveCreate {
					return nil, fmt.Errorf("segment %s: fence before create record", seg.path)
				}
				if rec.Epoch <= sc.epoch {
					// Epochs only ever grow; a regressing fence is an edited
					// or replayed log, not a valid transfer.
					return nil, fmt.Errorf("segment %s: fence epoch %d not after %d", seg.path, rec.Epoch, sc.epoch)
				}
				sc.epoch = rec.Epoch
				sc.owner = rec.Owner
			default:
				return nil, fmt.Errorf("segment %s: unknown record kind %q", seg.path, rec.Kind)
			}
			sc.nextSeq = rec.Seq + 1
		}
		if covered {
			stale = append(stale, path)
		} else {
			sc.lastSeg = seg.n
		}
	}
	if !haveCreate {
		if len(sc.events) == 0 && sc.nextSeq == 0 {
			return nil, errEmptySession
		}
		return nil, fmt.Errorf("no create record and no snapshot")
	}
	// The scan validated the live tail; finish the interrupted compaction by
	// deleting the segments the snapshot fully covers. Best-effort — a
	// leftover is skipped again on the next boot.
	for _, path := range stale {
		if repair {
			//easybolint:ok errdrop best-effort, as documented above: a leftover segment is skipped again next boot
			_ = os.Remove(path)
		}
	}
	return sc, nil
}

// parseRecord validates one framed line: crc8hex SP payload.
func parseRecord(line []byte) (*record, error) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("malformed frame (%d bytes)", len(line))
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("malformed checksum: %w", err)
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != uint32(want) {
		return nil, fmt.Errorf("checksum mismatch (recorded %08x, computed %08x)", want, got)
	}
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Errorf("undecodable payload: %w", err)
	}
	return &rec, nil
}

// reopen builds the live append handle for a scanned session: the last
// segment is opened for append (any torn tail already truncated), and the
// sequence counter resumes where the scan ended.
func (st *Store) reopen(id string, sc *scanResult, lock *os.File) (*Log, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, fmt.Errorf("wal: store closed")
	}
	if old, ok := st.logs[id]; ok {
		// A handoff closes the source's handle but leaves the entry (only
		// Remove/Quarantine delete); adoption reopens over a closed log. A
		// handle that is still live means two writers — refuse.
		old.mu.Lock()
		stale := old.closed
		old.mu.Unlock()
		if !stale {
			return nil, fmt.Errorf("wal: session %q already open", id)
		}
		delete(st.logs, id)
	}
	l := newLog(st, id, st.sessionDir(id))
	l.lock = lock
	l.seq = sc.nextSeq
	// Everything a reopened log resumes from is already on disk.
	l.syncedSeq = sc.nextSeq
	// Resume the compaction cadence where the crash left it: the tail
	// events count as "since the last snapshot", and the snapshot's size
	// sets the growing due-threshold (see Log.CompactionDue).
	l.since = len(sc.events)
	if sc.snap != nil {
		l.base = len(sc.snap.Events)
	}
	if sc.lastSeg > 0 {
		l.seg = sc.lastSeg
	} else {
		// No live segment survived the scan (crash inside compaction's
		// prune/reopen window): start a new segment; the snapshot is the
		// whole state.
		l.seg = 1
	}
	if err := l.openSegment(); err != nil {
		return nil, err
	}
	st.logs[id] = l
	return l, nil
}
