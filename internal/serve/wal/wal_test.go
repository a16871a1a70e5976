package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"easybo/internal/serve"
)

func testConfig() serve.SessionConfig {
	return serve.SessionConfig{
		Lo: []float64{0, 0}, Hi: []float64{1, 1},
		InitPoints: 4, MaxEvals: 16, Seed: 7, FitIters: 8,
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// compactNow seals the log and commits snap as its recovery base in one
// synchronous step.
func compactNow(l serve.SessionLog, snap serve.Snapshot) error {
	commit, err := l.BeginCompact()
	if err != nil {
		return err
	}
	return commit(snap)
}

func askEvent(id int, x ...float64) serve.Event {
	return serve.Event{Kind: "ask", ID: id, X: x}
}

func tellEvent(id int, y float64, x ...float64) serve.Event {
	return serve.Event{Kind: "tell", ID: id, X: x, Y: y}
}

func eventsEqual(a, b []serve.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].ID != b[i].ID || a[i].Y != b[i].Y || a[i].Err != b[i].Err {
			return false
		}
		if fmt.Sprint(a[i].X) != fmt.Sprint(b[i].X) {
			return false
		}
	}
	return true
}

// loadAll scans every persisted session the way serve's Recover does:
// List, then LoadSession each id, skipping one that is gone by then.
func loadAll(t *testing.T, st *Store) []serve.PersistedSession {
	t.Helper()
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	var out []serve.PersistedSession
	for _, id := range ids {
		if ps, err := st.LoadSession(id); err == nil {
			out = append(out, ps)
		}
	}
	return out
}

// loadOne loads the store and returns the single session it must hold.
func loadOne(t *testing.T, st *Store, id string) serve.PersistedSession {
	t.Helper()
	ps := loadAll(t, st)
	if len(ps) != 1 || ps[0].ID != id {
		t.Fatalf("Load = %d sessions (%v), want just %q", len(ps), ps, id)
	}
	return ps[0]
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, pol := range []Policy{PolicyAlways, PolicyInterval, PolicyOff} {
		t.Run(string(pol), func(t *testing.T) {
			sub := filepath.Join(dir, string(pol))
			st := mustOpen(t, sub, Options{Fsync: pol, Interval: 5 * time.Millisecond})
			l, err := st.Begin("rt", testConfig())
			if err != nil {
				t.Fatal(err)
			}
			want := []serve.Event{
				askEvent(0, 0.25, 0.5),
				tellEvent(0, -1.5, 0.25, 0.5),
				askEvent(1, 0.75, 0.125),
				{Kind: "tell", ID: 1, X: []float64{0.75, 0.125}, Err: "sim crashed"},
				{Kind: "abort", ID: -1, Err: "evaluation failed: sim crashed"},
			}
			for _, ev := range want {
				if _, err := l.Append(ev); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			st2 := mustOpen(t, sub, Options{Fsync: pol})
			defer st2.Close()
			ps := loadOne(t, st2, "rt")
			if ps.Corrupt != nil {
				t.Fatalf("clean log reported corrupt: %v", ps.Corrupt)
			}
			if ps.Snapshot != nil {
				t.Fatal("round trip grew a snapshot")
			}
			if ps.Config.Seed != 7 || len(ps.Config.Lo) != 2 {
				t.Fatalf("config did not round-trip: %+v", ps.Config)
			}
			if !eventsEqual(ps.Events, want) {
				t.Fatalf("events diverged:\n got  %+v\n want %+v", ps.Events, want)
			}
			// The reopened log must keep appending with continuous seqs.
			if _, err := ps.Log.Append(askEvent(2, 0.5, 0.5)); err != nil {
				t.Fatal(err)
			}
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}
			st3 := mustOpen(t, sub, Options{Fsync: pol})
			defer st3.Close()
			ps3 := loadOne(t, st3, "rt")
			if ps3.Corrupt != nil || len(ps3.Events) != len(want)+1 {
				t.Fatalf("post-reopen append lost: corrupt=%v events=%d", ps3.Corrupt, len(ps3.Events))
			}
		})
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a rotation every record or two.
	st := mustOpen(t, dir, Options{Fsync: PolicyAlways, SegmentBytes: 64, CompactEvery: -1})
	l, err := st.Begin("rot", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var want []serve.Event
	for i := 0; i < 20; i++ {
		ev := askEvent(i, float64(i)/20, 0.5)
		want = append(want, ev)
		if _, err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(st.sessionDir("rot"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	st.Close()

	st2 := mustOpen(t, dir, Options{})
	defer st2.Close()
	ps := loadOne(t, st2, "rot")
	if ps.Corrupt != nil || !eventsEqual(ps.Events, want) {
		t.Fatalf("rotated log did not round-trip: corrupt=%v got %d events want %d",
			ps.Corrupt, len(ps.Events), len(want))
	}
}

func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{Fsync: PolicyAlways, CompactEvery: 4})
	cfg := testConfig()
	l, err := st.Begin("cp", cfg)
	if err != nil {
		t.Fatal(err)
	}
	pre := []serve.Event{
		askEvent(0, 0.1, 0.1), tellEvent(0, -1, 0.1, 0.1),
		askEvent(1, 0.2, 0.2), tellEvent(1, -2, 0.2, 0.2),
	}
	for _, ev := range pre {
		if _, err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if !l.CompactionDue() {
		t.Fatal("compaction not due after CompactEvery events")
	}
	snap := serve.Snapshot{
		Version: serve.SnapshotVersion, ID: "cp", Config: cfg,
		Events: pre, Observations: 2, Pending: 0,
	}
	if err := compactNow(l, snap); err != nil {
		t.Fatal(err)
	}
	if l.CompactionDue() {
		t.Fatal("compaction still due right after compacting")
	}
	tail := []serve.Event{askEvent(2, 0.3, 0.3)}
	if _, err := l.Append(tail[0]); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := mustOpen(t, dir, Options{})
	defer st2.Close()
	ps := loadOne(t, st2, "cp")
	if ps.Corrupt != nil {
		t.Fatalf("compacted log corrupt: %v", ps.Corrupt)
	}
	if ps.Snapshot == nil || len(ps.Snapshot.Events) != len(pre) {
		t.Fatalf("snapshot base missing or wrong: %+v", ps.Snapshot)
	}
	if !eventsEqual(ps.Events, tail) {
		t.Fatalf("tail events diverged: %+v", ps.Events)
	}
}

// TestWALCrashBetweenSnapshotAndPruneRecovers simulates a kill -9 landing
// inside Compact, after the atomic snapshot rename but before (or partway
// through) the covered segments are pruned. The leftover segments hold only
// records the snapshot subsumes; recovery must skip them — gaps and the
// duplicate create included — not quarantine the healthy session, and must
// finish the interrupted prune itself.
func TestWALCrashBetweenSnapshotAndPruneRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	// Tiny segments so the covered history spans several files.
	st := mustOpen(t, dir, Options{Fsync: PolicyAlways, SegmentBytes: 64, CompactEvery: -1})
	l, err := st.Begin("mid", cfg)
	if err != nil {
		t.Fatal(err)
	}
	pre := []serve.Event{
		askEvent(0, 0.1, 0.1), tellEvent(0, -1, 0.1, 0.1),
		askEvent(1, 0.2, 0.2), tellEvent(1, -2, 0.2, 0.2),
	}
	for _, ev := range pre {
		if _, err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Hand-write the snapshot document Compact would have renamed into
	// place: create record is seq 0, the events are seqs 1..len(pre).
	doc := snapshotDoc{
		NextSeq: uint64(len(pre)) + 1,
		Snapshot: serve.Snapshot{
			Version: serve.SnapshotVersion, ID: "mid", Config: cfg,
			Events: pre, Observations: 2,
		},
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	sdir := st.sessionDir("mid")
	if err := os.WriteFile(filepath.Join(sdir, snapshotFileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// The prune got partway: one covered segment is already gone, leaving a
	// gap in the covered region.
	segs, err := listSegments(sdir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("need >=3 segments to prune a middle one, got %d (err %v)", len(segs), err)
	}
	if err := os.Remove(filepath.Join(sdir, segs[1].path)); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir, Options{Fsync: PolicyAlways})
	ps := loadOne(t, st2, "mid")
	if ps.Corrupt != nil {
		t.Fatalf("healthy session quarantined after crash mid-compaction: %v", ps.Corrupt)
	}
	if ps.Snapshot == nil || len(ps.Snapshot.Events) != len(pre) {
		t.Fatalf("snapshot base missing or wrong: %+v", ps.Snapshot)
	}
	if len(ps.Events) != 0 {
		t.Fatalf("covered records resurrected as tail events: %+v", ps.Events)
	}
	if ps.Config.Seed != cfg.Seed {
		t.Fatalf("config did not come back from the snapshot: %+v", ps.Config)
	}
	// Recovery finished the prune: no covered segment remains.
	left, err := listSegments(sdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range left {
		data, err := os.ReadFile(filepath.Join(sdir, seg.path))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != 0 {
			t.Fatalf("covered segment %s survived recovery with %d bytes", seg.path, len(data))
		}
	}
	// And the log keeps appending with continuous sequence numbers.
	tail := askEvent(2, 0.3, 0.3)
	if _, err := ps.Log.Append(tail); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3 := mustOpen(t, dir, Options{Fsync: PolicyAlways})
	defer st3.Close()
	ps3 := loadOne(t, st3, "mid")
	if ps3.Corrupt != nil {
		t.Fatalf("post-recovery append corrupted the log: %v", ps3.Corrupt)
	}
	if !eventsEqual(ps3.Events, []serve.Event{tail}) {
		t.Fatalf("tail after recovered compaction diverged: %+v", ps3.Events)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{Fsync: PolicyAlways, CompactEvery: -1})
	l, err := st.Begin("torn", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := []serve.Event{askEvent(0, 0.5, 0.5), tellEvent(0, -3, 0.5, 0.5)}
	for _, ev := range want {
		if _, err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Simulate a crash mid-append: garbage half-record at the tail.
	segs, _ := listSegments(st.sessionDir("torn"))
	last := filepath.Join(st.sessionDir("torn"), segs[len(segs)-1].path)
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `deadbeef {"seq":3,"kind":"event","ev":{"kind":"te`)
	f.Close()

	st2 := mustOpen(t, dir, Options{})
	ps := loadOne(t, st2, "torn")
	if ps.Corrupt != nil {
		t.Fatalf("torn tail quarantined instead of truncated: %v", ps.Corrupt)
	}
	if !eventsEqual(ps.Events, want) {
		t.Fatalf("torn tail not truncated cleanly: %+v", ps.Events)
	}
	// The truncation is physical: a re-scan sees a clean log.
	if _, err := ps.Log.Append(askEvent(1, 0.25, 0.25)); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3 := mustOpen(t, dir, Options{})
	defer st3.Close()
	ps3 := loadOne(t, st3, "torn")
	if ps3.Corrupt != nil || len(ps3.Events) != 3 {
		t.Fatalf("post-truncation append lost: corrupt=%v events=%d", ps3.Corrupt, len(ps3.Events))
	}
}

// TestWALCompleteBadTailQuarantines: a complete, newline-terminated final
// record that fails its CRC is damage (bit rot, an edited log), not a torn
// append — under fsync=always it may be an acknowledged durable event, so
// it must quarantine the session, never be silently truncated away.
func TestWALCompleteBadTailQuarantines(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{Fsync: PolicyAlways, CompactEvery: -1})
	l, err := st.Begin("rot13", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(askEvent(i, float64(i)/4, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Flip a payload byte of the final record, keeping its newline intact.
	segs, _ := listSegments(st.sessionDir("rot13"))
	path := filepath.Join(st.sessionDir("rot13"), segs[len(segs)-1].path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Fatal("final record not newline-terminated")
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir, Options{})
	defer st2.Close()
	ps := loadOne(t, st2, "rot13")
	if ps.Corrupt == nil {
		t.Fatal("complete corrupt final record silently truncated instead of quarantined")
	}
	if ps.Log != nil {
		t.Fatal("corrupt session returned an open log")
	}
}

// TestWALCompactionCadenceScalesWithHistory: snapshots embed the full
// history, so the due-threshold must grow with the last snapshot — a fixed
// cadence would rewrite O(n²) bytes over a session's life.
func TestWALCompactionCadenceScalesWithHistory(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	st := mustOpen(t, dir, Options{Fsync: PolicyOff, CompactEvery: 2})
	l, err := st.Begin("scale", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var hist []serve.Event
	appendN := func(lg serve.SessionLog, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			ev := askEvent(len(hist), float64(len(hist))/64, 0.5)
			hist = append(hist, ev)
			if _, err := lg.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(l, 6)
	if !l.CompactionDue() {
		t.Fatal("compaction not due past the CompactEvery floor")
	}
	snap := serve.Snapshot{
		Version: serve.SnapshotVersion, ID: "scale", Config: cfg,
		Events: append([]serve.Event(nil), hist...),
	}
	if err := compactNow(l, snap); err != nil {
		t.Fatal(err)
	}
	// The floor alone (2 events) no longer triggers: the threshold grew to
	// the snapshot's 6 events.
	appendN(l, 2)
	if l.CompactionDue() {
		t.Fatal("cadence did not scale with snapshot size")
	}
	st.Close()

	// The grown threshold survives a restart.
	st2 := mustOpen(t, dir, Options{Fsync: PolicyOff, CompactEvery: 2})
	defer st2.Close()
	ps := loadOne(t, st2, "scale")
	if ps.Corrupt != nil {
		t.Fatal(ps.Corrupt)
	}
	if ps.Log.CompactionDue() {
		t.Fatal("reopened log forgot the snapshot-scaled threshold")
	}
	appendN(ps.Log, 4)
	if !ps.Log.CompactionDue() {
		t.Fatal("compaction not due once the tail matches the snapshot size")
	}
}

// TestWALQuarantineConcurrentWithAppends: Quarantine and Remove are
// documented safe for concurrent use; closing the log out from under a
// writing session must synchronize on the log mutex (exercised under
// -race), with the loser seeing a clean "log closed" error.
func TestWALQuarantineConcurrentWithAppends(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{Fsync: PolicyInterval, Interval: time.Millisecond})
	l, err := st.Begin("live", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1_000_000; i++ {
			if _, err := l.Append(askEvent(i, 0.5, 0.5)); err != nil {
				return // closed underneath us by Quarantine — expected
			}
		}
	}()
	time.Sleep(2 * time.Millisecond)
	if err := st.Quarantine("live", "operator request"); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALMidFileCorruptionQuarantines(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{Fsync: PolicyAlways, CompactEvery: -1})
	l, err := st.Begin("bad", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append(askEvent(i, float64(i)/4, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Flip a byte in the middle of the first record.
	segs, _ := listSegments(st.sessionDir("bad"))
	path := filepath.Join(st.sessionDir("bad"), segs[0].path)
	data, _ := os.ReadFile(path)
	i := strings.IndexByte(string(data), '{')
	data[i+5] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir, Options{})
	defer st2.Close()
	ps := loadOne(t, st2, "bad")
	if ps.Corrupt == nil {
		t.Fatal("mid-file corruption not detected")
	}
	if ps.Log != nil {
		t.Fatal("corrupt session returned an open log")
	}
	if err := st2.Quarantine("bad", ps.Corrupt.Error()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDirName, "bad", "REASON")); err != nil {
		t.Fatalf("quarantine did not preserve forensics: %v", err)
	}
	if sessions := loadAll(t, st2); len(sessions) != 0 {
		t.Fatalf("quarantined session still loads: %+v", sessions)
	}
	// The id stays burned while the quarantine exists.
	if _, err := st2.Begin("bad", testConfig()); !errors.Is(err, serve.ErrDuplicateSession) {
		t.Fatalf("Begin of quarantined id = %v, want duplicate error", err)
	}
}

func TestWALSequenceGapQuarantines(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{Fsync: PolicyAlways, SegmentBytes: 64, CompactEvery: -1})
	l, err := st.Begin("gap", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := l.Append(askEvent(i, float64(i)/12, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	segs, _ := listSegments(st.sessionDir("gap"))
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments to delete a middle one, got %d", len(segs))
	}
	if err := os.Remove(filepath.Join(st.sessionDir("gap"), segs[1].path)); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir, Options{})
	defer st2.Close()
	ps := loadOne(t, st2, "gap")
	if ps.Corrupt == nil || !strings.Contains(ps.Corrupt.Error(), "sequence gap") {
		t.Fatalf("missing middle segment not detected as a gap: %v", ps.Corrupt)
	}
}

func TestWALBeginDuplicateAndRemove(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	defer st.Close()
	if _, err := st.Begin("dup", testConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Begin("dup", testConfig()); !errors.Is(err, serve.ErrDuplicateSession) {
		t.Fatalf("duplicate Begin = %v", err)
	}
	if _, err := st.Begin("../evil", testConfig()); err == nil {
		t.Fatal("path-traversal id accepted")
	}
	if err := st.Remove("dup"); err != nil {
		t.Fatal(err)
	}
	if sessions := loadAll(t, st); len(sessions) != 0 {
		t.Fatalf("removed session still loads: %+v", sessions)
	}
	if _, err := st.Begin("dup", testConfig()); err != nil {
		t.Fatalf("id not reusable after Remove: %v", err)
	}
}

// TestClosedLogLeavesTheDirectoryAlone pins "after Close returns, nothing of
// that log touches the directory". The next opener — an in-process restart,
// or the adopting node after a handoff on a shared store — compacts through
// the same snapshot.json.tmp, so a stale commit of the closed log that
// rewrites or removes that file breaks the new writer's rename.
func TestClosedLogLeavesTheDirectoryAlone(t *testing.T) {
	cfg := testConfig()
	hist := []serve.Event{askEvent(0, 0.1, 0.1), tellEvent(0, -1, 0.1, 0.1)}
	begin := func(t *testing.T, id string, events []serve.Event) (serve.SessionLog, string, func(serve.Snapshot) error) {
		st := mustOpen(t, t.TempDir(), Options{Fsync: PolicyOff, CompactEvery: -1})
		t.Cleanup(func() { st.Close() })
		l, err := st.Begin(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if _, err := l.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
		commit, err := l.BeginCompact()
		if err != nil {
			t.Fatal(err)
		}
		return l, st.sessionDir(id), commit
	}

	// A commit that starts after Close: the tmp file in the directory now
	// belongs to whoever opened it next.
	t.Run("commit after close", func(t *testing.T) {
		l, dir, commit := begin(t, "late", hist)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		tmp := filepath.Join(dir, snapshotFileName+".tmp")
		next := []byte("the next opener's snapshot in flight")
		if err := os.WriteFile(tmp, next, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := commit(serve.Snapshot{Version: serve.SnapshotVersion, ID: "late", Config: cfg, Events: hist}); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(tmp); err != nil || !bytes.Equal(got, next) {
			t.Fatalf("a closed log's commit touched the next opener's tmp file: %q, %v", got, err)
		}
	})

	// A commit racing Close: whatever Close leaves in the directory, the
	// commit must not change afterwards. The snapshot is large so Close
	// usually lands while the tmp file is being written.
	t.Run("commit racing close", func(t *testing.T) {
		big := make([]serve.Event, 20000)
		for i := range big {
			big[i] = askEvent(i, 0.1, 0.2)
		}
		names := func(dir string) string {
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, e := range ents {
				b.WriteString(e.Name() + " ")
			}
			return b.String()
		}
		for i := 0; i < 20; i++ {
			id := fmt.Sprintf("race%d", i)
			l, dir, commit := begin(t, id, hist)
			done := make(chan error, 1)
			go func() {
				done <- commit(serve.Snapshot{Version: serve.SnapshotVersion, ID: id, Config: cfg, Events: big})
			}()
			// Not a synchronization: the delay sweeps where in the commit
			// Close lands.
			time.Sleep(time.Duration(i) * 100 * time.Microsecond)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			atClose := names(dir)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if after := names(dir); after != atClose {
				t.Fatalf("directory changed after Close returned:\n at close: %s\n    after: %s", atClose, after)
			}
		}
	})
}
