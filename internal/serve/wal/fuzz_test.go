package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"easybo/internal/serve"
)

// frame renders one valid WAL line for seeding.
func frame(payload string) string {
	return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload)
}

var seedCreate = `{"seq":0,"kind":"create","cfg":{"lo":[0],"hi":[1],"seed":7}}`
var seedEvent = `{"seq":1,"kind":"event","ev":{"kind":"ask","id":0,"x":[0.5]}}`

// FuzzParseRecord checks that the frame decoder never panics on arbitrary
// bytes and that anything it accepts survives a re-frame round trip.
func FuzzParseRecord(f *testing.F) {
	f.Add([]byte(frame(seedCreate)[:len(frame(seedCreate))-1]))
	f.Add([]byte(frame(seedEvent)[:len(frame(seedEvent))-1]))
	f.Add([]byte("00000000 {}"))
	f.Add([]byte("zzzzzzzz {}"))
	f.Add([]byte("deadbeef"))
	f.Add([]byte(""))
	f.Add([]byte("00000000  "))
	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := parseRecord(line)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Whatever decodes must re-frame into a line that decodes to the
		// same identity (unknown JSON fields may be dropped, but seq and
		// kind are the protocol).
		payload := line[9:]
		again, err := parseRecord([]byte(frame(string(payload))[:len(frame(string(payload)))-1]))
		if err != nil {
			t.Fatalf("re-framed accepted payload rejected: %v", err)
		}
		if again.Seq != rec.Seq || again.Kind != rec.Kind {
			t.Fatalf("round trip changed identity: (%d,%q) -> (%d,%q)",
				rec.Seq, rec.Kind, again.Seq, again.Kind)
		}
	})
}

// checkpointedSegment is the segment file of a real session, "fz", stopped
// mid-run with proposals in flight: its asks carry rng positions and the
// model-based ones checkpoints, so a scan that accepts it (or a mutation of
// it) hands recovery a log to resume in the middle of.
func checkpointedSegment(tb testing.TB) []byte {
	tb.Helper()
	root := tb.TempDir()
	st, err := Open(root, Options{Fsync: PolicyOff, CompactEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	sv := serve.NewServerWith(serve.ServerOptions{Store: st})
	defer sv.Close()
	if _, err := sv.Recover(); err != nil {
		tb.Fatal(err)
	}
	post := func(path, body string, out any) {
		w := httptest.NewRecorder()
		sv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if w.Code/100 != 2 {
			tb.Fatalf("POST %s: HTTP %d: %s", path, w.Code, w.Body)
		}
		if out != nil {
			if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
				tb.Fatal(err)
			}
		}
	}
	post("/sessions", `{"id":"fz","lo":[0],"hi":[1],"seed":7,"init_points":3,"max_evals":12,"fit_iters":4,"refit_every":2,"surrogate":"exact"}`, nil)
	var open []serve.Ask
	for told := 0; told < 7; {
		for len(open) < 2 {
			var a serve.Ask
			post("/sessions/fz/ask", `{}`, &a)
			open = append(open, a)
		}
		a := open[0]
		open = open[1:]
		post("/sessions/fz/tell", fmt.Sprintf(`{"proposal_id":%d,"y":%v}`, a.ProposalID, -(a.X[0]-0.3)*(a.X[0]-0.3)), nil)
		told++
	}
	sv.Close()
	seg, err := os.ReadFile(filepath.Join(root, sessionsDirName, "fz", segmentName(1)))
	if err != nil {
		tb.Fatal(err)
	}
	if !bytes.Contains(seg, []byte(`"ckpt":{`)) || !bytes.Contains(seg, []byte(`"theta":[`)) {
		tb.Fatalf("seed session logged no checkpoint with hyperparameters:\n%s", seg)
	}
	return seg
}

// reframed applies edit to every payload of a segment and frames the results
// again, so the mutation reaches the decoder behind a valid CRC.
func reframed(segment []byte, edit func(payload string) string) []byte {
	var out []byte
	for _, line := range strings.Split(strings.TrimSuffix(string(segment), "\n"), "\n") {
		out = append(out, frame(edit(line[9:]))...)
	}
	return out
}

// checkpointSeed is one variant of the checkpointed session's segment and
// what recovery must make of it.
type checkpointSeed struct {
	name    string
	segment []byte
	mode    string // serve.Recover* when the session is served, "" when it is quarantined
}

// checkpointSeeds returns the checkpointed session and the malformed
// checkpoints recovery must survive: undecodable ones quarantine the session
// at the scan, decodable ones send recovery to the full replay.
func checkpointSeeds(tb testing.TB) []checkpointSeed {
	seg := checkpointedSegment(tb)
	sub := func(old, new string) []byte {
		return reframed(seg, func(p string) string { return strings.Replace(p, old, new, 1) })
	}
	lastCkpt := bytes.LastIndex(seg, []byte(`"ckpt":{`))
	inLastCkpt := func(old, new string) []byte {
		i := lastCkpt + bytes.Index(seg[lastCkpt:], []byte(old))
		return reframed(append(append(append([]byte(nil), seg[:i]...), new...), seg[i+len(old):]...),
			func(p string) string { return p })
	}
	return []checkpointSeed{
		{"as written", seg, serve.RecoverCheckpoint},
		{"negative ask position", sub(`"rng":`, `"rng":-`), ""},
		{"negative checkpoint position", inLastCkpt(`"rng":`, `"rng":-`), ""},
		{"theta one too long", inLastCkpt(`"theta":[`, `"theta":[0.5,`), serve.RecoverFallback},
		{"theta missing", inLastCkpt(`"theta":[`, `"theta_":[`), serve.RecoverFallback},
		{"chain truncated", inLastCkpt(`"chain":"`, `"chain":"0`), serve.RecoverFallback},
		{"chain not hex", inLastCkpt(`"chain":"`, `"chain":"zz`), serve.RecoverFallback},
		{"backend swapped", inLastCkpt(`"backend":"exact"`, `"backend":"features"`), serve.RecoverFallback},
		{"position out of range", inLastCkpt(`"rng":`, `"rng":99999999999`), serve.RecoverFallback},
		{"observation count wrong", inLastCkpt(`"n":`, `"n":1`), serve.RecoverFallback},
	}
}

// TestMalformedCheckpointsFallBackOrQuarantine pins what each seed the fuzz
// targets start from does: none panics, and each takes the path it is in the
// corpus to exercise.
func TestMalformedCheckpointsFallBackOrQuarantine(t *testing.T) {
	for _, seed := range checkpointSeeds(t) {
		root := t.TempDir()
		st, err := Open(root, Options{Fsync: PolicyOff})
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(root, sessionsDirName, "fz")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seed.segment, 0o644); err != nil {
			t.Fatal(err)
		}
		sv := serve.NewServerWith(serve.ServerOptions{Store: st})
		rep, err := sv.Recover()
		sv.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case seed.mode == "" && len(rep.Quarantined) == 1:
		case seed.mode != "" && len(rep.Sessions) == 1 && rep.Sessions[0].Mode == seed.mode:
		default:
			t.Errorf("%s: want mode %q, recovery report %+v", seed.name, seed.mode, rep)
		}
	}
}

// recoverScanned boots a server on a store whose one session passed the
// scan. Whatever the log says, the session ends up served or quarantined —
// through the checkpoint, the fallback or neither — and nothing panics.
func recoverScanned(t *testing.T, st *Store) {
	t.Helper()
	sv := serve.NewServerWith(serve.ServerOptions{Store: st})
	defer sv.Close()
	rep, err := sv.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.Recovered) + len(rep.Quarantined); n != 1 {
		t.Fatalf("a session that passed the scan was neither recovered nor quarantined: %+v", rep)
	}
}

// FuzzScanSession feeds an arbitrary byte blob to the full session scanner
// as a segment file. The scanner must never panic, and a scan that
// succeeds must be stable: scanning again (after any torn-tail truncation
// the first pass performed) succeeds with the same decoded history.
func FuzzScanSession(f *testing.F) {
	f.Add([]byte(frame(seedCreate) + frame(seedEvent)))
	f.Add([]byte(frame(seedCreate) + frame(seedEvent) + "0bad"))       // torn tail
	f.Add([]byte(frame(seedEvent)))                                    // event before create
	f.Add([]byte(frame(seedCreate) + frame(seedCreate)))               // duplicate create
	f.Add([]byte("ffffffff {\"seq\":0}\n"))                            // bad crc
	f.Add([]byte(frame(`{"seq":5,"kind":"event","ev":{"kind":"x"}}`))) // seq gap
	f.Add([]byte{})
	for _, seed := range checkpointSeeds(f) {
		f.Add(seed.segment)
	}
	f.Fuzz(func(t *testing.T, segment []byte) {
		root := t.TempDir()
		st, err := Open(root, Options{Fsync: PolicyOff})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		dir := filepath.Join(root, sessionsDirName, "fz")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), segment, 0o644); err != nil {
			t.Fatal(err)
		}
		sc, err := st.scanSession("fz")
		if err != nil {
			return // rejection (quarantine or empty) is a valid outcome
		}
		again, err := st.scanSession("fz")
		if err != nil {
			t.Fatalf("accepted session failed a second scan: %v", err)
		}
		if len(again.events) != len(sc.events) || again.nextSeq != sc.nextSeq {
			t.Fatalf("rescan drifted: %d events seq %d, then %d events seq %d",
				len(sc.events), sc.nextSeq, len(again.events), again.nextSeq)
		}
		recoverScanned(t, st)
	})
}

// FuzzScanSessionWithSnapshot layers the fuzzed segment on top of a valid
// snapshot document, covering the compaction-recovery paths (records below
// snapSeq skipped, stale segments pruned).
func FuzzScanSessionWithSnapshot(f *testing.F) {
	snap := serve.Snapshot{Version: serve.SnapshotVersion, ID: "fz"}
	snap.Config.Lo = []float64{0}
	snap.Config.Hi = []float64{1}
	f.Add(uint64(0), []byte(frame(seedCreate)+frame(seedEvent)))
	f.Add(uint64(2), []byte(frame(seedCreate)+frame(seedEvent)))
	f.Add(uint64(9), []byte("torn"))
	// The checkpointed session with its create record (seq 0) folded into
	// the snapshot: every event, checkpoints included, is log tail.
	for _, seed := range checkpointSeeds(f) {
		f.Add(uint64(1), seed.segment[bytes.IndexByte(seed.segment, '\n')+1:])
	}
	f.Fuzz(func(t *testing.T, nextSeq uint64, segment []byte) {
		root := t.TempDir()
		st, err := Open(root, Options{Fsync: PolicyOff})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		dir := filepath.Join(root, sessionsDirName, "fz")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		doc, err := marshalSnapshotDoc(nextSeq, snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapshotFileName), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(2)), segment, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.scanSession("fz"); err != nil {
			return
		}
		if _, err := st.scanSession("fz"); err != nil {
			t.Fatalf("accepted session failed a second scan: %v", err)
		}
		recoverScanned(t, st)
	})
}

// marshalSnapshotDoc builds the on-disk snapshot document the scanner
// expects: no events yet, under checkpointedSegment's session config.
func marshalSnapshotDoc(nextSeq uint64, snap serve.Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	_, err := fmt.Fprintf(&buf, `{"next_seq":%d,"snapshot":{"version":%d,"id":%q,"config":`+
		`{"lo":[0],"hi":[1],"seed":7,"init_points":3,"max_evals":12,"fit_iters":4,"refit_every":2,"surrogate":"exact"}}}`,
		nextSeq, snap.Version, snap.ID)
	return buf.Bytes(), err
}
