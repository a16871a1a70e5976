package main

// Group-commit fault injection: many sessions ask/tell concurrently through
// the store-wide commit pipeline, a SIGKILL lands both after a settled
// phase and mid-flight, and recovery must hand back every acknowledged tell
// for the policies whose append path reaches the kernel before the ack
// (always — via the fsync the ack waited on — and interval — via the
// per-append kernel flush). fsync=off may rewind; it must only recover to
// a clean state, never a corrupt one.

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"
)

// ackedTell is one tell the daemon answered 200 for.
type ackedTell struct {
	pid int
	y   float64
}

// groupWorker drives one session: rounds of ask→tell, recording each acked
// tell. With maxRounds < 0 it runs until the daemon dies underneath it
// (transport error) — the mid-flight phase of the kill test — and reports
// true then; an ask answered done, the right answer once the session has
// spent its budget, ends it cleanly and reports false. Errors are reported
// on errs; acks land in the per-session slice (worker-owned).
func groupWorker(d *daemon, id string, maxRounds int, acked *[]ackedTell, errs chan<- error) (killed bool) {
	for round := 0; maxRounds < 0 || round < maxRounds; round++ {
		var a askResp
		code, err := d.call("POST", "/sessions/"+id+"/ask", map[string]any{}, &a)
		if err != nil {
			if maxRounds >= 0 {
				errs <- fmt.Errorf("%s: ask: %v", id, err)
			}
			return true
		}
		if code != http.StatusOK {
			errs <- fmt.Errorf("%s: ask status %d", id, code)
			return false
		}
		if a.Status == "done" && maxRounds < 0 {
			return false
		}
		if a.Status != "ok" {
			errs <- fmt.Errorf("%s: unexpected ask status %q", id, a.Status)
			return false
		}
		y := sphere(a.X)
		code, err = d.call("POST", "/sessions/"+id+"/tell",
			map[string]any{"proposal_id": a.ProposalID, "y": y}, nil)
		if err != nil {
			if maxRounds >= 0 {
				errs <- fmt.Errorf("%s: tell: %v", id, err)
			}
			return true
		}
		if code != http.StatusOK {
			errs <- fmt.Errorf("%s: tell status %d", id, code)
			return false
		}
		*acked = append(*acked, ackedTell{pid: a.ProposalID, y: y})
	}
	return false
}

// TestGroupCommitKill9MultiSession is the group-commit crash smoke: N
// concurrent sessions share one committer, so their acks ride coalesced
// fsync passes; the kill must not be able to take back any of them.
func TestGroupCommitKill9MultiSession(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fault injection is not -short friendly")
	}
	bin, err := buildEasybod()
	if err != nil {
		t.Fatal(err)
	}
	// A budget no session can spend inside the kill fuse below, so the kill
	// lands mid-flight; the check after it holds every policy to that.
	const nSessions, maxEvals = 6, 1024
	for _, fsync := range []string{"always", "interval", "off"} {
		fsync := fsync
		t.Run(fsync, func(t *testing.T) {
			dataDir := t.TempDir()
			port := freePort(t)
			d := startDaemon(t, bin, dataDir, port, fsync)

			ids := make([]string, nSessions)
			for i := range ids {
				ids[i] = fmt.Sprintf("gc-%02d", i)
				// Distinct seeds: concurrent distinct proposals, like a real
				// multi-tenant load.
				spec := sessionSpec(ids[i], maxEvals, 4)
				spec["seed"] = 100 + i
				d.mustCall("POST", "/sessions", spec, nil, http.StatusCreated)
			}

			// Phase 1: a settled burst — every worker completes 4 acked
			// rounds concurrently, all through the shared commit pipeline.
			acked := make([][]ackedTell, nSessions)
			errs := make(chan error, nSessions*4)
			var wg sync.WaitGroup
			for i, id := range ids {
				i, id := i, id
				wg.Add(1)
				go func() {
					defer wg.Done()
					groupWorker(d, id, 4, &acked[i], errs)
				}()
			}
			wg.Wait()

			// Phase 2: the same workers run open-ended while the killer's
			// fuse burns; acks recorded right up to the transport error.
			inFlight := make([]bool, nSessions) // the kill cut the worker off
			killed := make(chan struct{})
			go func() {
				//easybolint:ok walltime test fuse: when the SIGKILL lands never reaches replayed bytes
				time.Sleep(150 * time.Millisecond)
				d.kill()
				close(killed)
			}()
			for i, id := range ids {
				i, id := i, id
				wg.Add(1)
				go func() {
					defer wg.Done()
					inFlight[i] = groupWorker(d, id, -1, &acked[i], errs)
				}()
			}
			wg.Wait()
			<-killed
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			cut, most := 0, 0
			for i, f := range inFlight {
				if f {
					cut++
				}
				most = max(most, len(acked[i]))
			}
			t.Logf("%d of %d sessions mid-flight at the kill; the longest had %d acked tells", cut, nSessions, most)
			if cut == 0 {
				t.Errorf("every session spent its %d evaluations before the kill: nothing was mid-flight", maxEvals)
			}
			if t.Failed() {
				t.FailNow()
			}

			d = startDaemon(t, bin, dataDir, port, fsync)
			for i, id := range ids {
				var st statusResp
				code, err := d.call("GET", "/sessions/"+id, nil, &st)
				if err != nil {
					t.Fatalf("%s: status after restart: %v", id, err)
				}
				if fsync == "off" {
					// The buffered tail — possibly the whole session — may be
					// gone; recovery must only ever land on a clean prefix.
					if code != http.StatusOK && code != http.StatusNotFound {
						t.Errorf("%s: status %d after restart; daemon log:\n%s", id, code, d.logs)
					} else if code == http.StatusOK && st.Aborted != "" {
						t.Errorf("%s: recovered aborted: %q", id, st.Aborted)
					}
					continue
				}
				if code != http.StatusOK {
					t.Fatalf("%s: status %d after restart; daemon log:\n%s", id, code, d.logs)
				}
				if st.Aborted != "" {
					t.Fatalf("%s: recovered aborted: %q", id, st.Aborted)
				}
				// Every acked tell must be in the recovered history, exactly.
				got := map[int]float64{}
				for _, r := range st.Records {
					got[r.ID] = r.Y
				}
				for _, a := range acked[i] {
					y, ok := got[a.pid]
					if !ok {
						t.Errorf("%s: acked tell for proposal %d lost by the crash", id, a.pid)
						continue
					}
					if math.Float64bits(y) != math.Float64bits(a.y) {
						t.Errorf("%s: proposal %d recovered y=%v, acked y=%v", id, a.pid, y, a.y)
					}
				}
			}
		})
	}
}
