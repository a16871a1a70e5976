package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"easybo/internal/stats"
	"easybo/internal/surrogate"
)

// TestModelManagerRestoreResumesAtARefit: a manager put back into the state
// recorded in front of a from-scratch training, on an rng wound to the
// recorded position, trains the same model the original did — and then
// extends it the same way — without having seen any of the fits before. On
// each backend, and across auto's escalation (whose recorded state is the
// exact backend's, the fit itself escalating again).
func TestModelManagerRestoreResumesAtARefit(t *testing.T) {
	lo, hi := []float64{0, 0}, []float64{1, 1}
	x, y := growData(rand.New(rand.NewSource(23)), 90)
	xq := [][]float64{{0.3, 0.7}, {0.9, 0.1}, {0.5, 0.5}}
	for name, o := range map[string]ModelManagerOptions{
		"exact":    {FitIters: 10, RefitEvery: 6, Backend: surrogate.BackendExact},
		"features": {FitIters: 10, Backend: surrogate.BackendFeatures, Features: 32},
		"auto":     {FitIters: 10, RefitEvery: 6, Backend: surrogate.BackendAuto, EscalateAt: 20, Features: 32},
	} {
		o := o
		t.Run(name, func(t *testing.T) {
			type mark struct {
				n   int
				pre ModelState
				pos uint64
			}
			src := stats.NewCountingSource(rand.NewSource(7))
			mm, err := NewModelManager(lo, hi, rand.New(src), o)
			if err != nil {
				t.Fatal(err)
			}
			var marks []mark
			want := map[int][]float64{} // n → predictions of the model Fit returned
			for n := 4; n <= len(y); n += 2 {
				pre, pos := mm.State(), src.Pos()
				m, err := mm.Fit(x[:n], y[:n])
				if err != nil {
					t.Fatal(err)
				}
				if post := mm.State(); post.LastHyperN != pre.LastHyperN {
					if post.LastHyperN != n {
						t.Fatalf("n=%d: LastHyperN moved to %d", n, post.LastHyperN)
					}
					marks = append(marks, mark{n, pre, pos})
				}
				for _, q := range xq {
					mu, sd := m.Predict(q)
					want[n] = append(want[n], mu, sd)
				}
			}
			if len(marks) < 2 {
				t.Fatalf("only %d from-scratch trainings in the run", len(marks))
			}
			for _, mk := range marks {
				src2 := stats.NewCountingSource(rand.NewSource(7))
				mm2, err := NewModelManager(lo, hi, rand.New(src2), o)
				if err != nil {
					t.Fatal(err)
				}
				if err := mm2.Restore(mk.pre); err != nil {
					t.Fatalf("restore at n=%d: %v", mk.n, err)
				}
				if err := src2.SeekTo(mk.pos); err != nil {
					t.Fatal(err)
				}
				// The training itself, then two incremental steps on top.
				for n := mk.n; n <= mk.n+4 && n <= len(y); n += 2 {
					m, err := mm2.Fit(x[:n], y[:n])
					if err != nil {
						t.Fatal(err)
					}
					var got []float64
					for _, q := range xq {
						mu, sd := m.Predict(q)
						got = append(got, mu, sd)
					}
					if !EqualPoints(got, want[n]) {
						t.Fatalf("restored at n=%d, fit at n=%d: predictions %v, the uninterrupted manager had %v", mk.n, n, got, want[n])
					}
				}
				if mm2.Active() != mm.Active() && mk.n >= 20 {
					t.Fatalf("restored at n=%d: active backend %s, want %s", mk.n, mm2.Active(), mm.Active())
				}
			}
		})
	}
}

// TestModelManagerRestoreRejectsImpossibleStates: a recorded state the
// configuration could not have produced is an error, not a panic later inside
// a fit.
func TestModelManagerRestoreRejectsImpossibleStates(t *testing.T) {
	lo, hi := []float64{0, 0}, []float64{1, 1}
	theta := []float64{0, 0, 0} // SE-ARD over two dimensions
	ok := surrogate.ManagerState{Theta: theta, LogNoise: -2, LastHyperN: 5}
	for name, tc := range map[string]struct {
		backend surrogate.Backend
		st      ModelState
	}{
		"features into exact":   {surrogate.BackendExact, ModelState{Active: surrogate.BackendFeatures, ManagerState: ok}},
		"exact into features":   {surrogate.BackendFeatures, ModelState{Active: surrogate.BackendExact, ManagerState: ok}},
		"unknown backend":       {surrogate.BackendAuto, ModelState{Active: "neural", ManagerState: ok}},
		"theta too short":       {surrogate.BackendExact, ModelState{Active: surrogate.BackendExact, ManagerState: surrogate.ManagerState{Theta: theta[:1], LastHyperN: 5}}},
		"trained without theta": {surrogate.BackendFeatures, ModelState{Active: surrogate.BackendFeatures, ManagerState: surrogate.ManagerState{LastHyperN: 5}}},
		"negative count":        {surrogate.BackendExact, ModelState{Active: surrogate.BackendExact, ManagerState: surrogate.ManagerState{Theta: theta, LastHyperN: -1}}},
	} {
		mm, err := NewModelManager(lo, hi, rand.New(rand.NewSource(1)), ModelManagerOptions{Backend: tc.backend})
		if err != nil {
			t.Fatal(err)
		}
		if err := mm.Restore(tc.st); err == nil {
			t.Errorf("%s: restore accepted %+v", name, tc.st)
		}
	}
	mm, _ := NewModelManager(lo, hi, rand.New(rand.NewSource(1)), ModelManagerOptions{Backend: surrogate.BackendAuto})
	if err := mm.Restore(ModelState{Active: surrogate.BackendFeatures, ManagerState: ok}); err != nil || mm.Active() != surrogate.BackendFeatures {
		t.Fatalf("auto manager restored past its escalation: %v, active %s", err, mm.Active())
	}
}

// TestReissueRetracesSuggest: a machine fed its own record through Reissue
// holds the proposals, budget, pending set and resubmit queue of the machine
// that derived them — without maximizing anything or drawing a random number
// — and, its rng wound to where the record stops, carries on identically.
func TestReissueRetracesSuggest(t *testing.T) {
	type step struct {
		p    Proposal // what Suggest issued
		pos  uint64   // rng position after it
		told Proposal // the proposal told back after it (two stay in flight)
		y    float64
		fail bool
	}
	fits := 0
	build := func() (*AskTell, *stats.CountingSource) {
		src := stats.NewCountingSource(rand.NewSource(3))
		rng := rand.New(src)
		_, _, _, fit := asyncFixture(rand.New(rand.NewSource(1))) // a stateless fitter
		return askTellFixture(t, AskTellConfig{
			MaxEvals: 10, Failure: FailResubmit, Rng: rng,
			Fit: func(x [][]float64, y []float64) (surrogate.Surrogate, error) { fits++; return fit(x, y) },
		}), src
	}
	observe := func(at *AskTell, st step) {
		t.Helper()
		var evalErr error
		if st.fail {
			evalErr = errors.New("boom")
		}
		if err := at.Observe(st.told.X, st.y, evalErr); err != nil {
			t.Fatal(err)
		}
	}
	a, srcA := build()
	open := []Proposal{mustSuggest(t, a), mustSuggest(t, a)}
	head := append([]Proposal(nil), open...)
	var steps []step
	for i := 0; ; i++ {
		p, ok, err := a.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		open = append(open, p)
		st := step{p: p, pos: srcA.Pos(), told: open[0], y: -open[0].X[0] - open[0].X[1], fail: i == 1 || i == 4}
		open = open[1:]
		observe(a, st)
		steps = append(steps, st)
	}
	if len(steps) < 8 || !steps[2].p.Resubmit {
		t.Fatalf("the recorded run has %d steps and no resubmission where one was forced: %+v", len(steps), steps)
	}

	for _, fit := range []bool{false, true} {
		for stop := 1; stop < len(steps); stop++ {
			b, srcB := build()
			start, fitsBefore, modelSteps := srcB.Pos(), fits, 0
			for _, p := range head {
				if _, err := b.Reissue(p.X, fit); err != nil {
					t.Fatal(err)
				}
			}
			for _, st := range steps[:stop] {
				p, err := b.Reissue(st.p.X, fit)
				if err != nil {
					t.Fatal(err)
				}
				if p.ID != st.p.ID || p.Init != st.p.Init || p.Resubmit != st.p.Resubmit || p.FailedID != st.p.FailedID {
					t.Fatalf("reissued %+v, the original was %+v", p, st.p)
				}
				if !p.Init && !p.Resubmit {
					modelSteps++
				}
				observe(b, st)
			}
			if srcB.Pos() != start {
				t.Fatalf("fit=%v: Reissue drew %d random values", fit, srcB.Pos()-start)
			}
			if got := fits - fitsBefore; (fit && got != modelSteps) || (!fit && got != 0) {
				t.Fatalf("fit=%v: %d surrogate refreshes over %d model-based steps", fit, got, modelSteps)
			}
			if err := srcB.SeekTo(steps[stop-1].pos); err != nil {
				t.Fatal(err)
			}
			for _, st := range steps[stop:] {
				p := mustSuggest(t, b)
				if p.ID != st.p.ID || !EqualPoints(p.X, st.p.X) || srcB.Pos() != st.pos {
					t.Fatalf("fit=%v, rebuilt through step %d: next proposal %+v at rng %d, the original run had %+v at %d",
						fit, stop, p, srcB.Pos(), st.p, st.pos)
				}
				observe(b, st)
			}
			if b.Launched() != a.Launched() || b.Completed() != a.Completed() || b.Pending() != a.Pending() || b.Failures() != a.Failures() {
				t.Fatalf("rebuilt machine ended at %d/%d/%d/%d, the original at %d/%d/%d/%d", b.Launched(), b.Completed(), b.Pending(), b.Failures(),
					a.Launched(), a.Completed(), a.Pending(), a.Failures())
			}
		}
	}

	// A record that disagrees with what the machine must issue is refused.
	c, _ := build()
	if _, err := c.Reissue([]float64{0.11, 0.2}, false); err == nil || !strings.Contains(err.Error(), "recorded proposal") {
		t.Fatalf("a wrong initial-design point was reissued: %v", err)
	}
	if _, err := c.Reissue([]float64{0.1}, false); err == nil {
		t.Fatal("a point of the wrong dimension was reissued")
	}
}
