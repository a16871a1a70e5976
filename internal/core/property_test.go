package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"easybo/internal/sched"
	"easybo/internal/surrogate"
)

// The property tests drive the machine with a stub model — no GP, a proposer
// that hands out fresh points — so thousands of schedules run in well under
// a second and a failure is the machine's bookkeeping, not numerics.

type freshPoints struct{ n int }

func (p *freshPoints) Propose(surrogate.Surrogate, [][]float64, []float64, []float64, *rand.Rand) ([]float64, float64, error) {
	p.n++ // golden-ratio steps: distinct points with well-mixed bits
	return []float64{math.Mod(float64(p.n)*0.6180339887498949, 1), math.Mod(float64(p.n)*0.4142135623730951, 1)}, 0, nil
}

func stubMachine(t *testing.T, rng *rand.Rand, maxEvals, design int, policy FailurePolicy, cfg AskTellConfig) *AskTell {
	t.Helper()
	cfg.MaxEvals, cfg.Failure = maxEvals, policy
	for i := 0; i < design; i++ {
		cfg.Init = append(cfg.Init, []float64{rng.Float64(), rng.Float64()})
	}
	cfg.Lo, cfg.Hi = []float64{0, 0}, []float64{1, 1}
	cfg.Fit = func([][]float64, []float64) (surrogate.Surrogate, error) { return nil, nil }
	cfg.Proposer = &freshPoints{}
	cfg.Rng = rng
	// Every outcome of a schedule may be a failure: past the design the
	// machine then draws at random instead of refusing to fit on nothing.
	cfg.RandomFallback = true
	at, err := NewAskTell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return at
}

// TestAskTellRandomSchedules plays seeded random schedules of Suggest,
// Observe, failed Observe and Forget against a model of the machine's
// counters.
func TestAskTellRandomSchedules(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		policy := FailurePolicy(seed % 3)
		maxEvals := 4 + rng.Intn(12)
		at := stubMachine(t, rng, maxEvals, rng.Intn(maxEvals+1), policy, AskTellConfig{})

		// The model: what the counters must read after each step.
		var launched, completed, records, skipped, failures, queued int
		var pending []Proposal
		dead := false
		ids := map[int]bool{}

		for step := 0; step < 6*maxEvals && !at.Done(); step++ {
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 4 || len(pending) == 0: // Suggest
				p, ok, err := at.Suggest()
				if dead {
					if !errors.Is(err, at.Err()) || err == nil {
						t.Fatalf("%s: a dead machine suggested (ok=%v err=%v)", ctx, ok, err)
					}
					break
				}
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				wantOK := queued > 0 || launched < maxEvals
				if ok != wantOK {
					t.Fatalf("%s: Suggest ok=%v with %d queued, %d of %d launched", ctx, ok, queued, launched, maxEvals)
				}
				if !ok {
					break
				}
				if ids[p.ID] {
					t.Fatalf("%s: proposal id %d repeated", ctx, p.ID)
				}
				ids[p.ID] = true
				if p.Resubmit != (queued > 0) {
					t.Fatalf("%s: Resubmit=%v with %d queued", ctx, p.Resubmit, queued)
				}
				if p.Resubmit {
					queued-- // resubmissions consume no budget
				} else {
					launched++
				}
				pending = append(pending, p)
			case op < 9: // Observe, a third of them failed
				i := rng.Intn(len(pending))
				p := pending[i]
				pending = append(pending[:i], pending[i+1:]...)
				var evalErr error
				if rng.Intn(3) == 0 {
					evalErr = errors.New("simulator exploded")
				}
				err := at.Observe(p.X, -p.X[0], evalErr)
				switch {
				case dead:
					if err == nil {
						t.Fatalf("%s: a dead machine absorbed an outcome", ctx)
					}
				case evalErr == nil:
					completed++
					records++
				default:
					failures++
					switch {
					case policy == FailAbort || policy == FailResubmit && failures > maxEvals:
						dead = true
					case policy == FailSkip:
						completed++
						skipped++
					default:
						queued++
					}
					if dead != (err != nil) {
						t.Fatalf("%s: failure under %s returned %v", ctx, policy, err)
					}
				}
			default: // Forget: the slot stays spent, nothing else moves
				i := rng.Intn(len(pending))
				if !at.Forget(pending[i].X) {
					t.Fatalf("%s: pending point not found", ctx)
				}
				pending = append(pending[:i], pending[i+1:]...)
			}
			if dead != (at.Err() != nil) {
				t.Fatalf("%s: model dead=%v, machine err=%v", ctx, dead, at.Err())
			}
			if dead {
				continue // a dead machine still forgets pending points on a tell; its counters are moot
			}
			if at.Launched() != launched || launched > maxEvals {
				t.Fatalf("%s: launched %d, model %d, budget %d", ctx, at.Launched(), launched, maxEvals)
			}
			if at.Completed() != completed || at.Observations() != records || at.Failures() != failures {
				t.Fatalf("%s: completed/observations/failures %d/%d/%d, model %d/%d/%d", ctx,
					at.Completed(), at.Observations(), at.Failures(), completed, records, failures)
			}
			if at.Pending() != len(pending)+queued {
				t.Fatalf("%s: pending %d, model %d + %d queued", ctx, at.Pending(), len(pending), queued)
			}
			if at.Done() != (completed >= maxEvals) {
				t.Fatalf("%s: Done=%v at %d of %d", ctx, at.Done(), completed, maxEvals)
			}
		}
		if at.Done() && records+skipped != maxEvals {
			t.Fatalf("seed %d: done with %d records + %d skipped, budget %d", seed, records, skipped, maxEvals)
		}
	}
}

// watchedExecutor is the virtual executor with the driver's dispatch rules
// checked at every launch.
type watchedExecutor struct {
	*sched.VirtualExecutor
	t        *testing.T
	at       *AskTell
	barrier  bool
	resubmit map[[2]uint64]bool // failed points the policy will re-issue
	open     bool               // a batch was opened since the last completion
	launches int
}

func key(x []float64) [2]uint64 { return [2]uint64{math.Float64bits(x[0]), math.Float64bits(x[1])} }

func (w *watchedExecutor) Launch(x []float64) error {
	w.launches++
	if w.resubmit[key(x)] {
		delete(w.resubmit, key(x)) // re-runs inside its barrier
	} else if w.barrier {
		if w.Idle() == w.Workers() {
			w.open = true
		}
		if !w.open {
			w.t.Fatalf("budgeted launch behind the barrier with %d of %d workers busy", w.Workers()-w.Idle(), w.Workers())
		}
	}
	if n := w.at.Launched(); n > w.at.cfg.MaxEvals {
		w.t.Fatalf("launched %d past the budget %d", n, w.at.cfg.MaxEvals)
	}
	return w.VirtualExecutor.Launch(x)
}

func (w *watchedExecutor) Wait() (sched.Result, bool) {
	r, ok := w.VirtualExecutor.Wait()
	w.open = false
	if ok && r.Err != nil && w.at.cfg.Failure == FailResubmit {
		w.resubmit[key(r.X)] = true
	}
	return r, ok
}

// TestRunRandomFailureSets drives Run in both modes over random failure sets
// under all three policies. A point fails on its first visit only, so a
// resubmitted point eventually completes.
func TestRunRandomFailureSets(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		policy := FailurePolicy(seed % 3)
		barrier := seed%2 == 0
		workers := 1 + rng.Intn(5)
		maxEvals := workers + rng.Intn(20)
		failRate := rng.Intn(4) // in eighths; 0 = a clean run
		ctx := fmt.Sprintf("seed %d (%s, barrier=%v, B=%d, budget %d)", seed, policy, barrier, workers, maxEvals)

		var ok, failed []sched.Result
		at := stubMachine(t, rng, maxEvals, rng.Intn(maxEvals+1), policy, AskTellConfig{
			OnResult:  func(r sched.Result) { ok = append(ok, r) },
			OnFailure: func(r sched.Result) { failed = append(failed, r) },
		})
		seen := map[[2]uint64]bool{}
		ex := &watchedExecutor{
			VirtualExecutor: sched.NewVirtual(workers, func(x []float64) (float64, float64) {
				k := key(x)
				first := !seen[k]
				seen[k] = true
				if first && int(k[0]>>7%8) < failRate {
					return math.NaN(), 1 + x[0]
				}
				return -x[0], 1 + x[0]
			}),
			t: t, at: at, barrier: barrier, resubmit: map[[2]uint64]bool{},
		}
		err := at.Run(context.Background(), ex, barrier)

		if policy == FailAbort {
			if (err != nil) != (len(failed) > 0) {
				t.Fatalf("%s: %d failures, Run returned %v", ctx, len(failed), err)
			}
			if err != nil {
				if _, _, serr := at.Suggest(); !errors.Is(serr, at.Err()) || at.Err() == nil {
					t.Fatalf("%s: abort is not sticky: %v", ctx, serr)
				}
				continue
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if !at.Done() || at.Launched() != maxEvals || at.Pending() != 0 {
			t.Fatalf("%s: done=%v launched=%d pending=%d", ctx, at.Done(), at.Launched(), at.Pending())
		}
		switch policy {
		case FailSkip:
			if len(ok)+len(failed) != maxEvals || ex.launches != maxEvals {
				t.Fatalf("%s: %d records + %d skipped over %d launches", ctx, len(ok), len(failed), ex.launches)
			}
		default: // resubmissions consume no budget
			if len(ok) != maxEvals || ex.launches != maxEvals+len(failed) {
				t.Fatalf("%s: %d records, %d failures, %d launches", ctx, len(ok), len(failed), ex.launches)
			}
		}
		if _, more := ex.Wait(); more {
			t.Fatalf("%s: Run returned with evaluations still in flight", ctx)
		}
	}
}
