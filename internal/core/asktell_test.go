package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"easybo/internal/sched"
)

func askTellFixture(t *testing.T, cfg AskTellConfig) *AskTell {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	if cfg.Init == nil {
		cfg.Init = [][]float64{{0.1, 0.2}, {0.8, 0.9}, {0.4, 0.5}}
	}
	if cfg.Lo == nil {
		cfg.Lo, cfg.Hi = []float64{0, 0}, []float64{1, 1}
	}
	if cfg.Fit == nil {
		_, lo, hi, fit := asyncFixture(rng)
		_, _ = lo, hi
		cfg.Fit = fit
	}
	if cfg.Proposer == nil {
		cfg.Proposer = &Proposer{Lambda: 6}
	}
	if cfg.Rng == nil {
		cfg.Rng = rng
	}
	at, err := NewAskTell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return at
}

func mustSuggest(t *testing.T, at *AskTell) Proposal {
	t.Helper()
	p, ok, err := at.Suggest()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Suggest returned no proposal")
	}
	return p
}

func TestAskTellInitialDesignOrder(t *testing.T) {
	init := [][]float64{{0.1, 0.2}, {0.8, 0.9}, {0.4, 0.5}}
	at := askTellFixture(t, AskTellConfig{MaxEvals: 10, Init: init})
	for i := range init {
		p := mustSuggest(t, at)
		if !p.Init {
			t.Fatalf("proposal %d not marked Init", i)
		}
		if !EqualPoints(p.X, init[i]) {
			t.Fatalf("init proposal %d = %v, want %v", i, p.X, init[i])
		}
	}
	if at.InInitialDesign() {
		t.Fatal("initial design should be exhausted")
	}
	if at.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", at.Pending())
	}
}

func TestAskTellSurrogateNeedsObservation(t *testing.T) {
	at := askTellFixture(t, AskTellConfig{MaxEvals: 10})
	for i := 0; i < 3; i++ {
		mustSuggest(t, at)
	}
	// All init points pending, none observed: a surrogate proposal is
	// impossible, but the machine must stay alive.
	if _, _, err := at.Suggest(); err == nil || !strings.Contains(err.Error(), "no successful observation") {
		t.Fatalf("want no-observation error, got %v", err)
	}
	if err := at.Observe([]float64{0.1, 0.2}, -1.0, nil); err != nil {
		t.Fatal(err)
	}
	if err := at.Observe([]float64{0.8, 0.9}, -2.0, nil); err != nil {
		t.Fatal(err)
	}
	p := mustSuggest(t, at)
	if p.Init || p.Resubmit {
		t.Fatalf("expected surrogate proposal, got %+v", p)
	}
	if x, y := at.Best(); y != -1.0 || !EqualPoints(x, []float64{0.1, 0.2}) {
		t.Fatalf("Best = %v %v", x, y)
	}
}

func TestAskTellBudgetExhaustion(t *testing.T) {
	at := askTellFixture(t, AskTellConfig{MaxEvals: 3})
	for i := 0; i < 3; i++ {
		mustSuggest(t, at)
	}
	if _, ok, err := at.Suggest(); ok || err != nil {
		t.Fatalf("budget exhausted: ok=%v err=%v", ok, err)
	}
	if at.Done() {
		t.Fatal("not done before outcomes arrive")
	}
	for i, x := range [][]float64{{0.1, 0.2}, {0.8, 0.9}, {0.4, 0.5}} {
		if err := at.Observe(x, float64(-i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !at.Done() {
		t.Fatal("machine must be done after MaxEvals outcomes")
	}
	if at.Pending() != 0 {
		t.Fatalf("pending = %d after full drain", at.Pending())
	}
}

func TestAskTellResubmitPrecedesEverything(t *testing.T) {
	at := askTellFixture(t, AskTellConfig{MaxEvals: 10, Failure: FailResubmit})
	p0 := mustSuggest(t, at)
	failed := sched.Result{ID: 41, X: p0.X, Y: math.NaN(), Err: sched.ErrNaN}
	if err := at.ObserveResult(failed); err != nil {
		t.Fatal(err)
	}
	// The resubmission must outrank the remaining initial design.
	p := mustSuggest(t, at)
	if !p.Resubmit || p.FailedID != 41 {
		t.Fatalf("want resubmit of failed id 41, got %+v", p)
	}
	if !EqualPoints(p.X, p0.X) {
		t.Fatalf("resubmitted %v, want %v", p.X, p0.X)
	}
	if at.Launched() != 1 {
		t.Fatalf("resubmission consumed budget: launched = %d", at.Launched())
	}
	if at.Failures() != 1 {
		t.Fatalf("failures = %d", at.Failures())
	}
}

func TestAskTellSkipConsumesBudget(t *testing.T) {
	at := askTellFixture(t, AskTellConfig{MaxEvals: 3, Failure: FailSkip})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := mustSuggest(t, at)
		if err := at.Observe(p.X, bad, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !at.Done() {
		t.Fatal("3 skipped failures must exhaust a budget of 3")
	}
	if at.Observations() != 0 {
		t.Fatalf("observations = %d, want 0", at.Observations())
	}
	if _, best := at.Best(); !math.IsInf(best, -1) {
		t.Fatalf("a failed evaluation became the incumbent: %v", best)
	}
}

func TestAskTellAbortIsSticky(t *testing.T) {
	at := askTellFixture(t, AskTellConfig{MaxEvals: 10})
	p := mustSuggest(t, at)
	err := at.Observe(p.X, 0, errors.New("simulator exploded"))
	if err == nil || !strings.Contains(err.Error(), "simulator exploded") {
		t.Fatalf("abort error = %v", err)
	}
	if _, _, err2 := at.Suggest(); !errors.Is(err2, at.Err()) || err2 == nil {
		t.Fatalf("dead machine must keep returning its abort error, got %v", err2)
	}
	if err3 := at.Observe(p.X, 1, nil); err3 == nil {
		t.Fatal("dead machine accepted an observation")
	}
}

func TestAskTellForget(t *testing.T) {
	at := askTellFixture(t, AskTellConfig{MaxEvals: 10})
	p := mustSuggest(t, at)
	mustSuggest(t, at)
	if !at.Forget(p.X) {
		t.Fatal("Forget must find the pending point")
	}
	if at.Forget(p.X) {
		t.Fatal("second Forget of the same point must report false")
	}
	if at.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", at.Pending())
	}
}

func TestAskTellRandomFallback(t *testing.T) {
	at := askTellFixture(t, AskTellConfig{Init: [][]float64{{0.5, 0.5}}, MinFitObs: 2, RandomFallback: true})
	mustSuggest(t, at)
	// Unbounded machine, no observations yet: falls back to random draws
	// inside the box instead of erroring.
	for i := 0; i < 4; i++ {
		p := mustSuggest(t, at)
		for j, v := range p.X {
			if v < 0 || v > 1 {
				t.Fatalf("random fallback left the box: x[%d]=%v", j, v)
			}
		}
	}
	if at.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", at.Pending())
	}
}

func TestAskTellUnsuggestedObservationEnriches(t *testing.T) {
	at := askTellFixture(t, AskTellConfig{MaxEvals: 10})
	if err := at.Observe([]float64{0.3, 0.3}, -0.5, nil); err != nil {
		t.Fatal(err)
	}
	if at.Observations() != 1 || at.Pending() != 0 {
		t.Fatalf("obs=%d pending=%d", at.Observations(), at.Pending())
	}
}
