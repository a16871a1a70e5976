package easybo_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"easybo"
)

// linearUnderDisk: maximize x+y subject to x²+y² ≤ 1.
// Optimum: (√½, √½) with value √2.
func linearUnderDisk() (easybo.Problem, []easybo.Constraint) {
	p := easybo.Problem{
		Name: "disk",
		Lo:   []float64{-2, -2},
		Hi:   []float64{2, 2},
		Objective: func(x []float64) float64 {
			return x[0] + x[1]
		},
	}
	cons := []easybo.Constraint{
		func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] - 1 },
	}
	return p, cons
}

func TestOptimizeConstrainedDisk(t *testing.T) {
	p, cons := linearUnderDisk()
	res, err := easybo.OptimizeConstrained(p, cons, easybo.Options{
		Workers: 4, MaxEvals: 70, InitPoints: 15, Seed: 3, FitIters: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no feasible design found on an easy problem")
	}
	// The unconstrained max is 4 at (2,2); feasible max is √2 ≈ 1.414.
	if res.BestY > math.Sqrt2+1e-6 {
		t.Fatalf("best %v violates the disk bound", res.BestY)
	}
	if res.BestY < 1.0 {
		t.Fatalf("best %v too far below the constrained optimum √2", res.BestY)
	}
	// The reported best must actually be feasible.
	if c := cons[0](res.BestX); c > 1e-9 {
		t.Fatalf("reported best is infeasible: c=%v at %v", c, res.BestX)
	}
	if len(res.Evaluations) != 70 {
		t.Fatalf("evaluations = %d", len(res.Evaluations))
	}
	for _, e := range res.Evaluations {
		if len(e.Constraints) != 1 {
			t.Fatal("constraint values missing")
		}
		if e.Feasible != (e.Constraints[0] <= 0) {
			t.Fatal("feasibility flag inconsistent")
		}
		if e.Attempts != 1 {
			t.Fatalf("evaluation reports %d attempts; one objective call is 1", e.Attempts)
		}
	}
}

// Algorithm 1 issues a query whenever a worker is idle, so a design smaller
// than the pool must not strand the workers it leaves empty: once the first
// result is in, every idle worker gets a model-based point.
func TestOptimizeConstrainedStartsEveryWorker(t *testing.T) {
	p, cons := linearUnderDisk()
	res, err := easybo.OptimizeConstrained(p, cons, easybo.Options{
		Workers: 8, InitPoints: 3, MaxEvals: 40, Seed: 1, FitIters: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	slots := map[int]bool{}
	type event struct {
		t     float64
		delta int
	}
	var events []event
	for _, e := range res.Evaluations {
		slots[e.Worker] = true
		events = append(events, event{e.Start, 1}, event{e.End, -1})
	}
	// An evaluation ending at t frees its worker before one starting at t.
	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		return events[i].delta < events[j].delta
	})
	running, peak := 0, 0
	for _, ev := range events {
		running += ev.delta
		peak = max(peak, running)
	}
	if len(slots) != 8 || peak != 8 {
		t.Fatalf("%d worker slots used, peak concurrency %d; want 8 and 8", len(slots), peak)
	}
}

func TestOptimizeConstrainedTightFeasibleSet(t *testing.T) {
	// Feasible set is a small ball around (1.5, -0.5); the optimizer must
	// first hunt for feasibility (probability-of-feasibility phase).
	p := easybo.Problem{
		Name: "tight",
		Lo:   []float64{-2, -2},
		Hi:   []float64{2, 2},
		Objective: func(x []float64) float64 {
			return -(x[0] * x[0]) - (x[1] * x[1]) // prefers the origin, which is infeasible
		},
	}
	cons := []easybo.Constraint{
		func(x []float64) float64 {
			dx, dy := x[0]-1.5, x[1]+0.5
			return dx*dx + dy*dy - 0.16 // radius 0.4 ball
		},
	}
	res, err := easybo.OptimizeConstrained(p, cons, easybo.Options{
		Workers: 3, MaxEvals: 90, InitPoints: 20, Seed: 9, FitIters: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("failed to find the small feasible ball")
	}
	if c := cons[0](res.BestX); c > 1e-9 {
		t.Fatalf("best is infeasible: %v", c)
	}
}

func TestOptimizeConstrainedMultipleConstraints(t *testing.T) {
	// Two half-plane constraints: x ≤ 0.5 and y ≤ 0.3; maximize x + 2y.
	p := easybo.Problem{
		Name: "halfplanes",
		Lo:   []float64{0, 0},
		Hi:   []float64{1, 1},
		Objective: func(x []float64) float64 {
			return x[0] + 2*x[1]
		},
	}
	cons := []easybo.Constraint{
		func(x []float64) float64 { return x[0] - 0.5 },
		func(x []float64) float64 { return x[1] - 0.3 },
	}
	res, err := easybo.OptimizeConstrained(p, cons, easybo.Options{
		Workers: 2, MaxEvals: 60, InitPoints: 12, Seed: 5, FitIters: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no feasible design found")
	}
	want := 0.5 + 2*0.3
	if res.BestY > want+1e-9 {
		t.Fatalf("best %v impossible under constraints", res.BestY)
	}
	if res.BestY < want-0.35 {
		t.Fatalf("best %v too far from the corner optimum %v", res.BestY, want)
	}
}

func TestOptimizeConstrainedValidation(t *testing.T) {
	p, _ := linearUnderDisk()
	if _, err := easybo.OptimizeConstrained(p, nil, easybo.Options{}); err == nil {
		t.Fatal("missing constraints must fail")
	}
	bad := easybo.Problem{Lo: []float64{1}, Hi: []float64{0},
		Objective: func([]float64) float64 { return 0 }}
	if _, err := easybo.OptimizeConstrained(bad, []easybo.Constraint{func([]float64) float64 { return 0 }},
		easybo.Options{}); err == nil {
		t.Fatal("bad bounds must fail")
	}
	_, err := easybo.OptimizeConstrained(p, []easybo.Constraint{func([]float64) float64 { return 0 }, nil}, easybo.Options{})
	if err == nil || !strings.Contains(err.Error(), "constraint 1") {
		t.Fatalf("err = %v, want one naming the nil constraint 1", err)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/constrained_pins.txt from the current OptimizeConstrained")

type constrainedPinRun struct {
	name string
	run  func() (*easybo.ConstrainedResult, error)
}

// constrainedPinRuns are the runs testdata/constrained_pins.txt holds a hash
// of: linearUnderDisk at seeds 1–3, one worker and four (InitPoints 8, so the
// initial design fills the pool), plus a run whose objective returns +Inf once
// and whose constraint returns NaN once. Every run costs 1 + x₀² simulated
// seconds per evaluation, so completions interleave and the busy set the
// proposer sees is not simply the last few launches.
func constrainedPinRuns() []constrainedPinRun {
	disk := func() (easybo.Problem, []easybo.Constraint) {
		p, cons := linearUnderDisk()
		p.Cost = func(x []float64) float64 { return 1 + x[0]*x[0] }
		return p, cons
	}
	var runs []constrainedPinRun
	for seed := int64(1); seed <= 3; seed++ {
		for _, o := range []easybo.Options{
			{Workers: 1, InitPoints: 6, MaxEvals: 16},
			{Workers: 4, InitPoints: 8, MaxEvals: 24},
		} {
			o := o
			o.Seed, o.FitIters = seed, 10
			runs = append(runs, constrainedPinRun{fmt.Sprintf("seed%d-w%d", seed, o.Workers), func() (*easybo.ConstrainedResult, error) {
				p, cons := disk()
				return easybo.OptimizeConstrained(p, cons, o)
			}})
		}
	}
	runs = append(runs, constrainedPinRun{"nonfinite-w2", func() (*easybo.ConstrainedResult, error) {
		p, cons := disk()
		obj, c0, calls := p.Objective, cons[0], 0
		p.Objective = func(x []float64) float64 {
			if calls++; calls == 3 {
				return math.Inf(1)
			}
			return obj(x)
		}
		cons[0] = func(x []float64) float64 {
			if calls == 9 {
				return math.NaN()
			}
			return c0(x)
		}
		return easybo.OptimizeConstrained(p, cons, easybo.Options{Workers: 2, InitPoints: 6, MaxEvals: 16, Seed: 1, FitIters: 10})
	}})
	return runs
}

// constrainedHash digests a whole constrained result: per evaluation X, Y,
// Constraints, Start, End, Worker, Feasible and the error text, then BestX,
// BestY, Found and Seconds. Attempts is left out.
func constrainedHash(r *easybo.ConstrainedResult) string {
	h := fnv.New64a()
	for _, e := range r.Evaluations {
		errText := ""
		if e.Err != nil {
			errText = e.Err.Error()
		}
		fmt.Fprintf(h, "%x|%x|%x|%x|%x|%d|%t|%q\n", e.X, e.Y, e.Constraints, e.Start, e.End, e.Worker, e.Feasible, errText)
	}
	fmt.Fprintf(h, "%x|%x|%t|%x\n", r.BestX, r.BestY, r.Found, r.Seconds)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestOptimizeConstrainedDeterministic holds OptimizeConstrained to the
// histories recorded in testdata/constrained_pins.txt, bit for bit. Refresh
// the file with -update only for a change that is meant to move them.
func TestOptimizeConstrainedDeterministic(t *testing.T) {
	var got strings.Builder
	for _, run := range constrainedPinRuns() {
		res, err := run.run()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		fmt.Fprintf(&got, "%s %s\n", run.name, constrainedHash(res))
	}
	if *update {
		if err := os.WriteFile("testdata/constrained_pins.txt", []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/constrained_pins.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("constrained histories moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// A non-finite objective or constraint is a failed evaluation: it is listed
// with Err set, is never feasible or the incumbent, and the surrogates never
// see it, so the run goes on.
func TestOptimizeConstrainedNonFiniteOutputsFail(t *testing.T) {
	p, _ := linearUnderDisk()
	t.Run("NaN constraint is not feasible", func(t *testing.T) {
		calls := 0
		cons := []easybo.Constraint{func([]float64) float64 {
			if calls++; calls == 6 {
				return math.NaN()
			}
			return 1
		}}
		res, err := easybo.OptimizeConstrained(p, cons, easybo.Options{Workers: 1, MaxEvals: 6, InitPoints: 6, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		last := res.Evaluations[5]
		if res.Found || last.Feasible || last.Err == nil || !math.IsNaN(last.Y) {
			t.Fatalf("Found=%v, last evaluation %+v: a NaN constraint must fail the evaluation", res.Found, last)
		}
	})
	t.Run("the run survives them", func(t *testing.T) {
		_, cons := linearUnderDisk()
		calls := 0
		q := p
		q.Objective = func(x []float64) float64 {
			if calls++; calls == 2 {
				return math.Inf(1)
			}
			return p.Objective(x)
		}
		disk := cons[0]
		cons[0] = func(x []float64) float64 {
			if calls == 4 {
				return math.Inf(-1)
			}
			return disk(x)
		}
		res, err := easybo.OptimizeConstrained(q, cons, easybo.Options{Workers: 2, MaxEvals: 14, InitPoints: 6, Seed: 1, FitIters: 5})
		if err != nil {
			t.Fatal(err)
		}
		failed := 0
		for _, e := range res.Evaluations {
			if e.Err == nil {
				continue
			}
			failed++
			if e.Feasible || &e.X[0] == &res.BestX[0] {
				t.Fatalf("failed evaluation %+v is feasible or the reported best", e)
			}
		}
		if len(res.Evaluations) != 14 || failed != 2 {
			t.Fatalf("%d evaluations, %d failed; want 14 and 2", len(res.Evaluations), failed)
		}
	})
}
