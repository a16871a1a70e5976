package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestQuietTimeCancelsSlowSpells builds synthetic blocks the way the box
// makes real ones: each block runs at its own speed, which stretches its
// operations and its calibration spins alike, and now and then one
// operation is hit by something the spins did not see. The quiet time must
// return the clean times; the plain median over blocks must not.
func TestQuietTimeCancelsSlowSpells(t *testing.T) {
	const ops = 120
	slow := []float64{1, 1.9, 1.3, 1.6, 1.05, 2.0, 1.45}
	clean := make([]float64, ops)
	for k := range clean {
		clean[k] = 0.008 + 0.0001*float64(k%7)
	}
	var s samples
	for i, f := range slow {
		b := newBlock()
		for k, c := range clean {
			v := c * f * (1 + 0.002*float64((i+k)%3)) // a little jitter everywhere
			if k%len(slow) == i {
				v *= 10 // an interrupt, a page fault: one block's sample of this op
			}
			b.add("rt", v)
			b.add(spinSeries, 25e-6*f)
		}
		s.blocks = append(s.blocks, b)
	}
	got := s.slowdown()
	for i, f := range slow {
		if math.Abs(got[i]-f) > 1e-9 {
			t.Fatalf("block %d: slowdown %v, want %v", i, got[i], f)
		}
	}
	q, err := s.quiet("rt")
	if err != nil {
		t.Fatal(err)
	}
	for k := range q {
		if rel := q[k]/clean[k] - 1; rel < 0 || rel > 0.0041 {
			t.Fatalf("op %d: quiet %.6f vs clean %.6f", k, q[k], clean[k])
		}
	}
	// The same data without the calibration is off by the box's median speed.
	var raw samples
	for _, b := range s.blocks {
		nb := newBlock()
		nb.series["rt"] = b.series["rt"]
		raw.blocks = append(raw.blocks, nb)
	}
	plain, err := raw.quiet("rt")
	if err != nil {
		t.Fatal(err)
	}
	if off := sum(plain)/sum(clean) - 1; off < 0.4 {
		t.Fatalf("uncalibrated medians should show the slow spells (off by %.3f)", off)
	}

	s.blocks[1].series["rt"] = s.blocks[1].series["rt"][:ops-1]
	if _, err := s.quiet("rt"); err == nil {
		t.Fatal("blocks of different length have no per-operation median")
	}
	if loose := s.quietLoose("rt"); len(loose) != len(slow)*ops-1 {
		t.Fatalf("pooled %d samples", len(loose))
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {100, 100}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty input")
	}
	// Every workload keeps at least ten samples beyond its tail percentile;
	// p95 of a 100-op block would not.
	for name, n := range map[string]int{
		"de-classe":   fullSizes.deSims - fullSizes.deSetup,
		"bo-opamp":    fullSizes.boTrips,
		"serve-wal":   fullSizes.walTrips,
		"serve-model": fullSizes.modelTrips,
	} {
		if n < 100 {
			t.Errorf("%s: %d timed ops per block, want at least 100", name, n)
		}
		if got := samplesBeyond(n, 90); got < 10 {
			t.Errorf("%s: %d samples beyond p90", name, got)
		}
	}
	if samplesBeyond(100, 95) >= 10 {
		t.Error("p95 of 100 samples should fail the rule")
	}
}

// TestQuartileSpread pins the quartile method to Python's
// statistics.quantiles(v, n=4), which the driver uses.
func TestQuartileSpread(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quantiles: 2.75, 5.5, 8.25
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread %v, want %v", got, want)
	}
}

func TestDigest(t *testing.T) {
	a, b, c := newDigester(), newDigester(), newDigester()
	a.told([]float64{1, 2}, 3)
	a.told([]float64{4, 5}, 6)
	b.told([]float64{1, 2}, 3)
	b.told([]float64{4, 5}, 6)
	c.told([]float64{4, 5}, 6)
	c.told([]float64{1, 2}, 3)
	if a.sum() != b.sum() {
		t.Fatal("same history, different digest")
	}
	if a.sum() == c.sum() {
		t.Fatal("order must matter")
	}
	z := newDigester()
	z.told([]float64{0}, 1)
	nz := newDigester()
	nz.told([]float64{math.Copysign(0, -1)}, 1)
	if z.sum() == nz.sum() {
		t.Fatal("the digest is over bits: -0 is not +0")
	}
}

func TestSpansNestAndGroup(t *testing.T) {
	rec := newRecorder()
	rec.setRT(0, -1)
	end := rec.begin(0, "a")
	end()
	rec.setRT(0, 0)
	outer := rec.begin(0, "a")
	inner := rec.begin(0, "b")
	rec.add(0, "c", time.Now(), time.Now())
	inner()
	outer()
	rec.add(100, "beside", time.Now(), time.Now())
	spans := rec.finish()
	if len(spans) != 5 {
		t.Fatalf("%d spans", len(spans))
	}
	if spans[2].Parent != 1 || spans[3].Parent != 2 || spans[4].Parent != -1 {
		t.Fatalf("parents: %+v", spans)
	}
	d := durations(spans)
	if len(d["a"]) != 1 || len(d["a"+setupSuffix]) != 1 || len(d["b"]) != 1 {
		t.Fatalf("series: %v", d)
	}
	var nilRec *recorder
	nilRec.begin(0, "x")() // tracing off must be a no-op
	nilRec.setRT(0, 1)
	nilRec.add(0, "x", time.Now(), time.Now())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestAgrees holds BENCHMARK.json and the program together: the
// same workloads, the same metric names and units, on both sides.
func TestManifestAgrees(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	if len(m.EndToEnd) != len(endToEndUnits) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(m.EndToEnd), len(endToEndUnits))
	}
	for _, e := range m.EndToEnd {
		if !nameRE.MatchString(e.Name) {
			t.Errorf("bad name %q", e.Name)
		}
		if endToEndUnits[e.Name] != e.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", e.Name, e.Unit, endToEndUnits[e.Name])
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v", e.Name, e.Bound)
		}
	}
	if len(m.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(m.PerLayer), len(layerMetrics))
	}
	for i, l := range m.PerLayer {
		want := layerMetrics[i]
		if l.Name != want.name || l.Unit != want.unit || l.Better != want.better || !nameRE.MatchString(l.Name) {
			t.Errorf("per-layer %d: %s [%s] vs %s [%s]", i, l.Name, l.Unit, want.name, want.unit)
		}
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced: boot,
// blocks, restart, output checks, layer values and the trace file.
func TestSmoke(t *testing.T) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			var plain, traced samples
			if problems := fill(w, 1, smokeSizes, 0, &plain, &traced); len(problems) > 0 {
				t.Fatal(problems)
			}
			if len(plain.blocks) != smokeSizes.minTraced || len(traced.blocks) != smokeSizes.minTraced {
				t.Fatalf("%d untraced and %d traced blocks", len(plain.blocks), len(traced.blocks))
			}
			if traced.blocks[0].digest != plain.blocks[0].digest {
				t.Fatal("the traced composition walked a different history")
			}
			e2e, err := endToEnd(&plain)
			if err != nil {
				t.Fatal(err)
			}
			if len(e2e) != len(endToEndUnits) {
				t.Fatalf("%d end-to-end metrics", len(e2e))
			}
			v := map[string]float64{}
			layerValues(v, &traced)
			declared := map[string]bool{}
			for _, m := range layerMetrics {
				declared[m.name] = true
			}
			moved := 0
			for name, x := range v {
				if !declared[name] {
					t.Errorf("layer metric %s is not declared", name)
				}
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Errorf("layer metric %s = %v", name, x)
				}
				if x != 0 {
					moved++
				}
			}
			if moved < 5 {
				t.Errorf("only %d layer metrics are non-zero", moved)
			}
			dir := t.TempDir()
			path, err := writeTrace(dir, w.name, traced.blocks[0].spans)
			if err != nil {
				t.Fatal(err)
			}
			if info, err := os.Stat(path); err != nil || info.Size() == 0 || filepath.Base(path) != "trace-"+w.name+".json" {
				t.Fatalf("trace file %s: %v", path, err)
			}
			if left, _ := filepath.Glob(filepath.Join(outDir, "wal-*")); len(left) > 0 {
				t.Errorf("WAL directories left behind: %v", left)
			}
		})
	}
}

func TestProbes(t *testing.T) {
	v := map[string]float64{}
	if err := runProbes(v); err != nil {
		t.Fatal(err)
	}
	for name, x := range v {
		if !(x > 0) {
			t.Errorf("probe %s = %v", name, x)
		}
	}
}
