package harness

import (
	"fmt"
	"math"
	"strings"

	"easybo/internal/acq"
	"easybo/internal/bo"
	"easybo/internal/sched"
)

// Curve is a labelled time series (mean best-so-far vs virtual time).
type Curve struct {
	Label string
	T     []float64
	Y     []float64
}

// Figure is the result of RunFigure: the paper's Figures 4 / 6.
type Figure struct {
	Name   string
	Curves []Curve
}

// RunFigure reproduces Figures 4/6: mean best-FOM-vs-wall-clock curves for
// pBO, pHCBO and EasyBO at the given batch size, averaged over Spec.Runs
// runs. The entries present in the spec are ignored; the figure algorithms
// are fixed by the paper.
func RunFigure(spec Spec, batch int, points int) (*Figure, error) {
	if points <= 0 {
		points = 120
	}
	spec.Entries = []Entry{
		{Algo: bo.AlgoPBO, Batch: batch},
		{Algo: bo.AlgoPHCBO, Batch: batch},
		{Algo: bo.AlgoEasyBO, Batch: batch},
	}
	tbl, err := RunTable(spec)
	if err != nil {
		return nil, err
	}
	// Common time grid up to the slowest algorithm's makespan.
	var tMax float64
	for _, hs := range tbl.Histories {
		for _, h := range hs {
			if h.Makespan > tMax {
				tMax = h.Makespan
			}
		}
	}
	grid := make([]float64, points)
	for i := range grid {
		grid[i] = tMax * float64(i+1) / float64(points)
	}
	fig := &Figure{Name: spec.Name}
	for _, e := range spec.Entries {
		label := e.Algo.Label(e.Batch)
		mean := make([]float64, points)
		for _, h := range tbl.Histories[label] {
			c := h.CurveVsTime(grid)
			for i, v := range c {
				if math.IsInf(v, -1) {
					// Before the first completion: carry the eventual first
					// observation backward so means stay finite.
					v = h.Records[0].Y
				}
				mean[i] += v
			}
		}
		for i := range mean {
			mean[i] /= float64(len(tbl.Histories[label]))
		}
		fig.Curves = append(fig.Curves, Curve{Label: label, T: grid, Y: mean})
	}
	return fig, nil
}

// Reduction is the relative time EasyBO saves against one reference curve.
type Reduction struct {
	Label     string  `json:"label"`
	Reduction float64 `json:"reduction"`
}

// TimeReduction reports, for each non-EasyBO curve, the relative time saved
// by EasyBO to first reach that curve's final mean value — the percentages
// annotated on the paper's Figures 4 and 6. Rows come in curve order; a
// reference whose final level EasyBO never reaches has none.
func (f *Figure) TimeReduction() []Reduction {
	var easy *Curve
	for i := range f.Curves {
		if strings.HasPrefix(f.Curves[i].Label, "EasyBO") {
			easy = &f.Curves[i]
		}
	}
	if easy == nil {
		return nil
	}
	timeTo := func(c *Curve, level float64) (float64, bool) {
		for i, y := range c.Y {
			if y >= level {
				return c.T[i], true
			}
		}
		return 0, false
	}
	var out []Reduction
	for i := range f.Curves {
		c := &f.Curves[i]
		if c == easy {
			continue
		}
		level := c.Y[len(c.Y)-1]
		tRef, ok1 := timeTo(c, level)
		tEasy, ok2 := timeTo(easy, level)
		if ok1 && ok2 && tRef > 0 {
			out = append(out, Reduction{c.Label, 1 - tEasy/tRef})
		}
	}
	return out
}

// CSV renders the figure data.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString("time_s")
	for _, c := range f.Curves {
		fmt.Fprintf(&b, ",%s", c.Label)
	}
	b.WriteByte('\n')
	if len(f.Curves) == 0 {
		return b.String()
	}
	for i := range f.Curves[0].T {
		fmt.Fprintf(&b, "%g", f.Curves[0].T[i])
		for _, c := range f.Curves {
			fmt.Fprintf(&b, ",%g", c.Y[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ASCIIPlot renders the curves as a terminal plot.
func (f *Figure) ASCIIPlot(width, height int) string {
	if width <= 10 {
		width = 78
	}
	if height <= 4 {
		height = 22
	}
	var yMin, yMax = math.Inf(1), math.Inf(-1)
	var tMax float64
	for _, c := range f.Curves {
		for i := range c.T {
			if c.Y[i] < yMin {
				yMin = c.Y[i]
			}
			if c.Y[i] > yMax {
				yMax = c.Y[i]
			}
			if c.T[i] > tMax {
				tMax = c.T[i]
			}
		}
	}
	if yMax == yMin {
		yMax = yMin + 1
	}
	marks := []byte{'*', 'o', '+', 'x', '#'}
	gridC := make([][]byte, height)
	for r := range gridC {
		gridC[r] = []byte(strings.Repeat(" ", width))
	}
	for ci, c := range f.Curves {
		m := marks[ci%len(marks)]
		for i := range c.T {
			col := int(c.T[i] / tMax * float64(width-1))
			row := height - 1 - int((c.Y[i]-yMin)/(yMax-yMin)*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				gridC[row][col] = m
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (best FOM vs virtual time)\n", f.Name)
	for r := 0; r < height; r++ {
		y := yMax - (yMax-yMin)*float64(r)/float64(height-1)
		fmt.Fprintf(&b, "%10.2f |%s\n", y, string(gridC[r]))
	}
	fmt.Fprintf(&b, "%10s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%10s  0%*s%.0fs\n", "", width-8, "", tMax)
	for ci, c := range f.Curves {
		fmt.Fprintf(&b, "    %c = %s\n", marks[ci%len(marks)], c.Label)
	}
	return b.String()
}

// ScheduleDemo reproduces Figure 1: the worker-occupancy timelines of
// synchronous and asynchronous dispatch for the same 9 heterogeneous jobs
// on 3 workers, rendered as an ASCII Gantt chart.
func ScheduleDemo() string {
	costs := []float64{4, 7, 3, 5, 2, 6, 3, 4, 5}
	const b = 3
	var out strings.Builder
	render := func(title string, recs []sched.Result, makespan float64) {
		fmt.Fprintf(&out, "%s (makespan %.0fs)\n", title, makespan)
		const scale = 2 // columns per second
		for w := 0; w < b; w++ {
			line := []byte(strings.Repeat(".", int(makespan)*scale+1))
			for _, r := range recs {
				if r.Worker != w {
					continue
				}
				for t := int(r.Start) * scale; t < int(r.End)*scale && t < len(line); t++ {
					line[t] = byte('1' + r.ID%9)
				}
			}
			fmt.Fprintf(&out, "  worker %d |%s|\n", w, string(line))
		}
	}
	// Synchronous: batches of 3, wait for the slowest.
	var syncRecs []sched.Result
	now := 0.0
	id := 0
	for i := 0; i < len(costs); i += b {
		batchEnd := now
		for j := i; j < i+b && j < len(costs); j++ {
			w := j - i
			r := sched.Result{ID: id, Start: now, End: now + costs[j], Worker: w}
			id++
			syncRecs = append(syncRecs, r)
			if r.End > batchEnd {
				batchEnd = r.End
			}
		}
		now = batchEnd
	}
	render("Synchronous batch (B=3): idle workers wait for the slowest job", syncRecs, now)

	// Asynchronous: greedy dispatch through the virtual executor.
	i := 0
	ex := sched.NewVirtual(b, func(x []float64) (float64, float64) { return 0, x[0] })
	var asyncRecs []sched.Result
	for i < len(costs) && ex.Idle() > 0 {
		_ = ex.Launch([]float64{costs[i]})
		i++
	}
	for {
		r, ok := ex.Wait()
		if !ok {
			break
		}
		asyncRecs = append(asyncRecs, r)
		if i < len(costs) {
			_ = ex.Launch([]float64{costs[i]})
			i++
		}
	}
	out.WriteByte('\n')
	render("Asynchronous (EasyBO): a new query is issued the moment a worker idles", asyncRecs, ex.Now())
	fmt.Fprintf(&out, "\nSame 9 jobs, same 3 workers: async finishes sooner; savings grow with runtime dispersion.\n")
	return out.String()
}

// WeightDensityDemo reproduces Figure 2: the sampling density of the
// exploration weight w under κ ~ U[0, λ] with w = κ/(κ+1), versus the
// uniform ladder pBO uses, as an ASCII histogram.
func WeightDensityDemo(lambda float64) string {
	if lambda <= 0 {
		lambda = acq.DefaultLambda
	}
	const bins = 20
	var b strings.Builder
	fmt.Fprintf(&b, "Density of w = κ/(κ+1), κ ~ U[0, %.1f]  (paper Fig. 2: mass concentrates near w→1)\n", lambda)
	wMax := lambda / (lambda + 1)
	var peak float64
	dens := make([]float64, bins)
	for i := range dens {
		w := (float64(i) + 0.5) / bins * wMax
		dens[i] = acq.WeightDensity(w, lambda)
		if dens[i] > peak {
			peak = dens[i]
		}
	}
	for i, d := range dens {
		w0 := float64(i) / bins * wMax
		w1 := float64(i+1) / bins * wMax
		bar := int(d / peak * 56)
		fmt.Fprintf(&b, "  w ∈ [%.3f,%.3f) %7.3f |%s\n", w0, w1, d, strings.Repeat("█", bar))
	}
	fmt.Fprintf(&b, "  (pBO's fixed ladder w_i = (i-1)/(B-1) spreads uniformly instead)\n")
	return b.String()
}
